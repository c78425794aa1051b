"""End-to-end tests of the command line interface.

Every test drives ``conmot.cli.main`` directly with an argv list, points it
at a temporary output directory, and inspects the files it writes. Nothing
here shells out, so failures carry normal tracebacks.
"""

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conmot import dynamics, maps
from conmot.cli import main
from conmot.dynamics import Orbit
from conmot.invariants import BipartiteInvariant, constant_weight, make_series_invariant
from conmot.maps import gradient_descent
from conmot.objectives import PayoffData, double_well
from conmot.state import State, euclidean


HYPERBOLIC = {
    "map": {
        "kind": "alt_play",
        "payoff": {"matrix": [[1]]},
        "step_sizes": ["1/10", "1/5"],
    },
    "initial_states": [[60, -25]],
    "steps": {"forward": 500, "backward": 40},
    "output": {"prefix": "hyp"},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_golden_header_and_rows(tmp_path):
    cfg = write_config(tmp_path, HYPERBOLIC)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "simulate"])
    assert rc == 0

    header, rows = read_csv(out / "hyp_trajectory_0.csv")
    assert header == ["t", "x_0", "x_1", "f", "phi", "defect"]
    assert len(rows) == 40 + 1 + 500

    by_t = {row[0]: row for row in rows}
    # The starting row and its exact successor, written with repr().
    assert by_t["0"] == ["0", "60.0", "-25.0", "-1500.0", "31375.0", "0.0"]
    assert by_t["1"] == ["1", "57.5", "-13.5", "-776.25", "31375.0", "0.0"]
    assert rows[0][0] == "-40"
    assert rows[-1][0] == "500"

    # Exact arithmetic keeps the invariant cell literally constant.
    assert {row[4] for row in rows} == {"31375.0"}
    assert {row[5] for row in rows} == {"0.0"}


def test_simulate_summary_payload(tmp_path):
    cfg = write_config(tmp_path, HYPERBOLIC)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0

    summary = json.loads((out / "hyp_summary.json").read_text())
    assert summary["map_kind"] == "alt_play"
    (traj,) = summary["trajectories"]
    assert traj["initial_index"] == 0
    assert traj["file"] == "hyp_trajectory_0.csv"
    assert traj["rows"] == 541
    assert traj["max_defect"] == 0.0
    assert traj["fixed_point_forward"] is False
    assert traj["fixed_point_backward"] is False
    assert len(traj["final_state"]) == 2


def test_simulate_zero_steps_single_row(tmp_path):
    doc = dict(HYPERBOLIC, steps={"forward": 0, "backward": 0})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    _, rows = read_csv(out / "hyp_trajectory_0.csv")
    assert len(rows) == 1
    assert rows[0][0] == "0"


def test_simulate_gradient_descent_reaches_the_well(tmp_path):
    doc = {
        "map": {
            "kind": "gd",
            "objective": {"name": "double_well", "dimension": 1},
            "step_size": 0.1,
        },
        "initial_states": [[0.5]],
        "steps": {"forward": 200},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0

    header, rows = read_csv(out / "run_trajectory_0.csv")
    assert header == ["t", "x_0", "f", "phi", "defect"]
    final_f = float(rows[-1][2])
    assert final_f == pytest.approx(-0.25, abs=1e-8)
    # No invariant section, so those columns are explicit nans.
    assert rows[-1][3] == "nan"
    assert rows[-1][4] == "nan"


# ---------------------------------------------------------------------------
# invariant


def test_invariant_closed_form_values_and_audit(tmp_path):
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
        "initial_states": [[60, -25], [-20, 2]],
        "invariant": {"kind": "closed-form", "defect_horizon": 50},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "invariant"]) == 0

    payload = json.loads((out / "run_invariant.json").read_text())
    assert payload["kind"] == "closed-form"
    assert payload["map_kind"] == "alt_play"
    first, second = payload["results"]
    assert first["value"] == 31375.0
    assert first["value_exact"] == "31375"
    assert first["defect_horizon"] == 50
    assert first["max_defect"] == 0.0
    assert second["value"] == 3940.0
    assert second["value_exact"] == "3940"
    assert second["max_defect"] == 0.0


def test_invariant_series_at_a_fixed_point(tmp_path):
    doc = {
        "map": {
            "kind": "gd",
            "objective": {"name": "quadratic", "dimension": 1},
            "step_size": 0.5,
        },
        "initial_states": [[0.0]],
        "invariant": {"kind": "series", "truncation": 8},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "invariant"]) == 0

    payload = json.loads((out / "run_invariant.json").read_text())
    assert payload["kind"] == "series"
    (entry,) = payload["results"]
    assert entry["fixed_point"] is True
    assert entry["converged_early"] is True
    assert entry["value"] == 0.0
    assert entry["truncation_n"] == 0
    assert entry["partial_sums"] == []
    assert entry["divergent"] is False
    assert entry["one_sided"] is False


def test_invariant_series_converges_on_the_double_well(tmp_path):
    doc = {
        "map": {
            "kind": "gd",
            "objective": {"name": "double_well", "dimension": 1},
            "step_size": 0.1,
        },
        "initial_states": [[0.5]],
        "invariant": {"kind": "series", "truncation": 64},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "invariant"]) == 0

    payload = json.loads((out / "run_invariant.json").read_text())
    (entry,) = payload["results"]
    assert entry["divergent"] is False
    assert entry["value"] == pytest.approx(0.25, abs=1e-6)
    assert len(entry["partial_sums"]) == 2 * entry["truncation_n"] + 1


def test_simulate_series_rows_match_a_fresh_series_per_row(tmp_path):
    """Rows read their series from one orbit window; each agrees with a fresh
    evaluation at that row's state."""
    doc = {
        "map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
                "step_size": "0.1"},
        "initial_states": [["0.4"]],
        "steps": {"forward": 12, "backward": 6},
        "invariant": {"kind": "series", "truncation": 32},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    _, rows = read_csv(out / "run_trajectory_0.csv")

    m = gradient_descent(double_well(1), Fraction(1, 10))
    orb = Orbit(m, State([0.4], euclidean(1)))
    fresh = make_series_invariant(m, None, constant_weight(), 32)
    phi0 = fresh(orb.origin)
    assert [int(r[0]) for r in rows] == list(range(-6, 13))
    for row, t in zip(rows, range(-6, 13)):
        assert float(row[1]) == orb[t].coordinates[0]
        phi_t = fresh(orb[t])
        want = (phi_t, abs(phi_t - phi0) / (1.0 + abs(phi0)))
        for got, ref in zip((float(row[3]), float(row[4])), want):
            assert math.isnan(got) == math.isnan(ref)
            assert math.isnan(got) or abs(got - ref) <= 1e-9


def test_simulate_computes_each_state_of_its_orbit_once(tmp_path, monkeypatch):
    """Rows and series values read one orbit: 12 forward and 6 backward rows
    at depth 32 reach T^44 x and T^-39 x, each computed once."""
    solves, steps = [], []
    invert, raw = dynamics._newton, maps._raw_step
    monkeypatch.setattr(dynamics, "_newton", lambda *a: solves.append(1) or invert(*a))
    monkeypatch.setattr(maps, "_raw_step", lambda *a: steps.append(1) or raw(*a))
    doc = {
        "map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
                "step_size": "0.1"},
        "initial_states": [["0.4"]],
        "steps": {"forward": 12, "backward": 6},
        "invariant": {"kind": "series", "truncation": 32},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"]) == 0
    assert (len(solves), len(steps)) == (39, 44)


# ---------------------------------------------------------------------------
# classify


def test_classify_successor_pair(tmp_path):
    doc = {
        "map": {
            "kind": "gd",
            "objective": {"name": "quadratic", "dimension": 1},
            "step_size": 0.5,
        },
        "classify": {"x": [1.0], "y": [0.5], "max_iterations": 50},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "classify"])
    assert rc == 0

    payload = json.loads((out / "run_classify.json").read_text())
    assert payload["answer"] == "yes"
    assert payload["index"] == 1
    assert set(payload) == {
        "answer",
        "index",
        "closest_approach",
        "invariant_gap",
        "search_mode",
    }


def test_classify_rejects_wrong_length(tmp_path):
    doc = {
        "map": {
            "kind": "gd",
            "objective": {"name": "quadratic", "dimension": 2},
            "step_size": 0.5,
        },
        "classify": {"x": [1.0], "y": [0.5]},
    }
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "classify"])
    assert rc == 2


def test_classify_unparsable_coordinate_is_exit_two_with_path(tmp_path, capsys):
    doc = {
        "map": {"kind": "gd", "objective": {"name": "quadratic", "dimension": 1},
                "step_size": 0.5},
        "classify": {"x": ["abc"], "y": [0.5]},
    }
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "classify"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration:")
    assert "classify.x[0]" in err


@pytest.mark.parametrize("command", ["simulate", "invariant"])
@pytest.mark.parametrize(
    "weight, path",
    [
        ({"kind": "coordinate", "index": 3}, "invariant.weight.index"),
        ({"kind": "gaussian-bump", "center": [0, 1], "width": 1.0}, "invariant.weight.center"),
    ],
)
def test_weight_that_does_not_fit_the_chart_is_exit_two_with_path(
    tmp_path, capsys, command, weight, path
):
    doc = {
        "map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
                "step_size": "0.1"},
        "initial_states": [[0.5]],
        "steps": {"forward": 3},
        "invariant": {"kind": "series", "truncation": 8, "weight": weight},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    rc = main(["--config", str(cfg), "--out", str(out), command])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration:")
    assert path in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("rates", [["1/0", "1/5"], ["-1/10", "1/5"]])
def test_bad_step_size_string_is_exit_two_with_path(tmp_path, capsys, rates):
    doc = dict(HYPERBOLIC, map=dict(HYPERBOLIC["map"], step_sizes=rates))
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration:")
    assert "map.step_sizes[0]" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_payload_and_confinement(tmp_path):
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
        "scan": {"pairs": 5, "horizon": 200, "box_halfwidth": 20.0},
        "seed": 11,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "scan"]) == 0

    payload = json.loads((out / "run_scan.json").read_text())
    assert payload["map_kind"] == "alt_play"
    assert payload["seed"] == 11
    assert payload["horizon"] == 200
    assert payload["pairs"] == 5
    assert len(payload["pair_reports"]) == 5
    assert sum(payload["verdict_counts"].values()) == 5
    for report in payload["pair_reports"]:
        assert len(report["x"]) == 2
        assert len(report["y"]) == 2
        assert report["verdict"] in (
            "separated",
            "converging-pair",
            "scramble-candidate",
            "inconclusive",
        )

    confinement = payload["confinement"]
    assert confinement["status"] == "completed"
    assert confinement["checked_pairs"] == 5
    assert confinement["refutations"] == []
    assert confinement["continuity_caveat"] is False
    assert sum(confinement["verdict_counts"].values()) == 5


def test_scan_seed_flag_overrides_config(tmp_path):
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
        "scan": {"pairs": 3, "horizon": 50, "box_halfwidth": 20.0},
        "seed": 11,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "--seed", "99", "scan"]) == 0
    payload = json.loads((out / "run_scan.json").read_text())
    assert payload["seed"] == 99


def test_scan_without_any_seed_is_a_config_error(tmp_path, capsys):
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
        "scan": {"pairs": 2, "horizon": 10},
    }
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration:")
    assert "seed" in err


# ---------------------------------------------------------------------------
# figures


@pytest.mark.parametrize(
    "which, levels",
    [
        ("fig1", ["31375", "3940", "-12000"]),
        ("fig2", ["2740", "-4550", "-10825"]),
    ],
)
def test_figures_levels_and_files(tmp_path, which, levels):
    out = tmp_path / which
    assert main(["figures", which, "--out", str(out)]) == 0

    names = {p.name for p in out.iterdir()}
    expected = {f"{which}_summary.json"}
    for i in range(3):
        expected.add(f"{which}_orbit_{i}.csv")
        expected.add(f"{which}_levels_{i}.csv")
    assert names == expected

    summary = json.loads((out / f"{which}_summary.json").read_text())
    assert summary["figure"] == which
    assert [orbit["level_exact"] for orbit in summary["orbits"]] == levels
    assert all(orbit["max_defect"] == 0.0 for orbit in summary["orbits"])
    assert summary["forward_steps"] == 160
    assert summary["backward_steps"] == 40

    for i, level in enumerate(levels):
        header, rows = read_csv(out / f"{which}_orbit_{i}.csv")
        assert header == ["t", "x_0", "x_1", "f", "phi", "defect"]
        assert len(rows) == 40 + 1 + 160
        assert {row[4] for row in rows} == {repr(float(level))}
        assert {row[5] for row in rows} == {"0.0"}


def test_figures_level_curves_lie_on_their_levels(tmp_path):
    out = tmp_path / "fig1"
    assert main(["figures", "fig1", "--out", str(out)]) == 0

    phi = BipartiteInvariant(
        PayoffData.from_matrix([[Fraction(1)]]), Fraction(1, 10), Fraction(1, 5)
    )
    summary = json.loads((out / "fig1_summary.json").read_text())
    for i, orbit in enumerate(summary["orbits"]):
        level = orbit["level"]
        header, rows = read_csv(out / f"fig1_levels_{i}.csv")
        assert header == ["x", "y_plus", "y_minus"]
        assert len(rows) == 401
        checked = 0
        for row in rows:
            x = float(row[0])
            for cell in row[1:]:
                if cell == "nan":
                    continue
                point = np.array([x, float(cell)])
                assert abs(phi(point) - level) <= 1e-9 * (1.0 + abs(level))
                checked += 1
        assert checked > 100


def test_figures_needs_no_config(tmp_path):
    # The figures command carries its own recipes and must run bare.
    assert main(["figures", "fig2", "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# flags, determinism, failure modes


def test_flags_accepted_before_and_after_subcommand(tmp_path):
    cfg = write_config(tmp_path, dict(HYPERBOLIC, steps={"forward": 3}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out_a), "simulate"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    text_a = (out_a / "hyp_trajectory_0.csv").read_text()
    text_b = (out_b / "hyp_trajectory_0.csv").read_text()
    assert text_a == text_b


def test_reruns_are_byte_identical(tmp_path):
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
        "scan": {"pairs": 4, "horizon": 100, "box_halfwidth": 20.0},
        "seed": 5,
    }
    cfg = write_config(tmp_path, doc)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", str(cfg), "--out", str(out_a), "scan"]) == 0
    assert main(["--config", str(cfg), "--out", str(out_b), "scan"]) == 0
    assert (out_a / "run_scan.json").read_bytes() == (out_b / "run_scan.json").read_bytes()


def test_missing_config_flag_is_exit_two(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration:")
    assert "--config" in err


def test_unknown_config_field_is_exit_two_with_path(tmp_path, capsys):
    doc = dict(HYPERBOLIC)
    doc["surprise"] = 1
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration:")
    assert "surprise" in err


def test_unreadable_config_is_exit_two(tmp_path, capsys):
    rc = main(
        ["--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"),
         "simulate"]
    )
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_broken_json_is_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_backward_region_escape_is_exit_three(tmp_path, capsys):
    # The preimage of 9.0 under x -> x/2 is 18.0, outside the ball of
    # radius 10 where the quadratic objective is defined.
    doc = {
        "map": {
            "kind": "gd",
            "objective": {"name": "quadratic", "dimension": 1},
            "step_size": 0.5,
        },
        "initial_states": [[9.0]],
        "steps": {"backward": 1},
    }
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not err.startswith("error: configuration:")
    assert err == "error: backward step left the objective's declared region (step index -1)\n"


MWU_LIN_TOO_FAST = {
    "map": {"kind": "mwu_lin", "objective": {"name": "quadratic", "dimension": 3},
            "blocks": [3], "step_size": "1.5"},
    "initial_states": [["0.9", "0.05", "0.05"]],
    "invariant": {"kind": "series", "truncation": 8},
}
GD_OUTSIDE_THE_BOX = {
    "map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
            "step_size": "0.1"},
    "initial_states": [["1.7"]],
    "steps": {"forward": 5},
    "invariant": {"kind": "series", "truncation": 8},
    "classify": {"x": ["1.7"], "y": ["0.5"]},
}


@pytest.mark.parametrize("doc, command, message", [
    (MWU_LIN_TOO_FAST, "simulate", "mwu_lin factor -0.35 is not positive; reduce the learning rate"),
    (MWU_LIN_TOO_FAST, "invariant", "mwu_lin factor -0.35 is not positive; reduce the learning rate"),
    (GD_OUTSIDE_THE_BOX, "simulate", "state lies outside the objective's declared region"),
    (GD_OUTSIDE_THE_BOX, "invariant", "state lies outside the objective's declared region"),
    (GD_OUTSIDE_THE_BOX, "classify", "state lies outside the objective's declared region"),
])
def test_a_failed_orbit_step_is_exit_three_with_its_step_index(tmp_path, capsys, doc, command,
                                                                message):
    """Every command reports an orbit failure the same way: the raw message
    and the index of the step that could not be taken."""
    cfg = write_config(tmp_path, doc)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), command]) == 3
    assert capsys.readouterr().err == f"error: {message} (step index 1)\n"


@pytest.mark.parametrize("prefix", ["no/such/dir", "../x"])
def test_a_prefix_with_a_path_separator_is_exit_two(tmp_path, capsys, prefix):
    cfg = write_config(tmp_path, dict(HYPERBOLIC, steps={"forward": 2}, output={"prefix": prefix}))
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "a" / "out"), "simulate"])
    assert rc == 2
    assert "output.prefix" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["config.json"]


SIMPLEX_3 = {"kind": "mwu_exp", "objective": {"name": "quadratic", "dimension": 3},
             "blocks": [3], "step_size": "0.1"}
SPHERE_3 = {"kind": "rgd_sphere", "objective": {"name": "linear", "coefficients": [1, -2, 0.5]},
            "step_size": "0.1"}


@pytest.mark.parametrize("doc, command, json_path", [
    ({"map": SIMPLEX_3, "initial_states": [["0.5", "0.6", "0.2"]]}, "simulate",
     "initial_states[0]"),
    ({"map": SPHERE_3, "initial_states": [["0.6", "0.8", "0"], [1, 1, 1]]}, "simulate",
     "initial_states[1]"),
    ({"map": dict(SIMPLEX_3, objective={"name": "quadratic", "dimension": 2}, blocks=[2]),
      "classify": {"x": ["0.9", "0.9"], "y": ["0.5", "0.5"]}}, "classify", "classify.x"),
    ({"map": SPHERE_3, "classify": {"x": ["0.6", "0.8", "0"], "y": [0, 0, 2]}}, "classify",
     "classify.y"),
])
def test_points_off_their_chart_are_exit_two_with_their_path(tmp_path, capsys, doc, command,
                                                             json_path):
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command])
    assert rc == 2
    assert f"error: configuration: {json_path} is not a point of the" in capsys.readouterr().err


def test_a_scan_box_wider_than_the_float_range_is_exit_two(tmp_path, capsys):
    doc = dict(HYPERBOLIC, scan={"pairs": 1, "horizon": 3, "box_halfwidth": 1e308}, seed=1)
    rc = main(["--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o"), "scan"])
    assert rc == 2
    assert "scan.box_halfwidth" in capsys.readouterr().err


def test_a_numerical_failure_writes_only_its_error_line_to_stderr(tmp_path, capsys):
    """Squaring a coordinate near 1e300 in the region check overflows; numpy's
    warning must not reach stderr ahead of the error."""
    doc = {"map": {"kind": "gd", "objective": {"name": "quadratic", "dimension": 2},
                   "step_size": "0.1"},
           "scan": {"pairs": 2, "horizon": 5, "box_halfwidth": 1e300}, "seed": 1}
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: state lies outside the objective's declared region\n"


def test_a_closed_form_value_beyond_the_float_range_is_written_as_inf(tmp_path):
    doc = dict(HYPERBOLIC, initial_states=[[1e300, -1e300]], invariant={"kind": "closed-form"})
    cfg, out = write_config(tmp_path, doc), tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "invariant"]) == 0
    (entry,) = json.loads((out / "hyp_invariant.json").read_text())["results"]
    assert entry["value"] == "inf"
    assert Fraction(entry["value_exact"]) > 10**600


def test_simulate_without_initial_states_is_exit_two(tmp_path, capsys):
    doc = {
        "map": {
            "kind": "alt_play",
            "payoff": {"matrix": [[1]]},
            "step_sizes": ["1/10", "1/5"],
        },
    }
    cfg = write_config(tmp_path, doc)
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 2
    assert "initial_states" in capsys.readouterr().err


def test_trajectory_matches_library_arithmetic(tmp_path):
    # The CSV cells must agree with a fresh exact orbit, cell for cell.
    cfg = write_config(tmp_path, dict(HYPERBOLIC, steps={"forward": 25}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
    _, rows = read_csv(out / "hyp_trajectory_0.csv")

    from conmot.exact import ExactAltOrbit

    payoff = PayoffData.from_matrix([[Fraction(1)]])
    orbit = ExactAltOrbit(payoff, Fraction(1, 10), Fraction(1, 5), [60, -25])
    for _ in range(25):
        orbit.advance()
    x, y = orbit.xy_float()
    assert float(rows[-1][1]) == x
    assert float(rows[-1][2]) == y
    assert float(rows[-1][3]) == orbit.payoff_value_float()
