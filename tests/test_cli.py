"""End-to-end tests of the command line interface.

Every test drives ``conmot.cli.main`` directly with an argv list, points it
at a temporary output directory, and inspects the files it writes. Nothing
here shells out, so failures carry normal tracebacks.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from collections.abc import Iterator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conmot import cli, config, dynamics, maps
from conmot.cli import ERROR_LINE_CAP, FIGURE_RECIPES, _figure_grid, _to_json, _write_json, main
from conmot.dynamics import Orbit
from conmot.exact import BipartiteInvariant, PayoffData
from conmot.invariants import constant_weight, make_series_invariant
from conmot.maps import gradient_descent
from conmot.objectives import double_well
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
    fresh = make_series_invariant(m, constant_weight(), 32)
    phi0 = fresh(orb.origin)
    assert [int(r[0]) for r in rows] == list(range(-6, 13))
    for row, t in zip(rows, range(-6, 13)):
        assert float(row[1]) == orb[t][0]
        phi_t = fresh(State(orb[t], m.chart))
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
        ({"kind": "coordinate"}, "invariant.weight"),
        ({"kind": "gaussian-bump", "width": 1.0}, "invariant.weight"),
        ({"kind": "gaussian-bump", "center": [0]}, "invariant.weight"),
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


@pytest.mark.parametrize("command", ["simulate", "invariant", "classify", "scan"])
@pytest.mark.parametrize("doc, message", [
    (dict(HYPERBOLIC, invariant={"kind": "series", "truncation": 8},
          classify={"x": [60, -25], "y": [-20, 2]}),
     "invariant.kind must be closed-form for alt_play"),
    ({"map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
              "step_size": "0.1"},
      "initial_states": [[0.5]], "invariant": {"kind": "closed-form"},
      "classify": {"x": [0.5], "y": [-0.5]}},
     "the closed-form invariant only exists for alt_play"),
])
def test_an_invariant_of_the_other_map_kind_is_exit_two(tmp_path, capsys, command, doc, message):
    """closed-form is the invariant of alt_play and of nothing else; a
    mismatch either way stops every command before it writes a file."""
    cfg = write_config(tmp_path, dict(doc, seed=3, scan={"pairs": 2, "horizon": 10}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert capsys.readouterr().err == f"error: configuration: {message}\n"
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


def test_an_error_line_quoting_a_huge_value_is_cut_in_the_middle(tmp_path, capsys):
    """The schema message quotes the whole rejected list (1.5 MB here); the
    line keeps its head and its (at $path) tail within the cap."""
    cfg = write_config(tmp_path, {"map": list(range(200_000))})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) - 1 <= ERROR_LINE_CAP
    assert err.startswith("error: configuration: [0, 1, 2, ")
    assert err.endswith(" is not of type 'object' (at $['map'])\n")


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


@pytest.mark.parametrize("window", [
    *(1.5 * max(abs(v) for init in recipe["initial_states"] for v in init)
      for recipe in FIGURE_RECIPES.values()),
    1.0, 0.1, 1 / 3, 7.3, 1e-5, 12345.678,
])
def test_figures_grid_equals_linspace_bit_for_bit(window):
    grid = np.array(_figure_grid(window))
    assert grid.tobytes() == np.linspace(-window, window, 401).tobytes()


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


def test_the_tolerance_flag_builds_the_map_and_states_once(tmp_path, monkeypatch):
    """--tolerance is read where the tolerance is used, not copied into the
    loaded config, whose float map and initial states a copy builds again."""
    builds, states = [], []
    build, post_init = config._build_map, State.__post_init__
    monkeypatch.setattr(config, "_build_map", lambda s: builds.append(1) or build(s))
    monkeypatch.setattr(State, "__post_init__", lambda state: states.append(1) or post_init(state))
    cfg = write_config(tmp_path, {
        "map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
                "step_size": "0.1"},
        "initial_states": [["0.5"]], "steps": {"forward": 3}})
    for flags in ([], ["--tolerance", "1e-6"]):
        builds.clear()
        states.clear()
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *flags, "simulate"]) == 0
        assert (len(builds), len(states)) == (1, 1), flags


# SHA-256 of the classify and scan files written with --tolerance 10, pinned
# while the flag still replaced the tolerance of the loaded config. The flag
# turns the classify answer from "no" to "inconclusive" and clears the scan's
# four refutations, so both files differ from those written without it.
TOLERANCE_FLAG_SHA256 = {
    "flag_classify.json": "5387cabe65d7310a99be4cd4f1861d67e53fdbab15b5c54d24dbf6c2329b1f22",
    "flag_scan.json": "5db3272b57565a6a2cf6f257701a436213e499d51367d1e4a1c12d74634412c9",
}


def test_the_tolerance_flag_outputs_keep_their_pinned_bytes(tmp_path):
    scan = {"pairs": 4, "horizon": 200, "box_halfwidth": 20, "eps_low": 1e13, "eps_high": 1e-9}
    doc = {"map": HYPERBOLIC["map"], "seed": 105, "scan": scan, "output": {"prefix": "flag"},
           "classify": {"x": [60, -25], "y": [-20, 2]}}
    out = tmp_path / "out"
    for command in ("classify", "scan"):
        assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out),
                     "--tolerance", "10", command]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == TOLERANCE_FLAG_SHA256
    # A classify.tolerance in the config takes precedence over the flag.
    doc["classify"]["tolerance"] = 1e-9
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out),
                 "--tolerance", "10", "classify"]) == 0
    assert json.loads((out / "flag_classify.json").read_text())["answer"] == "no"


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


@pytest.mark.parametrize("raw", [b'\xff\xfe{"map": 1}', b'{"map": {"kind": "\xe9"}}'],
                         ids=["utf16_bom", "latin1_byte"])
def test_a_config_that_is_not_utf8_is_exit_two(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    rc = main(["--config", str(path), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: configuration: cannot read config file")
    assert err.count("\n") == 1


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


def test_an_alt_play_scan_of_pairs_beyond_1e154_apart_separates_them(tmp_path):
    """Pair differences whose raw norm overflows float64 when squared."""
    doc = dict(HYPERBOLIC, scan={"pairs": 3, "horizon": 200, "box_halfwidth": 1e160}, seed=5)
    cfg, out = write_config(tmp_path, doc), tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "scan"]) == 0
    text = (out / "hyp_scan.json").read_text()
    payload = json.loads(text)
    assert payload["verdict_counts"] == {"separated": 3}
    for report in payload["pair_reports"]:
        assert 1e150 < report["liminf_estimate"] <= report["limsup_estimate"] < math.inf
        # Phi of these points overflows float64; the closed-form gap is exact.
        assert 1.28 < report["invariant_gap"] < 1.47
    assert "nan" not in text


def _jsonable(obj):
    """The oracle of the JSON writer: obj made strict-JSON safe for
    json.dumps, with non-finite floats as strings."""
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _oracle(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2)


@dataclasses.dataclass
class _Inner:
    ratio: Fraction
    values: list


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    extremes: tuple


_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x7faé €😀') | st.characters(),
                max_size=6)
_FLOATS = (st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, math.nan,
                                          math.inf, -math.inf]))
_LEAVES = (st.none() | st.booleans() | st.integers(-2**300, 2**300) | _TEXT | _FLOATS
           | _FLOATS.map(np.float64) | st.fractions())
_PAYLOADS = st.recursive(_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | st.builds(_Inner, inner, st.lists(inner, max_size=3))
    | st.builds(_Outer, st.builds(_Inner, inner, st.lists(inner, max_size=3)),
                st.lists(inner, max_size=3).map(tuple))), max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_the_json_text_is_the_oracle_s_bytes(payload):
    """Any nested payload encodes to json.dumps's text of its JSON-safe form,
    and a list of it streamed from an iterator to the same text in pieces."""
    assert _to_json(payload) == _oracle(payload)
    pieces = []
    rest = _to_json({"s": iter([payload, payload]), "t": payload}, pieces.append)
    assert "".join(pieces) + rest == _oracle({"s": [payload, payload], "t": payload})


def test_json_outputs_are_the_bytes_of_the_whole_document(tmp_path):
    payload = {
        "b": _Outer(_Inner(Fraction(-3, 7), [1.5, math.nan, -math.inf]),
                    (math.inf, -math.inf, math.nan, 2.5, 7)),
        "a": [{"z": 1, "y": [None, True, "text"]}, [0.1]],
    }
    path = tmp_path / "doc.json"
    _write_json(path, payload)
    expected = _oracle(payload) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("entries", [
    [{"z": math.nan, "a": [math.inf, -math.inf, [Fraction(-3, 7), [0.1, []]]]},
     _Inner(Fraction(1, 3), [{"k": math.nan}, (2.5, None)]), [], 7, "text"],
    [],
])
def test_a_streamed_list_is_written_as_the_whole_document_would_be(tmp_path, entries):
    """An iterator in the document is written one entry at a time, with the
    bytes json.dump gives the document that holds the list itself."""
    payload = {"b": {"c": [1.5, math.nan]}, "list": entries, "z": [], "a": Fraction(1, 2)}
    path = tmp_path / "doc.json"
    _write_json(path, dict(payload, list=iter(entries)))
    expected = _oracle(payload) + "\n"
    assert path.read_bytes() == expected.encode()


def _scan_peak_bytes(tmp_path, pairs):
    doc = dict(HYPERBOLIC, scan={"pairs": pairs, "horizon": 1000, "box_halfwidth": 20.0}, seed=7)
    cfg = write_config(tmp_path, doc, f"scan{pairs}.json")
    tracemalloc.start()
    try:
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "scan"]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_alt_play_scan_holds_a_few_floats_per_pair(tmp_path):
    """Pairs are coordinate rows in one array and the reports are streamed:
    the traced peak grows by at most 1 KB per extra pair, where two States,
    two reports and an entry per pair took about 2 KB."""
    _scan_peak_bytes(tmp_path, 200)  # imports and caches are not per-pair memory
    small, large = _scan_peak_bytes(tmp_path, 200), _scan_peak_bytes(tmp_path, 2000)
    assert (large - small) / 1800 <= 1024


# One config per map kind with every section a command reads.
_SECTIONS = {"steps": {"forward": 4, "backward": 2}, "scan": {"pairs": 2, "horizon": 6},
             "seed": 5}
JSON_CONTRACT_DOCS = {
    "gd": {"map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
                   "step_size": "0.1"},
           "initial_states": [["0.5"]], "classify": {"x": ["0.5"], "y": ["0.45"]}},
    "mwu_exp": {"map": SIMPLEX_3, "initial_states": [["0.5", "0.3", "0.2"]],
                "classify": {"x": ["0.5", "0.3", "0.2"], "y": ["0.2", "0.3", "0.5"]}},
    "mwu_lin": {"map": dict(SIMPLEX_3, kind="mwu_lin"), "initial_states": [["0.5", "0.3", "0.2"]],
                "classify": {"x": ["0.5", "0.3", "0.2"], "y": ["0.2", "0.3", "0.5"]}},
    "alt_play": {"map": HYPERBOLIC["map"], "initial_states": [[60, -25]],
                 "classify": {"x": [60, -25], "y": ["57.5", "-13.5"]},
                 "invariant": {"kind": "closed-form", "defect_horizon": 3}},
    "rgd_sphere": {"map": SPHERE_3, "initial_states": [["0.6", "0.8", "0"]],
                   "classify": {"x": ["0.6", "0.8", "0"], "y": ["0", "0.6", "0.8"]}},
}


def _json_leaves(node):
    if dataclasses.is_dataclass(node):
        node = dataclasses.asdict(node)
    if isinstance(node, dict):
        assert all(isinstance(key, str) for key in node)
        node = list(node.values())
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _json_leaves(item)
    else:
        yield node


@pytest.mark.parametrize("kind", sorted(JSON_CONTRACT_DOCS))
def test_every_command_hands_the_json_writer_python_values_only(tmp_path, monkeypatch, kind):
    """Each JSON document a command writes holds None, bool, int, str,
    Fraction or float leaves: json.dump takes no numpy value. The entries of
    a list the writer streams are read here and handed on as a new iterator,
    so their leaves are checked too."""
    payloads = []

    def capture(path, payload):
        if isinstance(payload, dict):
            streamed = {k: list(v) for k, v in payload.items() if isinstance(v, Iterator)}
            payload = {**payload, **streamed}
            _write_json(path, {**payload, **{k: iter(v) for k, v in streamed.items()}})
        else:
            _write_json(path, payload)
        payloads.append(payload)

    monkeypatch.setattr(cli, "_write_json", capture)
    doc = dict(_SECTIONS, **JSON_CONTRACT_DOCS[kind])
    doc.setdefault("invariant", {"kind": "series", "truncation": 6, "defect_horizon": 2})
    cfg = write_config(tmp_path, doc)
    commands = [[command] for command in ("simulate", "invariant", "classify", "scan")]
    if kind == "alt_play":
        commands += [["figures", which] for which in sorted(FIGURE_RECIPES)]
    for argv in commands:
        written = len(payloads)
        assert main(["--config", str(cfg), "--out", str(tmp_path / argv[-1]), *argv]) == 0
        assert len(payloads) > written, argv
    for payload in payloads:
        for leaf in _json_leaves(payload):
            assert leaf is None or type(leaf) in (bool, int, str, Fraction) or (
                isinstance(leaf, float)), type(leaf)


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
    assert capsys.readouterr().err == (
        "error: state lies outside the objective's declared region (step index 1)\n")


def test_an_initial_state_that_overflows_its_chart_check_writes_only_its_error_line(
        tmp_path, capsys):
    """The sphere norm of this point overflows on its way to the chart check."""
    cfg = write_config(tmp_path, {"map": SPHERE_3, "initial_states": [[1e300, 1e300, 1e300]]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith(
        "error: configuration: initial_states[0] is not a point of the sphere chart")


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


# SHA-256 of every file that simulate and invariant write for a 1x1 and a 2x3
# alt_play config, as written when load_config still built the float map and
# states of every config: the exact commands must keep these bytes. The scan
# and classify files were written when the float step was still two shears
# and the scan matrix was assembled from float products.
# The figures files of fig1 and fig2 were pinned before BipartiteInvariant
# read its integer step through the certificate rule. The gd, mwu_exp and
# rgd_sphere scan files, whose every gap is "nan", were pinned while the scan
# still held each pair as two States and wrote pair_reports as one list.
PINNED_ALT_PLAY = {
    "square": (("simulate", "invariant"),
               {"map": HYPERBOLIC["map"], "initial_states": [[60, -25], [-20, 2]],
                "steps": {"forward": 200, "backward": 20},
                "invariant": {"kind": "closed-form"}}),
    "rect": (("simulate", "invariant"),
             {"map": {"kind": "alt_play",
                      "payoff": {"matrix": [["1/4", "-3/4", "5/4"], ["7/4", "-1/4", "3/4"]]},
                      "step_sizes": ["1/10", "0.2"]},
              "initial_states": [[1, -2, 3, -4, 5], ["1/3", 0.5, -1, "2.5", "1e200"]],
              "steps": {"forward": 120, "backward": 30},
              "invariant": {"kind": "closed-form", "defect_horizon": 0}}),
    "scan1": (("scan",), {"map": HYPERBOLIC["map"], "seed": 101,
                          "scan": {"pairs": 100, "horizon": 1000, "box_halfwidth": 20}}),
    "classify1": (("classify",), {"map": HYPERBOLIC["map"],
                                  "classify": {"x": [60, -25], "y": [-20, 2]}}),
    "scan_gd": (("scan",), {"map": {"kind": "gd", "step_size": "0.1",
                                    "objective": {"name": "double_well", "dimension": 2}},
                            "seed": 102, "scan": {"pairs": 20, "horizon": 300}}),
    "scan_mwu_exp": (("scan",), {"map": {**SIMPLEX_3, "blocks": [3, 2],
                                         "objective": {"name": "quadratic", "dimension": 5}},
                                 "seed": 103, "scan": {"pairs": 10, "horizon": 300}}),
    "scan_rgd_sphere": (("scan",), {"map": SPHERE_3, "seed": 104,
                                    "scan": {"pairs": 20, "horizon": 300}}),
}
PINNED_SHA256 = {
    "fig1_levels_0.csv": "e72928486fb6a98dcadfd182130433729e9b3fdaa441563bb28db7c71d27be11",
    "fig1_levels_1.csv": "90f15fcc012a83d83d40737bd5c3dcd332faa140745bbcb9a132ff847f49c39e",
    "fig1_levels_2.csv": "433317438b1341dcf2493f31fe81fb31d0178e7a0733cbf7d08a94c2256fd664",
    "fig1_orbit_0.csv": "f86c59ab4ee5fbcd54c72bf755108af72e357dbb056540f28fb5f44d0616abf6",
    "fig1_orbit_1.csv": "49203c510376f0f33a86b95e5a4c2d6d824604afc3b528c807de1e94144d51dd",
    "fig1_orbit_2.csv": "250389c4a00e8c0d6655bba23cecfc7fa5f8b4f43fae20b695a81acd14443c98",
    "fig1_summary.json": "e1d0e82ebf6c8e033af00031ff8b6d84c7c801bacf748488afe08b7d41652520",
    "fig2_levels_0.csv": "8f829f6556d9b1b252c0e3748694c4863b86cb428020c561f25fabf55a322a0f",
    "fig2_levels_1.csv": "b2dbc80f3ac1daca89b4562e0ed39136e297d70c65bf7ec0fcded7d4f0dede2e",
    "fig2_levels_2.csv": "22b89ef8aff8df5110cdcd5f50c49463b90e3ed328108812be721394ba775fa3",
    "fig2_orbit_0.csv": "d09e5f844ad82349a977a5f0fb4cf2e01162158deb02d77e1f7b326b6d610011",
    "fig2_orbit_1.csv": "6aeb4a8d998e7d3e9a148eccf63417f86defed45f6764b7e6e2bd0245eb4717b",
    "fig2_orbit_2.csv": "5ec1b625e618b0cb96021d00b9e8159fd4b6ea26ea13d8439a38f7668804175b",
    "fig2_summary.json": "20264e67e9c04de2710452d9bfe5a89fba4c9a1aed6657f238890b2a3f21bdc9",
    "classify1_classify.json": "29c4df1aec70d22952cce3c5fba6b2123e4305d66fe02551651157f89a0c7151",
    "rect_invariant.json": "314335b89ec7465b5e6e75ee119a8b062bc42d204c84a60dfdac5895b9a69f10",
    "rect_summary.json": "b438ec0c2ea978c3631d190a8082dce6e7064a30ceaa4b21afad85ea993c27f8",
    "rect_trajectory_0.csv": "777ebd1d3e417d3a398ec1ef84245c6547a2a59a154578594b4f099048e56a5e",
    "rect_trajectory_1.csv": "8b3fcfdd7585605bad233d20d824589703ff4b1a4517dab0373dc401726707e0",
    "scan1_scan.json": "e1152cfc49fd84b1af55f16defd06e2ac34392a6ba70131af76d7627c6f57ea7",
    "scan_gd_scan.json": "2851c75b80a1f59ef15f727c13d0eb3b5bbba876af0a2a44e5f3672b03ddccdb",
    "scan_mwu_exp_scan.json": "6838f1ddb085d0830d293882d9934e9d2b2fc86cab31c3fb3b466ae080fb08c4",
    "scan_rgd_sphere_scan.json": "3611c0f8885f7fe489ff8d36df4df398889c32d2046ec604c9b2b0998b4d9d35",
    "square_invariant.json": "dded01cc8c2d5a5089291d6935eb9a5f55923dd5dca5a94602e8569fd18e8f04",
    "square_summary.json": "6abcd795b76e1e81aacdb9fe794afeca2f1804468591789c163b15163a4793f1",
    "square_trajectory_0.csv": "c5bb3c6788ea35324a583de19e5369e32b25f71193d2e1b8f6de68e368a7ce30",
    "square_trajectory_1.csv": "9b140029ea7c6a0227448d61a27311f02c8f0fd9ebcff0a17522cb6e9b7f182e",
}


def test_exact_alt_play_outputs_keep_their_pinned_bytes(tmp_path):
    out = tmp_path / "out"
    for prefix, (commands, doc) in PINNED_ALT_PLAY.items():
        cfg = write_config(tmp_path, dict(doc, output={"prefix": prefix}), f"{prefix}.json")
        for command in commands:
            assert main(["--config", str(cfg), "--out", str(out), command]) == 0
    for which in FIGURE_RECIPES:
        assert main(["figures", which, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == PINNED_SHA256
