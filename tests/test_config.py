"""JSON run-configuration loading: schema gate, exactness, construction."""

import json
from fractions import Fraction

import pytest

from conmot.config import build_weight, load_config
from conmot.errors import ConfigError


def write(tmp_path, payload):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(payload))
    return p


BASE = {
    "map": {
        "kind": "alt_play",
        "payoff": {"matrix": [[1]]},
        "step_sizes": [0.1, 0.2],
    },
    "initial_states": [[60, -25]],
    "steps": {"forward": 10, "backward": 2},
}


def test_minimal_alt_play_config_loads(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.map.kind == "alt_play"
    assert cfg.n_forward == 10 and cfg.n_backward == 2
    assert cfg.initial_states[0].coordinates.tolist() == [60.0, -25.0]
    assert cfg.output_prefix == "run"


def test_step_sizes_survive_as_exact_decimals(tmp_path):
    """0.1 in the JSON text means one tenth, not the nearest binary float."""
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.map.step_sizes == (Fraction(1, 10), Fraction(1, 5))
    assert cfg.initial_exact[0] == (Fraction(60), Fraction(-25))


def test_unknown_fields_are_rejected_with_their_path(tmp_path):
    bad = dict(BASE, extra_knob=1)
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, bad))
    assert err.value.json_path is not None


def test_wrong_types_are_rejected(tmp_path):
    bad = dict(BASE, steps={"forward": "ten"})
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_unknown_map_kind_is_rejected(tmp_path):
    bad = dict(BASE, map={"kind": "leapfrog", "step_sizes": [0.1]})
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_missing_file_and_broken_json_raise_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_initial_state_dimension_is_checked(tmp_path):
    bad = dict(BASE, initial_states=[[60, -25, 3]])
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_alt_play_needs_exactly_two_step_sizes(tmp_path):
    bad = dict(BASE)
    bad["map"] = dict(BASE["map"], step_sizes=[0.1])
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


GD_LINEAR = {"kind": "gd", "objective": {"name": "linear", "coefficients": [1]}, "step_size": 0.1}
MWU_2x2 = {"kind": "mwu_exp", "objective": {"name": "quadratic", "dimension": 4},
           "blocks": [2, 2], "step_sizes": [0.1, 0.1]}


@pytest.mark.parametrize("doc, json_path", [
    (dict(BASE, initial_states=[["1e400", 0]]), "initial_states[0][0]"),
    (dict(BASE, map=dict(BASE["map"], payoff={"matrix": [["1/0"]]})), "map.payoff.matrix[0][0]"),
    ({"map": dict(GD_LINEAR, step_size="0")}, "map.step_size"),
    ({"map": dict(GD_LINEAR, objective={"name": "linear", "coefficients": ["x"]})},
     "map.objective.coefficients[0]"),
    ({"map": dict(MWU_2x2, step_sizes=[0.1, "-1"])}, "map.step_sizes[1]"),
    ({"map": dict(MWU_2x2, step_sizes=[0.1])}, "map"),
])
def test_bad_numbers_and_unbuildable_maps_name_their_path(tmp_path, doc, json_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, doc))
    assert err.value.json_path == json_path
    assert str(err.value).startswith(json_path)


def test_gd_config_builds_objective_and_region(tmp_path):
    cfg = load_config(write(tmp_path, {
        "map": {
            "kind": "gd",
            "objective": {"name": "double_well", "dimension": 1},
            "step_size": 0.1,
        },
        "initial_states": [[0.5]],
        "steps": {"forward": 5},
    }))
    assert cfg.map.kind == "gd"
    assert cfg.map.objective.name == "double-well"
    assert cfg.map.step_sizes == (Fraction(1, 10),)


def test_mwu_config_builds_blocks(tmp_path):
    cfg = load_config(write(tmp_path, {
        "map": {
            "kind": "mwu_exp",
            "objective": {"name": "quadratic", "dimension": 5},
            "blocks": [3, 2],
            "step_size": 0.05,
        },
        "initial_states": [[0.2, 0.3, 0.5, 0.4, 0.6]],
        "steps": {"forward": 3},
    }))
    assert cfg.map.chart.blocks == (3, 2)
    assert len(cfg.map.step_sizes) == 2  # scalar rate broadcast per agent


def test_closed_form_invariant_requires_alt_play(tmp_path):
    bad = {
        "map": {
            "kind": "gd",
            "objective": {"name": "quadratic", "dimension": 1},
            "step_size": 0.1,
        },
        "initial_states": [[1.0]],
        "steps": {"forward": 1},
        "invariant": {"kind": "closed-form"},
    }
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, bad))


def test_scan_and_classify_sections_are_carried_through(tmp_path):
    cfg = load_config(write(tmp_path, dict(
        BASE,
        scan={"pairs": 20, "horizon": 100},
        classify={"x": [60, -25], "y": [57.5, -13.5]},
        seed=7,
        tolerance=1e-8,
        output={"prefix": "demo"},
    )))
    assert cfg.scan_spec["pairs"] == 20
    assert cfg.classify_spec["x"] == [60, -25]
    assert cfg.seed == 7
    assert cfg.tolerance == 1e-8
    assert cfg.output_prefix == "demo"


def test_build_weight_catalog():
    assert build_weight(None, 1).kind == "constant"
    assert build_weight({"kind": "constant", "value": 2.0}, 1)([0.0]) == 2.0
    assert build_weight({"kind": "coordinate", "index": 1}, 2)([5.0, 9.0]) == 9.0
    bumpw = build_weight({"kind": "gaussian-bump", "center": [0.0], "width": 2.0}, 1)
    assert bumpw([0.0]) == 1.0


@pytest.mark.parametrize(
    "weight, path",
    [
        ({"kind": "coordinate", "index": 3}, "invariant.weight.index"),
        ({"kind": "coordinate", "index": 1}, "invariant.weight.index"),
        ({"kind": "gaussian-bump", "center": [0.0, 1.0], "width": 1.0}, "invariant.weight.center"),
    ],
)
def test_build_weight_checks_the_chart_dimension(weight, path):
    with pytest.raises(ConfigError) as info:
        build_weight(weight, 1)
    assert info.value.json_path == path

