"""JSON run-configuration loading: schema gate, exactness, construction."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import conmot
from conmot.cli import main
from conmot.config import _READS, _TYPES, _schema, _schema_errors, build_weight, load_config
from conmot.errors import ConfigError
from conmot.exact import BipartiteInvariant, PayoffData, certified_quadratic
from conmot.maps import MapInstance


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
    ({"map": dict(GD_LINEAR, objective={"name": "linear"})}, "map.objective"),
    ({"map": dict(MWU_2x2, step_sizes=[0.1, "-1"])}, "map.step_sizes[1]"),
    ({"map": dict(MWU_2x2, step_sizes=[0.1])}, "map"),
    (dict(BASE, initial_states=[["1e99999999", 0]]), "initial_states[0][0]"),
])
def test_bad_numbers_and_unbuildable_maps_name_their_path(tmp_path, doc, json_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, doc))
    assert err.value.json_path == json_path
    assert str(err.value).startswith(json_path)


@pytest.mark.parametrize("doc, json_path", [
    ({"map": dict(MWU_2x2, blocks=[3], step_sizes=[0.1],
                  objective={"name": "quadratic", "dimension": 3}),
      "initial_states": [["0.5", "0.6", "0.2"]]}, "initial_states[0]"),
    ({"map": MWU_2x2,
      "initial_states": [["0.5", "0.5", "0.5", "0.5"], ["0.5", "0.5", "1.5", "-0.5"]]},
     "initial_states[1]"),
    ({"map": {"kind": "rgd_sphere", "objective": {"name": "quadratic", "dimension": 3},
              "step_size": "0.1"}, "initial_states": [[1, 1, 1]]}, "initial_states[0]"),
])
def test_initial_states_off_their_chart_name_their_path(tmp_path, doc, json_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, doc))
    assert err.value.json_path == json_path
    assert str(err.value).startswith(f"{json_path} is not a point of the")


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



def test_the_packaged_schema_is_valid_against_its_metaschema():
    schema = _schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def _subschemas(schema):
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from _subschemas(sub)
        elif isinstance(value, dict):
            yield from _subschemas(value)


def test_the_small_validator_knows_every_keyword_and_type_of_the_schema():
    """A schema edit that adds, say, pattern, an additionalProperties
    subschema, a type name or a non-string enum member must extend the
    validator first, and this test fails until it does."""
    for sub in _subschemas(_schema()):
        # Each probe reaches every keyword of sub, and every subschema below it.
        for probe in (None, [None], dict.fromkeys(sub.get("properties", {})), "", 0):
            list(_schema_errors(probe, sub))  # raises on an unknown keyword or form
        names = sub.get("type", [])
        assert set([names] if isinstance(names, str) else names) <= _TYPES.keys()
        assert all(isinstance(member, str) for member in sub.get("enum", []))


@pytest.mark.parametrize("schema", [{"pattern": "^a"}, {"additionalProperties": {}},
                                    {"type": "object", "additionalProperties": True},
                                    {"items": True}])
def test_the_validator_refuses_a_keyword_or_form_it_does_not_know(schema):
    with pytest.raises((NotImplementedError, AttributeError)):
        list(_schema_errors([None], schema))


GD = {"kind": "gd", "objective": {"name": "quadratic"}, "step_size": "0.1"}
# One invalid config per keyword, with the path and message jsonschema's
# best_match gave for it when jsonschema still worded config errors.
PINNED_ERRORS = {
    "type": ({"map": GD, "steps": {"forward": "ten"}},
             "$['steps']['forward']", "'ten' is not of type 'integer'"),
    "type_two_names": ({"map": dict(GD, step_size=[1])},
                       "$['map']['step_size']", "[1] is not of type 'number', 'string'"),
    "enum": ({"map": dict(GD, kind="leapfrog")}, "$['map']['kind']",
             "'leapfrog' is not one of ['gd', 'mwu_exp', 'mwu_lin', 'alt_play', 'rgd_sphere']"),
    "required": ({"steps": {}}, "$", "'map' is a required property"),
    "additional_one": ({"map": GD, "extra": 1}, "$",
                       "Additional properties are not allowed ('extra' was unexpected)"),
    "additional_two": ({"map": dict(GD, zeta=1, alpha=2)}, "$['map']",
                       "Additional properties are not allowed ('alpha', 'zeta' were unexpected)"),
    "min_items": ({"map": GD, "initial_states": []}, "$['initial_states']",
                  "[] should be non-empty"),
    "min_length": ({"map": GD, "output": {"prefix": ""}}, "$['output']['prefix']",
                   "'' should be non-empty"),
    "minimum": ({"map": GD, "seed": -1}, "$['seed']", "-1 is less than the minimum of 0"),
    "exclusive_minimum": ({"map": GD, "tolerance": 0}, "$['tolerance']",
                          "0 is less than or equal to the minimum of 0"),
    "nested_array": ({"map": GD, "initial_states": [[1, None]]}, "$['initial_states'][0][1]",
                     "None is not of type 'number', 'string'"),
    "path_sorting_last": ({"map": {"kind": 5}, "steps": {"forward": -1}},
                          "$['steps']['forward']", "-1 is less than the minimum of 0"),
    "shallowest": ({"map": {"kind": "gd", "objective": {"dimension": 0}}, "extra": True}, "$",
                   "Additional properties are not allowed ('extra' was unexpected)"),
    "not_an_object": ([1], "$", "[1] is not of type 'object'"),
}


@pytest.mark.parametrize("name", PINNED_ERRORS)
def test_a_schema_error_names_its_path_and_jsonschema_s_message(tmp_path, name):
    doc, json_path, message = PINNED_ERRORS[name]
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, doc))
    assert err.value.json_path == json_path
    assert str(err.value) == f"{message} (at {json_path})"


def _fresh(code: str, *argv: str) -> str:
    """The output of code run with argv in a fresh interpreter."""
    src = str(Path(conmot.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, check=True).stdout


def _configs(tmp_path) -> list[str]:
    """BASE and every pinned invalid config, written to files."""
    docs = [BASE, *(doc for doc, _, _ in PINNED_ERRORS.values())]
    paths = [tmp_path / f"config_{i}.json" for i in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    return [str(path) for path in paths]


def test_no_config_valid_or_invalid_loads_jsonschema(tmp_path):
    code = ("import sys, conmot\n"
            "for path in sys.argv[1:]:\n"
            "    try:\n        conmot.load_config(path)\n"
            "    except conmot.ConfigError:\n        pass\n"
            "print('jsonschema' in sys.modules)")
    assert _fresh(code, *_configs(tmp_path)) == "False\n"


def test_a_schema_error_is_exit_two_where_jsonschema_cannot_be_imported(tmp_path):
    """Each pinned config, run through simulate with every import of
    jsonschema refused, exits 2 with its one error line and no traceback."""
    code = ("import contextlib, io, json, sys\n"
            "class Refuse:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.partition('.')[0] == 'jsonschema':\n"
            "            raise ModuleNotFoundError(name)\n"
            "sys.meta_path.insert(0, Refuse())\n"
            "from conmot.cli import main\n"
            "runs = []\n"
            "for path in sys.argv[2:]:\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(err):\n"
            "        rc = main(['--config', path, '--out', sys.argv[1], 'simulate'])\n"
            "    runs.append((rc, err.getvalue()))\n"
            "print(json.dumps(runs))")
    configs = _configs(tmp_path)[1:]
    runs = json.loads(_fresh(code, str(tmp_path / "out"), *configs))
    assert runs == [[2, f"error: configuration: {message} (at {json_path})\n"]
                    for _, json_path, message in PINNED_ERRORS.values()]


def test_integral_floats_are_read_as_integers(tmp_path):
    """The schema's integer fields accept 2.0; the config reads it as 2."""
    cfg = load_config(write(tmp_path, {
        "map": {"kind": "mwu_exp", "objective": {"name": "quadratic", "dimension": 2.0},
                "blocks": [2.0], "step_size": 0.1},
        "initial_states": [[0.4, 0.6]], "steps": {"forward": 2.0}, "seed": 3.0,
        "invariant": {"kind": "series", "weight": {"kind": "coordinate", "index": 1.0}},
    }))
    values = (cfg.map.objective.dimension, cfg.map.chart.blocks[0], cfg.n_forward, cfg.seed,
              cfg.invariant_spec["weight"]["index"])
    assert values == (2, 2, 2, 3, 1)
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("text, json_path", [
    ('"tolerance": 1e400', "tolerance"),
    ('"scan": {"pairs": 1, "horizon": 2, "eps_low": 1e400}', "scan.eps_low"),
    ('"initial_states": [[1, -1e999]]', "initial_states[0][1]"),
    ('"steps": {"forward": 1' + "0" * 400 + "}", "steps.forward"),
], ids=["tolerance", "eps_low", "initial_state", "huge_integer"])
def test_numbers_beyond_float64_name_their_path(tmp_path, text, json_path):
    """Literals that read as inf, and integers no float can hold, are config
    errors before anything converts them. The text's key replaces BASE's."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE)[:-1] + ", " + text + "}")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.json_path == json_path
    assert str(err.value) == f"{json_path} is not a finite number"


@pytest.mark.parametrize("text", ['{"seed": ' + "9" * 5000 + "}",
                                  '{"map": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                         ids=["long_integer", "deep_nesting"])
def test_json_the_parser_cannot_hold_is_a_config_error(tmp_path, text):
    path = tmp_path / "run.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("literal", ["1e-99999999", "-1e-400", "0e400"])
def test_literals_with_an_exponent_beyond_float64_name_their_path(tmp_path, literal):
    """Rejected before their exponent is expanded into an exact integer."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(BASE)[:-1] + ', "initial_states": [[1, ' + literal + "]]}")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.json_path == "initial_states[0][1]"
    assert str(err.value) == "initial_states[0][1] has a decimal exponent outside the float64 range"


# One config per map kind that every command that reads a config runs to exit 0.
_COMMON = {"steps": {"forward": 3, "backward": 1}, "scan": {"pairs": 1, "horizon": 3}, "seed": 1}
_SERIES = {"kind": "series", "truncation": 2}
RUNNABLE = {
    "gd": dict(_COMMON, initial_states=[[0.5]], invariant=_SERIES,
               map={"kind": "gd", "objective": {"name": "double_well"}, "step_size": "0.1"},
               classify={"x": [0.5], "y": [0.25], "max_iterations": 3}),
    "rgd_sphere": dict(_COMMON, initial_states=[[0.6, 0.8]], invariant=_SERIES,
                       map={"kind": "rgd_sphere", "step_size": "0.1",
                            "objective": {"name": "linear", "coefficients": [1, -2]}},
                       classify={"x": [0.6, 0.8], "y": [0.8, 0.6], "max_iterations": 3}),
    **{kind: dict(_COMMON, initial_states=[[0.4, 0.6]], invariant=_SERIES,
                  map={"kind": kind, "objective": {"name": "quadratic", "dimension": 2},
                       "blocks": [2], "step_size": "0.1"},
                  classify={"x": [0.4, 0.6], "y": [0.7, 0.3], "max_iterations": 3})
       for kind in ("mwu_exp", "mwu_lin")},
    "alt_play": dict(_COMMON, initial_states=[[60, -25]], map=BASE["map"],
                     invariant={"kind": "closed-form", "defect_horizon": 2},
                     classify={"x": [60, -25], "y": [57.5, -13.5], "max_iterations": 3}),
}
WEIGHTS = {"constant": {"value": 2.0}, "coordinate": {"index": 0},
           "gaussian-bump": {"center": [0.0], "width": 1.0}}


def _set(doc: dict, path: str, value=None) -> dict:
    """A copy of doc with the key at the dotted path set to value, or deleted
    for None (the schema allows null nowhere)."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path.split(".")
    target = doc
    for name in parents:
        target = target[name]
    if value is None:
        del target[key]
    else:
        target[key] = value
    return doc


def _refused():
    """(id, config, JSON path) of each setting that its kind does not read."""
    payoff = {"matrix": [[1]]}
    for kind in ("gd", "rgd_sphere"):
        for key, value in (("step_sizes", ["0.1"]), ("payoff", payoff), ("blocks", [2])):
            yield f"{kind}-{key}", _set(RUNNABLE[kind], f"map.{key}", value), f"map.{key}"
    for kind in ("mwu_exp", "mwu_lin"):
        yield f"{kind}-payoff", _set(RUNNABLE[kind], "map.payoff", payoff), "map.payoff"
        # step_sizes beside a step_size: the pair is refused at the step_size.
        yield (f"{kind}-step_size", _set(RUNNABLE[kind], "map.step_sizes", ["0.1"]),
               "map.step_size")
    for key, value in (("objective", {"name": "quadratic", "dimension": 2}),
                       ("step_size", "0.1"), ("blocks", [2])):
        yield f"alt_play-{key}", _set(RUNNABLE["alt_play"], f"map.{key}", value), f"map.{key}"
    for name in ("quadratic", "double_well", "bump"):
        objective = {"name": name, "dimension": 1, "coefficients": [1]}
        yield (f"{name}-coefficients", _set(RUNNABLE["gd"], "map.objective", objective),
               "map.objective.coefficients")
    yield ("linear-dimension", _set(RUNNABLE["rgd_sphere"], "map.objective.dimension", 2),
           "map.objective.dimension")
    for key, value in (("weight", {"kind": "constant"}), ("truncation", 2)):
        yield (f"closed-form-{key}", _set(RUNNABLE["alt_play"], f"invariant.{key}", value),
               f"invariant.{key}")
    other_keys = {key: value for keys in WEIGHTS.values() for key, value in keys.items()}
    for kind, keys in WEIGHTS.items():
        for key in other_keys.keys() - keys.keys():
            weight = {"kind": kind, **keys, key: other_keys[key]}
            yield (f"{kind}-{key}", _set(RUNNABLE["gd"], "invariant.weight", weight),
                   f"invariant.weight.{key}")


REFUSED = {name: (doc, json_path) for name, doc, json_path in _refused()}
COMMANDS = ("simulate", "invariant", "classify", "scan")


@pytest.mark.parametrize("name", REFUSED)
def test_a_key_that_its_kind_does_not_read_is_exit_two_on_every_command(tmp_path, capsys, name):
    """Each of these settings once changed nothing; now it stops every command
    that reads the config at its JSON path, with one error line."""
    doc, json_path = REFUSED[name]
    config = write(tmp_path, doc)
    with pytest.raises(ConfigError) as err:
        load_config(config)
    assert err.value.json_path == json_path
    for command in COMMANDS:
        assert main(["--config", str(config), "--out", str(tmp_path / "out"), command]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: configuration: {json_path}: ")
        if name.startswith("mwu") and json_path == "map.step_size":
            assert "'step_size'" in lines[0] and "'step_sizes'" in lines[0]


@pytest.mark.parametrize("kind", RUNNABLE)
def test_the_refused_configs_run_without_their_refused_key(tmp_path, capsys, kind):
    config = write(tmp_path, RUNNABLE[kind])
    for command in COMMANDS:
        assert main(["--config", str(config), "--out", str(tmp_path / "out"), command]) == 0


@pytest.mark.parametrize("doc, json_path, line", [
    (_set(RUNNABLE["gd"], "map.objective"), "map", "map requires 'objective'"),
    (_set(RUNNABLE["gd"], "map.step_size"), "map", "map requires 'step_size'"),
    (_set(RUNNABLE["mwu_exp"], "map.blocks"), "map", "map requires 'blocks'"),
    (_set(RUNNABLE["mwu_lin"], "map.step_size"), "map", "map requires 'step_size'"),
    (_set(RUNNABLE["alt_play"], "map.payoff"), "map", "map requires 'payoff'"),
    (_set(RUNNABLE["alt_play"], "map.step_sizes"), "map", "map requires 'step_sizes'"),
    (_set(RUNNABLE["rgd_sphere"], "map.objective.coefficients"), "map.objective",
     "map.objective: a linear objective needs coefficients"),
    (_set(RUNNABLE["gd"], "invariant.weight", {"kind": "coordinate"}), "invariant.weight",
     "invariant.weight: a coordinate weight needs an index"),
    (_set(RUNNABLE["gd"], "invariant.weight", {"kind": "gaussian-bump", "center": [0.0]}),
     "invariant.weight", "invariant.weight: a gaussian-bump weight needs center and width"),
])
def test_a_missing_key_is_named_at_load_by_its_line(tmp_path, doc, json_path, line):
    """A weight that lacks a key now stops a load too, so a scan as well."""
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, doc))
    assert (err.value.json_path, str(err.value)) == (json_path, line)


def test_the_key_table_reads_what_the_schema_allows():
    """Every key that the schema allows in a section whose kind decides its
    keys is read by some kind, and the table reads no other key; its kinds
    are the schema's."""
    properties = _schema()["properties"]
    sections = {"map": properties["map"], "invariant": properties["invariant"]}
    sections["map.objective"] = sections["map"]["properties"]["objective"]
    sections["invariant.weight"] = sections["invariant"]["properties"]["weight"]
    for where, schema in sections.items():
        tag = "name" if where == "map.objective" else "kind"
        read = {key for keys in _READS[where].values() for key in keys.replace("|", " ").split()}
        assert read == schema["properties"].keys() - {tag}, where
        assert sorted(_READS[where]) == sorted(schema["properties"][tag]["enum"]), where


@pytest.mark.parametrize("matrix, states", [
    ([[1]], [[60, -25], ["1/3", "-0.7"]]),
    ([[1, "1/2", -2], ["0.3", 0, "5/7"]], [[1, 2, 3, 4, 5], ["-1/3", "0.25", 0, 7, "1e-3"]]),
])
def test_an_alt_play_config_carries_its_certified_closed_form(tmp_path, matrix, states):
    """load_config builds Phi once, on the certified step of the config's own
    map: its exact values are those of the closed form built from the same
    payoff and step sizes."""
    etas = (Fraction(1, 10), Fraction(1, 5))
    cfg = load_config(write(tmp_path, {
        "map": {"kind": "alt_play", "payoff": {"matrix": matrix}, "step_sizes": ["0.1", "1/5"]},
        "initial_states": states,
    }))
    phi, by_hand = cfg.closed_form, BipartiteInvariant(PayoffData(matrix), *etas)
    assert len(cfg.initial_exact) == len(states)
    for x in cfg.initial_exact:
        assert phi.exact(x) == by_hand.exact(x)
    assert (phi.eta1, phi.eta2) == etas
    assert certified_quadratic(phi, cfg.map)
    assert cfg.map == MapInstance("alt_play", (phi.eta1, phi.eta2), closed_form=phi)
    assert cfg.map.closed_form is phi


@pytest.mark.parametrize("kind", sorted(RUNNABLE.keys() - {"alt_play"}))
def test_a_float_kind_carries_no_closed_form(tmp_path, kind):
    assert load_config(write(tmp_path, RUNNABLE[kind])).closed_form is None
