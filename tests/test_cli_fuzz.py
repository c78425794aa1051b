"""Config fuzzing of the command line: every run ends in exit 0, 2 or 3.

Documents are built to pass the schema and to set only keys that their
kind reads (every map kind, objective, weight and section, with rare bad
numbers, off-chart points and odd prefixes) and, one time in three,
mutated: a key deleted, a value replaced by arbitrary JSON, or an unknown
key added. Each document runs through every subcommand that reads a
config, with the global seed and tolerance flags drawn as well. The same
documents, and arbitrary JSON, check that config's schema validator reports
the path and message of the error jsonschema's best_match picks. Sizes
stay small (steps and horizons <= 20, truncation <= 8, pairs <= 3) so the
whole test runs in a few seconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conmot.cli import FIGURE_RECIPES, main
from conmot.config import _schema, _schema_error, load_config
from conmot.errors import ConfigError
from conmot.maps import alternating_play
from conmot.state import State

COMMANDS = ("simulate", "invariant", "classify", "scan")
KINDS = ("gd", "mwu_exp", "mwu_lin", "alt_play", "rgd_sphere")


def sometimes(usual, rare):
    """Draw from rare one time in sixteen."""
    return st.integers(0, 15).flatmap(lambda i: rare if i == 0 else usual)


def whole(lo: int, hi: int):
    """An integer field: the schema also accepts an integral float such as 2.0."""
    return st.integers(lo, hi) | st.integers(lo, hi).map(float)


# Exact-number fields take JSON numbers or strings; the rare draws are forms
# the config must reject or that break the arithmetic.
BAD_NUMBER = st.sampled_from(["1e400", "1/0", "abc", "", "-1/10", "0", "1e-300", 1e300,
                              math.inf, 10**400])
NUMBER = sometimes(
    st.integers(-3, 3) | st.floats(-2.0, 2.0) | st.sampled_from(["1/10", "-1/3", "0.25", "2"]),
    BAD_NUMBER,
)
RATE = sometimes(st.sampled_from(["1/10", "0.05", "1/3", "1/4"]) | st.floats(0.01, 0.5),
                 BAD_NUMBER | st.floats(0.5, 4.0))
SMALL = whole(0, 20)
POSITIVE = sometimes(st.floats(1e-9, 10.0), st.sampled_from([1e300, math.inf, 10**400]))
PREFIX = sometimes(st.text("abc_-.", min_size=1, max_size=6),
                   st.text(min_size=1, max_size=8) | st.sampled_from(["a/b", "../x", "p" * 300]))
JSON = st.recursive(
    st.none() | st.booleans() | whole(-3, 20) | st.floats(-20.0, 20.0) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4,
)


@st.composite
def map_section(draw, kinds=KINDS):
    """A map section and the chart it acts on: (kind, dimension or blocks)."""
    kind = draw(st.sampled_from(kinds))
    if kind == "alt_play":
        rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        matrix = [[draw(NUMBER) for _ in range(cols)] for _ in range(rows)]
        section = {"kind": kind, "payoff": {"matrix": matrix},
                   "step_sizes": [draw(RATE) for _ in range(2)]}
        return section, ("euclidean", rows + cols)
    blocks = draw(st.lists(st.integers(2, 3), min_size=1, max_size=2))
    dimension = sum(blocks) if kind.startswith("mwu") else draw(st.integers(1, 3))
    name = draw(st.sampled_from(["quadratic", "double_well", "bump", "linear"]))
    objective = {"name": name, "dimension": draw(st.sampled_from([dimension, float(dimension)]))}
    if name == "linear":
        objective = {"name": name, "coefficients": [draw(NUMBER) for _ in range(dimension)]}
    section = {"kind": kind, "objective": objective}
    if kind == "gd":
        chart = ("euclidean", dimension)
    elif kind == "rgd_sphere":
        chart = ("sphere", dimension)
    else:
        chart = ("simplex", blocks)
        section["blocks"] = draw(st.sampled_from([blocks, [float(b) for b in blocks]]))
        if draw(st.booleans()):
            section["step_sizes"] = [draw(RATE) for _ in blocks]
            return section, chart
    section["step_size"] = draw(RATE)
    return section, chart


@st.composite
def point(draw, chart):
    """Mostly a point of the chart, sometimes one off it or of another length."""
    kind, shape = chart
    if draw(st.integers(0, 15)) == 0:
        return draw(st.lists(NUMBER, min_size=1, max_size=4))
    if kind == "euclidean":
        return [draw(st.floats(-1.5, 1.5)) for _ in range(shape)]
    if kind == "sphere":
        values = [draw(st.floats(0.1, 1.0)) for _ in range(shape)]
        norm = sum(v * v for v in values) ** 0.5
        return [v / norm for v in values]
    out = []
    for size in shape:
        values = [draw(st.floats(0.05, 1.0)) for _ in range(size)]
        out += [v / sum(values) for v in values]
    return out


@st.composite
def document(draw, kinds=KINDS):
    """A config that passes the schema, sections present at random."""
    map_doc, chart = draw(map_section(kinds))
    dimension = chart[1] if chart[0] != "simplex" else sum(chart[1])
    doc = {"map": map_doc, "steps": {"forward": draw(SMALL), "backward": draw(SMALL)}}
    if draw(st.integers(0, 5)):
        doc["initial_states"] = [draw(point(chart)) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.integers(0, 3)):
        weight = draw(st.sampled_from([
            {"kind": "constant", "value": draw(st.floats(-2.0, 2.0))},
            {"kind": "coordinate", "index": draw(whole(0, 3))},
            {"kind": "gaussian-bump", "width": draw(POSITIVE),
             "center": [draw(st.floats(-1.0, 1.0)) for _ in range(draw(sometimes(
                 st.just(dimension), st.integers(1, 3))))]},
        ]))
        closed = map_doc["kind"] == "alt_play"
        kind = draw(sometimes(st.just("closed-form" if closed else "series"),
                              st.sampled_from(["closed-form", "series"])))
        doc["invariant"] = {"kind": kind, "defect_horizon": draw(SMALL)}
        if kind == "series":  # a closed-form invariant reads no weight and no truncation
            doc["invariant"].update(weight=weight, truncation=draw(whole(0, 8)))
    if draw(st.integers(0, 3)):
        doc["scan"] = {"pairs": draw(whole(1, 3)), "horizon": draw(whole(1, 20)),
                       "eps_low": draw(POSITIVE), "eps_high": draw(POSITIVE),
                       "box_halfwidth": draw(POSITIVE),
                       "min_relative_gap": draw(sometimes(st.floats(0.0, 0.01),
                                                          st.floats(0.0, 2.0)))}
    if draw(st.integers(0, 3)):
        doc["classify"] = {"x": draw(point(chart)), "y": draw(point(chart)),
                           "max_iterations": draw(SMALL), "tolerance": draw(POSITIVE)}
    if draw(st.integers(0, 3)):
        doc["seed"] = draw(whole(0, 2**32))
    if draw(st.booleans()):
        doc["tolerance"] = draw(POSITIVE)
    if draw(st.booleans()):
        doc["output"] = {"prefix": draw(PREFIX)}
    return doc


def _paths(node, prefix=()):
    """Every key or index path inside a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated(draw, kinds=KINDS):
    doc = draw(document(kinds))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        parent = doc
        for key in parents:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "replace", "add"]))
        if action == "delete":
            del parent[last]
        elif action == "replace":
            parent[last] = draw(JSON)
        elif isinstance(parent, dict):
            parent[draw(st.text(min_size=1, max_size=4))] = draw(JSON)
    return doc


DOCUMENTS = st.one_of(document(), document(), mutated())
ALT_PLAY_DOCUMENTS = st.one_of(document(("alt_play",)), mutated(("alt_play",)))
FLAGS = st.lists(
    st.one_of(
        sometimes(st.integers(0, 2**32), st.integers(-3, 3)).map(lambda v: f"--seed={v}"),
        sometimes(st.floats(1e-12, 1.0),
                  st.floats(-1.0, 1.0) | st.sampled_from([math.nan, math.inf]))
        .map(lambda v: f"--tolerance={v!r}"),
    ),
    max_size=2,
)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS, flags=FLAGS)
def test_every_subcommand_exits_zero_two_or_three(doc, flags):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        for command in COMMANDS:
            argv = ["--config", str(config), "--out", str(Path(tmp) / "out"),
                    *flags, command]
            assert _run(argv) in (0, 2, 3), (command, doc)


@pytest.mark.parametrize("which", sorted(FIGURE_RECIPES))
def test_figures_reads_no_config_and_exits_zero(tmp_path, which):
    assert _run(["--out", str(tmp_path), "figures", which]) == 0


GD = {"kind": "gd", "objective": {"name": "quadratic"}, "step_size": "0.1"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=DOCUMENTS | JSON)
@example(doc={"map": GD, "steps": {"forward": 2.0}})
@example(doc={"map": GD, "steps": {"forward": True}})
@example(doc={"map": GD, "tolerance": True})
@example(doc={"map": GD, "tolerance": math.nan})
@example(doc={"map": GD, "scan": {"pairs": 1, "horizon": 1, "min_relative_gap": math.nan}})
@example(doc={"map": GD, "tolerance": 0})
@example(doc={"map": GD, "output": {"prefix": ""}})
@example(doc={"map": GD, "output": {"prefix": "\U0001d11e"}})  # one code point, two UTF-16 units
@example(doc={"map": GD, "unknown": 1})
def test_the_small_validator_agrees_with_jsonschema(doc):
    """Our (path, message) is the error jsonschema's best_match picks, and
    None exactly when jsonschema calls the document valid."""
    plain = json.loads(json.dumps(doc))
    schema = _schema()
    best = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(plain))
    theirs = None if best is None else (
        "$" + "".join(f"[{p!r}]" for p in best.absolute_path), best.message)
    assert _schema_error(plain) == theirs


ALT = {"kind": "alt_play", "payoff": {"matrix": [[1, "1/2", -2]]}, "step_sizes": ["1/10", "1/5"]}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=ALT_PLAY_DOCUMENTS)
@example(doc={"map": ALT, "initial_states": [[1, 2]]})
@example(doc={"map": dict(ALT, step_sizes=["0", "1/5"]), "initial_states": [[1, 2, 3, 4]]})
@example(doc={"map": dict(ALT, step_sizes=["1/10", "-1/5"])})
@example(doc={"map": dict(ALT, payoff={"matrix": [["1e400", 1, 1]]})})
@example(doc={"map": ALT, "initial_states": [[1, "9" * 400, 3, 4]]})
def test_an_accepted_alt_play_config_builds_its_float_views(doc):
    """An alt_play config is checked in exact arithmetic only, and its float
    map and states are built on first read: whatever load_config accepts,
    they must not reject. What it rejects is exit 2 with its JSON path."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(doc))
        try:
            cfg = load_config(config)
        except ConfigError as exc:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["--config", str(config), "--out", str(Path(tmp) / "out"), "simulate"])
            assert rc == 2
            assert exc.json_path is not None and exc.json_path in err.getvalue()
            assert "Traceback" not in err.getvalue()
            return
    m = cfg.map
    assert m == alternating_play(cfg.closed_form.payoff, cfg.closed_form.eta1, cfg.closed_form.eta2)
    assert m.chart.dimension == sum(m.payoff.matrix.shape)
    assert len(cfg.initial_states) == len(cfg.initial_exact)
    for state, vals in zip(cfg.initial_states, cfg.initial_exact):
        expected = State(np.array([float(v) for v in vals]), m.chart)
        assert state.chart == expected.chart
        assert state.coordinates.tobytes() == expected.coordinates.tobytes()
