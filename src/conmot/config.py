"""Run configurations: schema validation and exact-number loading.

A configuration is parsed twice from the same text. The first pass is plain
JSON, checked against the packaged JSON Schema (draft 2020-12) by a validator
for exactly the keywords that schema uses: it reports the error jsonschema's
best_match would, with the same path and message, and the tests hold it to
that. The second pass re-reads every float as a Fraction, so step sizes,
payoff entries, and initial states reach the exact engine without a detour
through float64. Decimal strings like "0.1" or "1/10" are accepted wherever
exactness matters and mean exactly what they say.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ChartViolation, ConfigError, ConmotError
from .rationals import as_fraction

if TYPE_CHECKING:
    from .exact import BipartiteInvariant
    from .invariants import WeightFunction
    from .maps import MapInstance
    from .objectives import ObjectiveSpec
    from .state import Chart, State

__all__ = ["RunConfig", "load_config", "build_weight", "exact_number", "chart_point"]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_PREFIX = "run"


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, already validated. An alt_play config
    carries its closed form Phi, built on the certified step. load_config sets
    map and initial_states at once for every other kind; for alt_play they are
    float views of closed_form and initial_exact, built on first read: the exact
    checks leave them nothing to reject, so its exact commands skip numpy."""

    kind: str
    initial_exact: tuple[tuple[Fraction, ...], ...]
    n_forward: int
    n_backward: int
    invariant_spec: dict | None
    scan_spec: dict | None
    classify_spec: dict | None
    seed: int | None
    tolerance: float
    output_prefix: str
    closed_form: BipartiteInvariant | None = None  # alt_play only

    @cached_property
    def map(self) -> MapInstance:
        from .maps import MapInstance

        return MapInstance("alt_play", closed_form=self.closed_form)

    @cached_property
    def initial_states(self) -> tuple[State, ...]:
        return tuple(chart_point(vals, self.map.chart, f"initial_states[{i}]")[1]
                     for i, vals in enumerate(self.initial_exact))


@cache
def _schema() -> dict:
    """The packaged schema, read once per process; its callers only read it."""
    text = resources.files("conmot").joinpath("schema/run_config.schema.json").read_text()
    return json.loads(text)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# JSON Schema types as draft 2020-12 reads them: a bool is no number, and an
# integral float such as 2.0 is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _number,
    "integer": lambda x: _number(x) and (isinstance(x, int) or x.is_integer()),
}


def _schema_errors(x, schema: dict, path: tuple = ()):
    """The errors jsonschema finds in x against schema, as (path, message),
    in its order: the schema's keys in turn, properties and items descended
    where they stand. A keyword yields only its first error, all best_match
    can pick of its errors. NaN passes minimum and exclusiveMinimum. Other
    keywords and value forms raise NotImplementedError."""
    for key, value in schema.items():
        message = None
        if key in ("$schema", "title"):  # annotations
            pass
        elif key == "properties":
            if isinstance(x, dict):
                for k, sub in value.items():
                    if k in x:
                        yield from _schema_errors(x[k], sub, (*path, k))
        elif key == "items":
            if isinstance(x, list):
                for i, item in enumerate(x):
                    yield from _schema_errors(item, value, (*path, i))
        elif key == "type":
            names = [value] if isinstance(value, str) else value
            if not any(_TYPES[t](x) for t in names):
                message = f"{x!r} is not of type {', '.join(map(repr, names))}"
        elif key == "enum":
            if not (isinstance(x, str) and x in value):
                message = f"{x!r} is not one of {value!r}"
        elif key == "required":
            if isinstance(x, dict):
                message = next((f"{k!r} is a required property" for k in value if k not in x),
                               None)
        elif key == "additionalProperties" and value is False:
            extra = sorted(x.keys() - schema.get("properties", {})) if isinstance(x, dict) else []
            if extra:
                message = ("Additional properties are not allowed (%s %s unexpected)"
                           % (", ".join(map(repr, extra)), "was" if len(extra) == 1 else "were"))
        elif key in ("minItems", "minLength"):
            if isinstance(x, list if key == "minItems" else str) and len(x) < value:
                message = f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key in ("minimum", "exclusiveMinimum"):
            if _number(x) and (x < value if key == "minimum" else x <= value):
                message = (f"{x!r} is less than {'' if key == 'minimum' else 'or equal to '}"
                           f"the minimum of {value!r}")
        else:
            raise NotImplementedError(f"config schema keyword {key!r}: {value!r}")
        if message is not None:
            yield path, message


def _schema_error(doc) -> tuple[str, str] | None:
    """The JSON path and message of the error jsonschema's best_match picks in
    doc, or None for a valid doc: the shallowest error, then the one whose
    path sorts last, then the first found. (best_match next prefers an error
    that breaks its subschema's type, which cannot decide here: the errors
    at one path all come from one subschema on one value.)"""
    best = max(_schema_errors(doc, _schema()), key=lambda e: (-len(e[0]), e[0]), default=None)
    return None if best is None else ("$" + "".join(f"[{p!r}]" for p in best[0]), best[1])


def _json_float(text: str) -> Fraction | int | float:
    """A JSON float literal read exactly; an integral one reads as an int, the
    way the schema's integer fields accept it. A literal whose decimal exponent
    lies outside the float64 range reads as inf, for load_config to reject."""
    try:
        value = as_fraction(text)
    except ValueError:
        return math.inf
    return int(value) if value.denominator == 1 else value


def _nonfinite_path(node, path: str = "") -> str | None:
    """JSON path of the first number in node that is not a finite float64."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return None if abs(node) <= sys.float_info.max else path
    else:
        return None
    return next((p for p in (_nonfinite_path(v, k) for k, v in items) if p is not None), None)


def exact_number(value, json_path: str, *, positive: bool = False) -> Fraction:
    """The exact value of one config number, or a ConfigError naming its path.

    Every number must also fit a float64, since each one is used in float
    arithmetic somewhere; step sizes must be positive.
    """
    try:
        out = as_fraction(value)
        float(out)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"{json_path} is not a finite number: {str(value)[:32]!r}",
                          json_path=json_path) from exc
    if positive and out <= 0:
        raise ConfigError(f"{json_path} is a step size and must be positive: {str(value)!r}",
                          json_path=json_path)
    return out


def _exact_point(values, dimension: int, json_path: str) -> tuple[Fraction, ...]:
    """The exact values of one config point of the given length, or a
    ConfigError naming json_path."""
    vals = tuple(exact_number(v, f"{json_path}[{i}]") for i, v in enumerate(values))
    if len(vals) != dimension:
        raise ConfigError(f"{json_path} has length {len(vals)}, the chart needs "
                          f"{dimension}", json_path=json_path)
    return vals


def chart_point(values, chart: Chart, json_path: str) -> tuple[tuple[Fraction, ...], State]:
    """The exact values of one config point and its State on the chart, or a
    ConfigError naming json_path."""
    import numpy as np

    from .state import State

    vals = _exact_point(values, chart.dimension, json_path)
    try:
        with np.errstate(all="ignore"):  # a chart check rejects what overflows
            return vals, State(np.array([float(v) for v in vals]), chart)
    except ChartViolation as exc:
        raise ConfigError(f"{json_path} is not a point of the {chart.kind} chart: {exc}",
                          json_path=json_path) from exc


def _build_objective(section: dict) -> ObjectiveSpec:
    from .objectives import bump, double_well, linear, quadratic

    if section["name"] == "linear":
        return linear([float(exact_number(c, f"map.objective.coefficients[{i}]"))
                       for i, c in enumerate(section["coefficients"])])
    build, dimension = {"quadratic": (quadratic, 2), "double_well": (double_well, 1),
                        "bump": (bump, 2)}[section["name"]]
    return build(section.get("dimension", dimension))


# The keys each kind (an objective's name) reads, "a|b" one of a and b: a map
# kind or a kind in _NEEDS needs each, and _check_keys refuses any other key.
_READS = {
    "map": {**dict.fromkeys(["gd", "rgd_sphere"], "objective step_size"),
            **dict.fromkeys(["mwu_exp", "mwu_lin"], "objective blocks step_size|step_sizes"),
            "alt_play": "payoff step_sizes"},
    "map.objective": {**dict.fromkeys(["quadratic", "double_well", "bump"], "dimension"),
                      "linear": "coefficients"},
    "invariant": {"closed-form": "defect_horizon", "series": "weight truncation defect_horizon"},
    "invariant.weight": {"constant": "value", "coordinate": "index",
                         "gaussian-bump": "center width"},
}
_NEEDS = {"linear": "coefficients", "coordinate": "an index", "gaussian-bump": "center and width"}


def _check_keys(section: dict, where: str) -> None:
    kind = section["name" if where == "map.objective" else "kind"]
    noun, reads = where.rpartition(".")[2], _READS[where][kind]
    for word in reads.split():
        given = [k for k in word.split("|") if k in section]
        if not given and (where == "map" or kind in _NEEDS):
            raise ConfigError(f"{where}: a {kind} {noun} needs {_NEEDS[kind]}" if kind in _NEEDS
                              else f"{where} requires {word.split('|')[0]!r}", json_path=where)
        if given[1:]:
            raise ConfigError(f"{where}.{given[0]}: the {kind} {noun} reads {given[0]!r} or "
                              f"{given[1]!r}, not both", json_path=f"{where}.{given[0]}")
    for key, value in section.items():  # "kind", or an objective's "name", names the kind
        if key not in ("kind", "name", *reads.replace("|", " ").split()):
            raise ConfigError(f"{where}.{key}: the {kind} {noun} does not read {key!r}",
                              json_path=f"{where}.{key}")
        if f"{where}.{key}" in _READS:
            _check_keys(value, f"{where}.{key}")


def _step_sizes(rates) -> tuple[Fraction, ...]:
    return tuple(exact_number(v, f"map.step_sizes[{i}]", positive=True)
                 for i, v in enumerate(rates))


def _alt_play(section: dict) -> BipartiteInvariant:
    """The closed form Phi of an alt_play map section; a failed certificate raises here."""
    from .exact import BipartiteInvariant, PayoffData

    if len(section["step_sizes"]) != 2:
        raise ConfigError("map.step_sizes must hold exactly two step sizes for alt_play",
                          json_path="map.step_sizes")
    matrix = [[exact_number(v, f"map.payoff.matrix[{i}][{j}]") for j, v in enumerate(row)]
              for i, row in enumerate(section["payoff"]["matrix"])]
    if len({len(row) for row in matrix}) != 1:
        raise ConfigError("map.payoff.matrix rows must all have the same length",
                          json_path="map.payoff.matrix")
    return BipartiteInvariant(PayoffData.from_matrix(matrix), *_step_sizes(section["step_sizes"]))


def _build_map(section: dict) -> MapInstance:
    """The map of a section of any kind but alt_play."""
    from .maps import MapInstance

    objective = _build_objective(section["objective"])
    blocks = tuple(section.get("blocks", ()))  # only mwu has blocks, and may have step_sizes
    rates = (_step_sizes(section["step_sizes"]) if "step_sizes" in section else
             (exact_number(section["step_size"], "map.step_size", positive=True),)
             * (len(blocks) or 1))
    try:
        return MapInstance(section["kind"], rates, objective=objective, blocks=blocks)
    except ConmotError as exc:
        # A map that cannot be built from its section is a config problem.
        raise ConfigError(f"map: {exc}", json_path="map") from exc


def build_weight(section: dict | None, dimension: int) -> WeightFunction:
    """Weight function from an invariant.weight config section on a chart of
    the given dimension."""
    # Imported here: a config that builds no weight loads no invariants or dynamics.
    from .invariants import constant_weight, coordinate_weight, gaussian_bump_weight

    if section is None:
        return constant_weight(1.0)
    if section["kind"] == "constant":
        return constant_weight(float(section.get("value", 1.0)))
    if section["kind"] == "coordinate":
        if section["index"] >= dimension:
            raise ConfigError(f"invariant.weight.index must be below the chart dimension "
                              f"{dimension}", json_path="invariant.weight.index")
        return coordinate_weight(section["index"])
    center = [float(v) for v in section["center"]]
    if len(center) != dimension:
        raise ConfigError(f"invariant.weight.center has length {len(center)}, the chart "
                          f"needs {dimension}", json_path="invariant.weight.center")
    try:
        return gaussian_bump_weight(center, float(section["width"]))
    except ValueError as exc:
        raise ConfigError(f"invariant.weight.width: {exc}",
                          json_path="invariant.weight.width") from exc


def load_config(path) -> RunConfig:
    """Read, validate, and construct a run configuration from a JSON file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        plain = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nest
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = _schema_error(plain)
    if error is not None:
        where, message = error
        raise ConfigError(f"{message} (at {where})", json_path=where)
    # Every number is used in float arithmetic somewhere; 1e400 reads as inf.
    where = _nonfinite_path(plain)
    if where is not None:
        raise ConfigError(f"{where} is not a finite number", json_path=where)

    # Second pass: floats become Fractions (ints when integral); ints and
    # strings are unchanged.
    doc = json.loads(text, parse_float=_json_float)
    where = _nonfinite_path(doc)
    if where is not None:
        raise ConfigError(f"{where} has a decimal exponent outside the float64 range",
                          json_path=where)

    section = doc["map"]
    _check_keys(section, "map")
    if section["kind"] == "alt_play":  # exact checks only: the views come on first read
        map_instance, closed_form = None, _alt_play(section)
        dimension = closed_form.payoff.dimension_x + closed_form.payoff.dimension_y
    else:
        map_instance, closed_form = _build_map(section), None
    points = [chart_point(row, map_instance.chart, f"initial_states[{idx}]") if map_instance
              else (_exact_point(row, dimension, f"initial_states[{idx}]"), None)
              for idx, row in enumerate(doc.get("initial_states", []))]
    prefix = doc.get("output", {}).get("prefix", DEFAULT_PREFIX)
    if any(sep and sep in prefix for sep in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"output.prefix must name files inside the output directory: "
                          f"{prefix!r}", json_path="output.prefix")

    invariant_spec = doc.get("invariant")
    if invariant_spec is not None:
        if (invariant_spec["kind"] == "closed-form") != (section["kind"] == "alt_play"):
            raise ConfigError("invariant.kind must be closed-form for alt_play"
                              if section["kind"] == "alt_play"
                              else "the closed-form invariant only exists for alt_play",
                              json_path="invariant.kind")
        _check_keys(invariant_spec, "invariant")

    cfg = RunConfig(
        kind=section["kind"],
        initial_exact=tuple(vals for vals, _ in points),
        n_forward=int(doc.get("steps", {}).get("forward", 0)),
        n_backward=int(doc.get("steps", {}).get("backward", 0)),
        invariant_spec=invariant_spec,
        scan_spec=doc.get("scan"),
        classify_spec=doc.get("classify"),
        seed=doc.get("seed"),
        tolerance=float(doc.get("tolerance", DEFAULT_TOLERANCE)),
        output_prefix=prefix,
        closed_form=closed_form,
    )
    if map_instance is not None:  # cached_property reads the views from the instance dict
        cfg.__dict__.update(map=map_instance, initial_states=tuple(s for _, s in points))
    return cfg
