"""Command line interface.

Five subcommands over one JSON config: simulate (trajectory CSVs plus a
summary), invariant (evaluate and audit a constant of motion), classify (are
two points on one orbit), scan (seeded scrambled-pair survey), and figures
(named hyperbolic-orbit datasets rendered from exact arithmetic, no config
needed). Output is deterministic byte for byte given the same config and
seed: floats are written with repr and JSON keys are sorted.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .chaos import (
    EPS_HIGH, EPS_LOW, _relative_gap, batched_pair_reports, level_set_confinement, same_orbit,
)
from .config import RunConfig, build_weight, chart_point, load_config
from .dynamics import Orbit
from .errors import ConfigError, ConmotError
from .exact import ExactAltOrbit
from .invariants import (
    BipartiteInvariant,
    invariance_defect,
    make_series_invariant,
    series_along_orbit,
    series_invariant,
)
from .maps import MapInstance, alternating_play
from .objectives import PayoffData
from .rationals import as_float
from .state import State, sample_chart

__all__ = ["main", "build_parser"]

SCAN_BOX_HALFWIDTH = 1.0
SCAN_MIN_RELATIVE_GAP = 1e-3
CLASSIFY_MAX_ITERATIONS = 1000

FIGURE_RECIPES = {
    "fig1": {
        "eta1": Fraction(1, 10),
        "eta2": Fraction(1, 5),
        "initial_states": [(60, -25), (-20, 2), (10, -50)],
    },
    "fig2": {
        "eta1": Fraction(1, 20),
        "eta2": Fraction(1, 50),
        "initial_states": [(-14, -5), (5, -10), (5, -15)],
    },
}
FIGURE_FORWARD = 160
FIGURE_BACKWARD = 40
FIGURE_GRID = 401
FIGURE_LEVEL_TOL = 1e-9


def _add_global_flags(parser: argparse.ArgumentParser, *, in_subcommand: bool) -> None:
    """The four global flags, accepted before or after the subcommand."""
    # Inside a subparser the defaults are suppressed so an omitted flag does
    # not overwrite a value parsed at the top level.
    d = {"default": argparse.SUPPRESS} if in_subcommand else {}
    parser.add_argument(
        "--config", type=Path, help="path to a JSON run configuration",
        **({"default": None} if not in_subcommand else d),
    )
    parser.add_argument(
        "--out", type=Path, help="directory for output files",
        **({"default": Path(".")} if not in_subcommand else d),
    )
    parser.add_argument(
        "--seed", type=int, help="override the config seed",
        **({"default": None} if not in_subcommand else d),
    )
    parser.add_argument(
        "--tolerance", type=float, help="override the config tolerance",
        **({"default": None} if not in_subcommand else d),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conmot",
        description=(
            "invertible optimization dynamics, their constants of motion, "
            "and chaos diagnostics"
        ),
    )
    _add_global_flags(parser, in_subcommand=False)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "write trajectory CSVs and a summary JSON",
        "invariant": "evaluate an invariant and audit its drift",
        "classify": "decide whether two points share an orbit",
        "scan": "seeded scrambled-pair scan over random pairs",
        "figures": "exact orbit and level-curve datasets for the named figure",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name == "figures":
            p.add_argument("which", choices=sorted(FIGURE_RECIPES))
        _add_global_flags(p, in_subcommand=True)
    return parser


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value) -> str:
    return repr(float(value))


def _jsonable(obj):
    """Make a structure strict-JSON safe; non-finite floats become strings."""
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(float(v)) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _csv_header(dimension: int) -> list[str]:
    return ["t"] + [f"x_{i}" for i in range(dimension)] + ["f", "phi", "defect"]


# ---------------------------------------------------------------------------
# simulate


def _exact_rows(payoff: PayoffData, eta1, eta2, init, n_forward: int, n_backward: int):
    """Rows (t, xy, f, phi, defect) for t in [-n_backward, n_forward] of one
    exact orbit, read one step at a time, and the orbit's exact level."""
    orb = ExactAltOrbit(payoff, eta1, eta2, init)
    collected = []
    for t in range(1, n_backward + 1):
        orb.retreat()
        collected.append((-t, orb.xy_float(), orb.payoff_value_float(), orb.phi_float(),
                          orb.phi_defect_float()))
    # States are canonical by position, so the same engine serves the forward rows.
    orb.advance(n_backward)
    level = orb.phi_fraction()
    rows = collected[::-1]
    rows.append((0, orb.xy_float(), orb.payoff_value_float(), orb.phi_float(), 0.0))
    for t in range(1, n_forward + 1):
        orb.advance()
        rows.append((t, orb.xy_float(), orb.payoff_value_float(), orb.phi_float(),
                     orb.phi_defect_float()))
    return rows, level


def _csv_rows(rows) -> list[list[str]]:
    return [
        [str(t)] + [_fmt(v) for v in coords] + [_fmt(f), _fmt(phi), _fmt(defect)]
        for t, coords, f, phi, defect in rows
    ]


def _series_spec(cfg: RunConfig):
    """(weight, truncation) of a series invariant section, or None."""
    spec = cfg.invariant_spec
    if spec is None or spec["kind"] != "series":
        return None
    weight = build_weight(spec.get("weight"), cfg.map.chart.dimension)
    return weight, int(spec.get("truncation", 32))


def _float_rows(cfg: RunConfig, index: int):
    orb = Orbit(cfg.map, cfg.initial_states[index])
    ts = orb.segment(cfg.n_forward, cfg.n_backward)
    series = _series_spec(cfg)
    phis = ([math.nan] * len(ts) if series is None
            else series_along_orbit(orb, None, series[0], series[1], ts))
    phi0 = phis[ts.index(0)]
    scale = 1.0 + abs(phi0)
    obj = cfg.map.objective
    rows = []
    for t, phi_t in zip(ts, phis):
        state = orb[t]
        f_val = float(obj.evaluate(state.coordinates)) if obj is not None else math.nan
        defect = 0.0 if t == 0 and series is not None else abs(phi_t - phi0) / scale
        rows.append((t, state.coordinates, f_val, phi_t, defect))
    return rows, ts


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    dimension = cfg.map.chart.dimension
    if not cfg.initial_states:
        raise ConfigError("simulate needs initial_states")
    summary = {"map_kind": cfg.map.kind, "trajectories": []}
    for i in range(len(cfg.initial_states)):
        if cfg.map.kind == "alt_play":
            raw_rows, _ = _exact_rows(cfg.map.payoff, *cfg.map.step_sizes,
                                      cfg.initial_exact[i], cfg.n_forward, cfg.n_backward)
            fp_fwd = fp_back = False
        else:
            raw_rows, ts = _float_rows(cfg, i)
            # A side cut short of what was asked stopped at a fixed point.
            fp_fwd, fp_back = ts[-1] < cfg.n_forward, -ts[0] < cfg.n_backward
        path = out_dir / f"{cfg.output_prefix}_trajectory_{i}.csv"
        _write_csv(path, _csv_header(dimension), _csv_rows(raw_rows))
        defects = [d for *_rest, d in raw_rows if not math.isnan(d)]
        summary["trajectories"].append(
            {
                "initial_index": i,
                "file": path.name,
                "rows": len(raw_rows),
                "final_state": [float(v) for v in raw_rows[-1][1]],
                "max_defect": max(defects) if defects else "nan",
                "fixed_point_forward": fp_fwd,
                "fixed_point_backward": fp_back,
            }
        )
    _write_json(out_dir / f"{cfg.output_prefix}_summary.json", summary)
    print(f"wrote {len(cfg.initial_states)} trajectories to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# invariant


def cmd_invariant(cfg: RunConfig, out_dir: Path) -> int:
    spec = cfg.invariant_spec
    if spec is None:
        raise ConfigError("the invariant command needs an invariant section")
    if not cfg.initial_states:
        raise ConfigError("the invariant command needs initial_states")
    results = []
    if spec["kind"] == "closed-form":
        phi = BipartiteInvariant(cfg.map.payoff, *cfg.map.step_sizes)
        horizon = int(spec.get("defect_horizon", 0))
        for i, exact_init in enumerate(cfg.initial_exact):
            value = phi.exact(exact_init)
            entry = {
                "initial_index": i,
                "value": as_float(value),
                "value_exact": str(value),
            }
            if horizon > 0:
                entry["defect_horizon"] = horizon
                entry["max_defect"] = invariance_defect(
                    phi, cfg.map, cfg.initial_states[i], horizon
                )
            results.append(entry)
    else:
        weight, truncation = _series_spec(cfg)
        horizon = int(spec.get("defect_horizon", 0))
        for i, state in enumerate(cfg.initial_states):
            report = series_invariant(
                cfg.map, None, weight, state, truncation, defect_horizon=horizon
            )
            results.append({"initial_index": i, **dataclasses.asdict(report)})
    payload = {"kind": spec["kind"], "map_kind": cfg.map.kind, "results": results}
    path = out_dir / f"{cfg.output_prefix}_invariant.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _classification_invariants(cfg: RunConfig):
    if cfg.map.kind == "alt_play":
        return (BipartiteInvariant(cfg.map.payoff, *cfg.map.step_sizes),)
    series = _series_spec(cfg)
    if series is None:
        return ()
    return (make_series_invariant(cfg.map, None, series[0], series[1]),)


def cmd_classify(cfg: RunConfig, out_dir: Path) -> int:
    spec = cfg.classify_spec
    if spec is None:
        raise ConfigError("the classify command needs a classify section")
    points = {key: chart_point(spec[key], cfg.map.chart, f"classify.{key}")[1]
              for key in ("x", "y")}
    verdict = same_orbit(
        cfg.map,
        points["x"],
        points["y"],
        int(spec.get("max_iterations", CLASSIFY_MAX_ITERATIONS)),
        float(spec.get("tolerance", cfg.tolerance)),
        phis=_classification_invariants(cfg),
    )
    path = out_dir / f"{cfg.output_prefix}_classify.json"
    _write_json(path, verdict)
    print(f"{verdict.answer} (details in {path})")
    return 0


# ---------------------------------------------------------------------------
# scan


def _sample_scan_state(cfg: RunConfig, rng: np.random.Generator, halfwidth: float) -> State:
    chart = cfg.map.chart
    if chart.kind in ("euclidean", "bipartite-pair"):
        return State(rng.uniform(-halfwidth, halfwidth, chart.dimension), chart)
    return sample_chart(chart, rng)


def cmd_scan(cfg: RunConfig, out_dir: Path, seed: int | None) -> int:
    spec = cfg.scan_spec
    if spec is None:
        raise ConfigError("the scan command needs a scan section")
    if seed is None:
        raise ConfigError("scan needs a seed (config key or --seed)")
    pairs_wanted = int(spec["pairs"])
    horizon = int(spec["horizon"])
    eps_low = float(spec.get("eps_low", EPS_LOW))
    eps_high = float(spec.get("eps_high", EPS_HIGH))
    halfwidth = float(spec.get("box_halfwidth", SCAN_BOX_HALFWIDTH))
    if not math.isfinite(2.0 * halfwidth):  # the sampler draws from a box of width 2h
        raise ConfigError("scan.box_halfwidth must be below half the float range",
                          json_path="scan.box_halfwidth")
    min_gap = float(spec.get("min_relative_gap", SCAN_MIN_RELATIVE_GAP))

    phi = None
    if cfg.map.kind == "alt_play":
        phi = BipartiteInvariant(cfg.map.payoff, *cfg.map.step_sizes)

    rng = np.random.default_rng(seed)
    kept = []
    attempts = 0
    max_attempts = 200 * pairs_wanted
    while len(kept) < pairs_wanted and attempts < max_attempts:
        attempts += 1
        x = _sample_scan_state(cfg, rng, halfwidth)
        y = _sample_scan_state(cfg, rng, halfwidth)
        if np.array_equal(x.coordinates, y.coordinates):
            continue
        if phi is not None and _relative_gap(phi, x, y) <= min_gap:
            continue
        kept.append((x, y))
    if len(kept) < pairs_wanted:
        raise ConmotError(
            f"could not sample {pairs_wanted} cross-level pairs in "
            f"{max_attempts} attempts; widen the box or lower min_relative_gap"
        )

    reports = batched_pair_reports(
        cfg.map, kept, horizon, eps_low=eps_low, eps_high=eps_high, phi=phi
    )
    counts: dict[str, int] = {}
    pair_entries = []
    for idx, report in enumerate(reports):
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        pair_entries.append(
            {
                "index": idx,
                "x": list(report.x.coordinates),
                "y": list(report.y.coordinates),
                "liminf_estimate": report.liminf_estimate,
                "limsup_estimate": report.limsup_estimate,
                "invariant_gap": report.invariant_gap,
                "verdict": report.verdict,
            }
        )
    payload = {
        "map_kind": cfg.map.kind,
        "seed": seed,
        "horizon": horizon,
        "eps_low": eps_low,
        "eps_high": eps_high,
        "box_halfwidth": halfwidth,
        "min_relative_gap": min_gap,
        "pairs": len(kept),
        "verdict_counts": dict(sorted(counts.items())),
        "pair_reports": pair_entries,
    }
    if phi is not None:
        payload["confinement"] = level_set_confinement(
            cfg.map, phi, kept, horizon,
            tolerance=cfg.tolerance, eps_low=eps_low, eps_high=eps_high,
            reports=reports,
        )
    path = out_dir / f"{cfg.output_prefix}_scan.json"
    _write_json(path, payload)
    ordered = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"scanned {len(kept)} pairs: {ordered}")
    return 0


# ---------------------------------------------------------------------------
# figures


def _figure_map(which: str) -> MapInstance:
    recipe = FIGURE_RECIPES[which]
    payoff = PayoffData.from_matrix([[Fraction(1)]])
    return alternating_play(payoff, recipe["eta1"], recipe["eta2"])


def _level_curve_rows(eta1: Fraction, eta2: Fraction, level: Fraction, window: float):
    """Sample y(x) on Phi(x, y) = level; two branches of a quadratic in y."""
    e1, e2, c = float(eta1), float(eta2), float(level)
    phi = BipartiteInvariant(PayoffData.from_matrix([[Fraction(1)]]), eta1, eta2)
    rows = []
    tol = FIGURE_LEVEL_TOL * (1.0 + abs(c))
    for x in np.linspace(-window, window, FIGURE_GRID):
        x = float(x)
        disc = (e2 * x) ** 2 + 4.0 * e2 * (x * x / e1 - c)
        if disc < 0.0:
            rows.append([_fmt(x), "nan", "nan"])
            continue
        root = math.sqrt(disc)
        y_hi = 0.5 * (e2 * x + root)
        y_lo = 0.5 * (e2 * x - root)
        for y in (y_hi, y_lo):
            err = abs(phi(np.array([x, y])) - c)
            if err > tol:
                raise ConmotError(
                    f"level-curve point ({x}, {y}) misses its level by {err:.3e}"
                )
        rows.append([_fmt(x), _fmt(y_hi), _fmt(y_lo)])
    return rows


def cmd_figures(which: str, out_dir: Path) -> int:
    recipe = FIGURE_RECIPES[which]
    map_instance = _figure_map(which)
    payoff = map_instance.payoff
    e1, e2 = map_instance.step_sizes
    levels = []
    window = 1.5 * max(
        abs(float(v)) for init in recipe["initial_states"] for v in init
    )
    for i, init in enumerate(recipe["initial_states"]):
        rows, level = _exact_rows(payoff, e1, e2, [Fraction(v) for v in init],
                                  FIGURE_FORWARD, FIGURE_BACKWARD)
        levels.append(level)
        _write_csv(out_dir / f"{which}_orbit_{i}.csv", _csv_header(2), _csv_rows(rows))
        _write_csv(
            out_dir / f"{which}_levels_{i}.csv",
            ["x", "y_plus", "y_minus"],
            _level_curve_rows(e1, e2, level, window),
        )

    summary = {
        "figure": which,
        "payoff": [[1.0]],
        "step_sizes": [str(e1), str(e2)],
        "forward_steps": FIGURE_FORWARD,
        "backward_steps": FIGURE_BACKWARD,
        "window_halfwidth": window,
        "orbits": [
            {
                "initial_state": [float(v) for v in init],
                "level": float(level),
                "level_exact": str(level),
                "max_defect": 0.0,
            }
            for init, level in zip(recipe["initial_states"], levels)
        ],
    }
    _write_json(out_dir / f"{which}_summary.json", summary)
    exact_strs = ", ".join(str(v) for v in levels)
    print(f"{which}: levels {exact_strs}; files in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _failure_message(exc: ConmotError) -> str:
    if exc.step_index is None:
        return str(exc)
    return f"{exc} (step index {exc.step_index})"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every numerical failure is caught by a finiteness, chart or region check
    # and reported as one error line; numpy's warnings would only add source
    # text to stderr before it.
    with np.errstate(all="ignore"):
        return _run(args)


def _run(args) -> int:
    out_dir = args.out
    try:
        # The flags obey the schema's rules for the config keys they override.
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        if args.tolerance is not None and not 0.0 < args.tolerance < math.inf:
            raise ConfigError("--tolerance must be positive and finite")
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "figures":
            return cmd_figures(args.which, out_dir)
        if args.config is None:
            raise ConfigError(f"the {args.command} command needs --config")
        cfg = load_config(args.config)
        if args.tolerance is not None:
            cfg = dataclasses.replace(cfg, tolerance=args.tolerance)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "invariant":
            return cmd_invariant(cfg, out_dir)
        if args.command == "classify":
            return cmd_classify(cfg, out_dir)
        seed = args.seed if args.seed is not None else cfg.seed
        return cmd_scan(cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The output directory or a file name built from the prefix is unusable.
        print(f"error: configuration: cannot write the output: {exc}", file=sys.stderr)
        return 2
    except ConmotError as exc:
        print(f"error: {_failure_message(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
