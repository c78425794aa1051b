"""Command line interface.

Five subcommands over one JSON config: simulate (trajectory CSVs plus a
summary), invariant (evaluate and audit a constant of motion), classify (are
two points on one orbit), scan (seeded scrambled-pair survey), and figures
(named hyperbolic-orbit datasets rendered from exact arithmetic, no config
needed). Output is deterministic byte for byte given the same config and
seed: floats are written with repr and JSON keys are sorted.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.

At module level only the standard library, ``errors`` and ``rationals`` are
imported; each command imports what it runs. ``figures``, ``simulate`` on
alt_play and a closed-form ``invariant`` run on the exact engine alone and
never load numpy. ``figures`` and alt_play ``simulate`` read their rows on
every usable CPU, in forked children that end before the command returns.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import marshal
import math
import os
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, ConmotError
from .rationals import as_float

if TYPE_CHECKING:
    from .config import RunConfig
    from .exact import PayoffData

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
    for flag, kind, default, help_text in (
            ("--config", Path, None, "path to a JSON run configuration"),
            ("--out", Path, Path("."), "directory for output files"),
            ("--seed", int, None, "override the config seed"),
            ("--tolerance", float, None, "override the config tolerance")):
        parser.add_argument(flag, type=kind, help=help_text,
                            default=argparse.SUPPRESS if in_subcommand else default)


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
    np = sys.modules.get("numpy")  # only a process that imported numpy holds its values
    if np is not None:
        if isinstance(obj, np.ndarray):
            return [_jsonable(float(v)) for v in obj]
        if isinstance(obj, np.floating):
            obj = float(obj)
        elif isinstance(obj, np.integer):
            return int(obj)
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


def _write_json(path: Path, payload) -> None:
    """Stream the document to the file: no second copy of it as one string."""
    doc = _jsonable(payload)
    with path.open("w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _csv_header(dimension: int) -> list[str]:
    return ["t"] + [f"x_{i}" for i in range(dimension)] + ["f", "phi", "defect"]


# ---------------------------------------------------------------------------
# simulate


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share_times(n_forward: int, n_backward: int, share: int, shares: int) -> list[int]:
    """The t in [-n_backward, n_forward] with t % shares == share, in walking
    order: outward from t = 0 on each side, so each move is one product with
    the engine's cached M^shares or M_inv^shares and never a division."""
    ts = [t for t in range(-n_backward, n_forward + 1) if t % shares == share]
    return [t for t in reversed(ts) if t < 0] + [t for t in ts if t >= 0]


def _read_share(orbits, n_forward: int, n_backward: int, share: int, shares: int) -> list:
    """Rows (t, xy, f, phi, defect) of every orbit at the times of one share.
    Every row checks phi against the start level in exact integers; at t = 0
    the check returns (phi_0, 0.0)."""
    times = _share_times(n_forward, n_backward, share, shares)
    out = []
    for orb in orbits:
        rows = []
        for t in times:
            orb.advance(t - orb.position)
            rows.append((t, orb.xy_float(), orb.payoff_value_float(), *orb.phi_and_defect_float()))
        out.append(rows)
    return out


def _fork_share(orbits, n_forward: int, n_backward: int, share: int, shares: int):
    """(pid, read end of its pipe) of a child that reads one share, or None
    when no pipe or process can be made. The child sends its rows with
    marshal, which round-trips floats bit for bit, and ends in os._exit:
    it never returns into the caller, whatever its share raised."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = marshal.dumps(_read_share(orbits, n_forward, n_backward, share, shares))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _received_share(payload: bytes, status: int, n_orbits: int, times: list[int]):
    """A child's rows, or None if it exited non-zero or its payload is short
    or does not hold one row per time of its share for every orbit."""
    if os.waitstatus_to_exitcode(status) != 0:
        return None
    try:
        part = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):
        return None
    if len(part) != n_orbits or any([row[0] for row in rows] != times for rows in part):
        return None
    return part


def _exact_orbits(payoff: PayoffData, eta1, eta2, inits, n_forward: int, n_backward: int):
    """Rows (t, xy, f, phi, defect) for t in [-n_backward, n_forward] of the
    exact orbit of each initial state, and the exact level of each orbit.

    The rows are read in P strided shares, P the usable CPUs capped at the
    rows of one orbit: share j reads the rows t = j (mod P) of every orbit.
    Share 0 is read here and shares 1..P-1 in forked children; a share whose
    child could not start or did not deliver is read here too. The integers
    at a position do not depend on the walk that reached it, so the rows are
    the same bytes for every P. The command line runs one thread, so a fork
    copies no lock held by another."""
    from .exact import ExactAltOrbit

    orbits = [ExactAltOrbit(payoff, eta1, eta2, init) for init in inits]
    levels = [orb.phi_fraction() for orb in orbits]
    n_rows = n_forward + n_backward + 1
    shares = min(_usable_cpus() if hasattr(os, "fork") else 1, n_rows)
    workers = {}
    try:
        for share in range(1, shares):
            worker = _fork_share(orbits, n_forward, n_backward, share, shares)
            if worker is not None:
                workers[share] = worker
        parts = [_read_share(orbits, n_forward, n_backward, 0, shares)]
        for share in range(1, shares):
            part = None
            if share in workers:
                pid, pipe = workers[share]
                # Drain before the wait: a payload larger than the pipe's
                # buffer leaves the child blocked in its write until read.
                payload = pipe.read()
                pipe.close()
                _, status = os.waitpid(pid, 0)
                del workers[share]
                part = _received_share(payload, status, len(orbits),
                                       _share_times(n_forward, n_backward, share, shares))
            if part is None:
                part = _read_share(orbits, n_forward, n_backward, share, shares)
            parts.append(part)
    finally:
        if workers:  # left only when this process raised: its rows are not needed
            import signal

            for pid, pipe in workers.values():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    rows = [[None] * n_rows for _ in orbits]
    for part in parts:
        for merged, share_rows in zip(rows, part):
            for row in share_rows:
                merged[row[0] + n_backward] = row
    return rows, levels


def _csv_rows(rows) -> list[list[str]]:
    return [
        [str(t)] + [_fmt(v) for v in coords] + [_fmt(f), _fmt(phi), _fmt(defect)]
        for t, coords, f, phi, defect in rows
    ]


def _series_spec(cfg: RunConfig):
    """(weight, truncation) of a series invariant section, or None."""
    from .config import build_weight

    spec = cfg.invariant_spec
    if spec is None or spec["kind"] != "series":
        return None
    weight = build_weight(spec.get("weight"), cfg.map.chart.dimension)
    return weight, int(spec.get("truncation", 32))


def _float_rows(cfg: RunConfig, index: int):
    from .dynamics import Orbit
    from .invariants import series_along_orbit

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
    if not cfg.initial_exact:
        raise ConfigError("simulate needs initial_states")
    summary = {"map_kind": cfg.kind, "trajectories": []}
    exact_rows = None
    if cfg.kind == "alt_play":
        exact_rows, _ = _exact_orbits(cfg.payoff, *cfg.step_sizes, cfg.initial_exact,
                                      cfg.n_forward, cfg.n_backward)
    for i, exact_init in enumerate(cfg.initial_exact):
        if exact_rows is not None:
            raw_rows = exact_rows[i]
            fp_fwd = fp_back = False
        else:
            raw_rows, ts = _float_rows(cfg, i)
            # A side cut short of what was asked stopped at a fixed point.
            fp_fwd, fp_back = ts[-1] < cfg.n_forward, -ts[0] < cfg.n_backward
        path = out_dir / f"{cfg.output_prefix}_trajectory_{i}.csv"
        _write_csv(path, _csv_header(len(exact_init)), _csv_rows(raw_rows))
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
    print(f"wrote {len(cfg.initial_exact)} trajectories to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# invariant


def cmd_invariant(cfg: RunConfig, out_dir: Path) -> int:
    from .exact import BipartiteInvariant, certified_quadratic

    spec = cfg.invariant_spec
    if spec is None:
        raise ConfigError("the invariant command needs an invariant section")
    if not cfg.initial_exact:
        raise ConfigError("the invariant command needs initial_states")
    results = []
    horizon = int(spec.get("defect_horizon", 0))
    if spec["kind"] == "closed-form":
        phi = BipartiteInvariant(cfg.payoff, *cfg.step_sizes)
        # A closed-form section belongs to an alt_play config, whose exact
        # certificate makes the defect 0.0 at every horizon of every orbit.
        if horizon > 0 and not certified_quadratic(phi, cfg):
            raise ConmotError("the exact conservation certificate failed")
        for i, exact_init in enumerate(cfg.initial_exact):
            value = phi.exact(exact_init)
            entry = {
                "initial_index": i,
                "value": as_float(value),
                "value_exact": str(value),
            }
            if horizon > 0:
                entry["defect_horizon"] = horizon
                entry["max_defect"] = 0.0
            results.append(entry)
    else:
        from .invariants import series_invariant

        weight, truncation = _series_spec(cfg)
        for i, state in enumerate(cfg.initial_states):
            report = series_invariant(
                cfg.map, None, weight, state, truncation, defect_horizon=horizon
            )
            results.append({"initial_index": i, **dataclasses.asdict(report)})
    payload = {"kind": spec["kind"], "map_kind": cfg.kind, "results": results}
    path = out_dir / f"{cfg.output_prefix}_invariant.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _classification_invariants(cfg: RunConfig):
    from .exact import BipartiteInvariant
    from .invariants import make_series_invariant

    if cfg.kind == "alt_play":
        return (BipartiteInvariant(cfg.payoff, *cfg.step_sizes),)
    series = _series_spec(cfg)
    if series is None:
        return ()
    return (make_series_invariant(cfg.map, None, series[0], series[1]),)


def cmd_classify(cfg: RunConfig, out_dir: Path) -> int:
    from .chaos import same_orbit
    from .config import chart_point

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


def _sample_scan_state(cfg: RunConfig, rng, halfwidth: float):
    """One State drawn by the numpy Generator rng: uniform in the box of the
    given halfwidth on a flat chart, else from the chart's own sampler."""
    from .state import State, sample_chart

    chart = cfg.map.chart
    if chart.kind in ("euclidean", "bipartite-pair"):
        return State(rng.uniform(-halfwidth, halfwidth, chart.dimension), chart)
    return sample_chart(chart, rng)


def cmd_scan(cfg: RunConfig, out_dir: Path, seed: int | None) -> int:
    import numpy as np

    from .chaos import EPS_HIGH, EPS_LOW, _relative_gap, batched_pair_reports, level_set_confinement
    from .exact import BipartiteInvariant

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
    if cfg.kind == "alt_play":
        phi = BipartiteInvariant(cfg.payoff, *cfg.step_sizes)

    rng = np.random.default_rng(seed)
    kept, gaps = [], []
    attempts = 0
    max_attempts = 200 * pairs_wanted
    while len(kept) < pairs_wanted and attempts < max_attempts:
        attempts += 1
        x = _sample_scan_state(cfg, rng, halfwidth)
        y = _sample_scan_state(cfg, rng, halfwidth)
        if np.array_equal(x.coordinates, y.coordinates):
            continue
        gap = _relative_gap(phi, x, y)  # nan without phi, and nan <= min_gap is False
        if gap <= min_gap:
            continue
        kept.append((x, y))
        gaps.append(gap)
    if len(kept) < pairs_wanted:
        raise ConmotError(
            f"could not sample {pairs_wanted} cross-level pairs in "
            f"{max_attempts} attempts; widen the box or lower min_relative_gap"
        )

    # Each pair's gap is the filter's: the reports are made without phi.
    reports = [
        dataclasses.replace(report, invariant_gap=gap)
        for report, gap in zip(
            batched_pair_reports(cfg.map, kept, horizon, eps_low=eps_low, eps_high=eps_high),
            gaps,
        )
    ]
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
        "map_kind": cfg.kind,
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


def _figure_grid(window: float) -> list[float]:
    """FIGURE_GRID evenly spaced points on [-window, window], computed as
    numpy.linspace computes them: i * step + start, the last point set to
    stop."""
    start, stop = -window, window
    step = (stop - start) / (FIGURE_GRID - 1)
    return [i * step + start for i in range(FIGURE_GRID - 1)] + [stop]


def _level_curve_rows(phi, level: Fraction, window: float):
    """Sample y(x) on Phi(x, y) = level; two branches of a quadratic in y."""
    e1, e2, c = float(phi.eta1), float(phi.eta2), float(level)
    rows = []
    tol = FIGURE_LEVEL_TOL * (1.0 + abs(c))
    for x in _figure_grid(window):
        disc = (e2 * x) ** 2 + 4.0 * e2 * (x * x / e1 - c)
        if disc < 0.0:
            rows.append([_fmt(x), "nan", "nan"])
            continue
        root = math.sqrt(disc)
        y_hi = 0.5 * (e2 * x + root)
        y_lo = 0.5 * (e2 * x - root)
        for y in (y_hi, y_lo):
            err = abs(phi((x, y)) - c)
            if err > tol:
                raise ConmotError(
                    f"level-curve point ({x}, {y}) misses its level by {err:.3e}"
                )
        rows.append([_fmt(x), _fmt(y_hi), _fmt(y_lo)])
    return rows


def cmd_figures(which: str, out_dir: Path) -> int:
    from .exact import BipartiteInvariant, PayoffData

    recipe = FIGURE_RECIPES[which]
    payoff = PayoffData.from_matrix([[Fraction(1)]])
    phi = BipartiteInvariant(payoff, recipe["eta1"], recipe["eta2"])
    e1, e2 = phi.eta1, phi.eta2
    window = 1.5 * max(
        abs(float(v)) for init in recipe["initial_states"] for v in init
    )
    inits = [[Fraction(v) for v in init] for init in recipe["initial_states"]]
    orbits, levels = _exact_orbits(payoff, e1, e2, inits, FIGURE_FORWARD, FIGURE_BACKWARD)
    for i, (rows, level) in enumerate(zip(orbits, levels)):
        _write_csv(out_dir / f"{which}_orbit_{i}.csv", _csv_header(2), _csv_rows(rows))
        _write_csv(
            out_dir / f"{which}_levels_{i}.csv",
            ["x", "y_plus", "y_minus"],
            _level_curve_rows(phi, level, window),
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
    return _run(build_parser().parse_args(argv))


def _run_config(args, out_dir: Path) -> int:
    """Load the config and run the command on it. Every numerical failure is
    caught by a finiteness, chart or region check and reported as one error
    line, so float code runs under np.errstate(all="ignore"): numpy's warnings
    would only add noise. alt_play simulate and invariant (its invariant
    section is always closed-form) read only exact fields and never load
    numpy."""
    from .config import load_config

    cfg = load_config(args.config)
    if args.tolerance is not None:
        cfg = dataclasses.replace(cfg, tolerance=args.tolerance)
    exact = cfg.kind == "alt_play" and args.command in ("simulate", "invariant")
    with contextlib.nullcontext() if exact else import_module("numpy").errstate(all="ignore"):
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "invariant":
            return cmd_invariant(cfg, out_dir)
        if args.command == "classify":
            return cmd_classify(cfg, out_dir)
        seed = args.seed if args.seed is not None else cfg.seed
        return cmd_scan(cfg, out_dir, seed)


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
        return _run_config(args, out_dir)
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
