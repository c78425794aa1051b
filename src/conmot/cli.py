"""Command line interface.

Five subcommands over one JSON config: simulate (trajectory CSVs plus a
summary), invariant (evaluate and audit a constant of motion), classify (are
two points on one orbit), scan (seeded scrambled-pair survey), and figures
(named hyperbolic-orbit datasets rendered from exact arithmetic, no config
needed). Output is deterministic byte for byte given the same config and
seed: floats are written with repr and JSON keys are sorted.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure. A
failure prints one error line of at most ERROR_LINE_CAP characters.

At module level only the standard library, ``errors`` and ``rationals`` are
imported; each command imports what it runs. ``figures``, ``simulate`` on
alt_play and a closed-form ``invariant`` run on the exact engine alone and
never load numpy, and a command on a float map never loads the exact
engine. When the process runs one OS thread, ``figures`` and alt_play
``simulate`` split their rows over one reader per usable CPU: this process
and forked children that end before it returns, each placed by the kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import marshal
import math
import os
import sys
from collections.abc import Iterator
from fractions import Fraction
from importlib import import_module
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, ConmotError
from .rationals import as_float

if TYPE_CHECKING:
    from .config import RunConfig
    from .exact import BipartiteInvariant

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
# The longest error line, in characters. A schema message quotes the value
# it rejects, which can be a whole config section.
ERROR_LINE_CAP = 1000


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


def _to_json(obj, flush=None) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) once obj is strict-JSON safe: a
    dataclass is its asdict, a Fraction its str, a non-finite float "nan", "inf"
    or "-inf". An iterator is written as the list it yields; with flush given,
    the text so far goes to flush after each entry and the rest is returned."""
    out: list[str] = []

    def encode(v, pad: str) -> None:
        if isinstance(v, float):
            out.append(float.__repr__(v) if math.isfinite(v) else
                       '"nan"' if v != v else '"inf"' if v > 0 else '"-inf"')
        elif isinstance(v, (str, Fraction)):
            out.append(encode_basestring_ascii(str(v)))
        elif isinstance(v, dict):
            inner, sep = pad + "  ", "{"
            for key in sorted(v):
                out.append(sep + inner + encode_basestring_ascii(key) + ": ")
                encode(v[key], inner)
                sep = ","
            out.append("{}" if sep == "{" else pad + "}")
        elif isinstance(v, (list, tuple, Iterator)):
            inner, sep = pad + "  ", "["
            for item in v:
                out.append(sep + inner)
                encode(item, inner)
                sep = ","
                if flush is not None and isinstance(v, Iterator):
                    flush("".join(out))
                    out.clear()
            out.append("[]" if sep == "[" else pad + "]")
        elif v is None or isinstance(v, int):  # a bool is an int
            out.append("null" if v is None else "true" if v is True else
                       "false" if v is False else int.__repr__(v))
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            encode(dataclasses.asdict(v), pad)
        else:
            raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    encode(obj, "\n")
    return "".join(out)


def _write_json(path: Path, payload) -> None:
    """Write _to_json(payload) and a newline. An iterator in the payload is
    written as the list it yields, one entry at a time, so the list is never
    held whole."""
    with path.open("w") as fh:
        fh.write(_to_json(payload, fh.write) + "\n")


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


def _os_threads() -> int:
    """The OS threads of this process; where /proc is absent, the Python
    threads, which miss any a C library started."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


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


def _exact_orbits(phi: BipartiteInvariant, inits, n_forward: int, n_backward: int):
    """Rows (t, xy, f, phi, defect) for t in [-n_backward, n_forward] of the
    exact orbit of each initial state on phi, and the exact level of each orbit.

    The rows are read in P strided shares, P the usable CPUs capped at the
    rows of one orbit: share j reads the rows t = j (mod P) of every orbit.
    Share 0 is read here and shares 1..P-1 in forked children; a share whose
    child could not start or did not deliver is read here too. The integers
    at a position do not depend on the walk that reached it, so the rows are
    the same bytes for every P. Only a process of one OS thread forks, so a
    fork copies no lock held by another thread; any other reads P = 1 here."""
    from .exact import ExactAltOrbit

    orbits = [ExactAltOrbit(phi, init) for init in inits]
    levels = [orb.phi_fraction() for orb in orbits]
    n_rows = n_forward + n_backward + 1
    forks = hasattr(os, "fork") and _os_threads() == 1
    shares = min(_usable_cpus() if forks else 1, n_rows)
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


def _max_defect(rows):
    """The largest defect among the rows whose defect is a number, else "nan"."""
    defects = [d for *_rest, d in rows if not math.isnan(d)]
    return max(defects) if defects else "nan"


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
            else series_along_orbit(orb, *series, ts))
    phi0 = phis[ts.index(0)]
    scale = 1.0 + abs(phi0)
    obj = cfg.map.objective
    rows = []
    for t, phi_t in zip(ts, phis):
        row = orb[t]
        f_val = float(obj.evaluate(row))
        defect = 0.0 if t == 0 and series is not None else abs(phi_t - phi0) / scale
        rows.append((t, row, f_val, phi_t, defect))
    return rows, ts


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.initial_exact:
        raise ConfigError("simulate needs initial_states")
    summary = {"map_kind": cfg.kind, "trajectories": []}
    exact_rows, phi = None, cfg.closed_form
    if phi is not None:
        exact_rows, _ = _exact_orbits(phi, cfg.initial_exact, cfg.n_forward, cfg.n_backward)
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
        summary["trajectories"].append(
            {
                "initial_index": i,
                "file": path.name,
                "rows": len(raw_rows),
                "final_state": [float(v) for v in raw_rows[-1][1]],
                "max_defect": _max_defect(raw_rows),
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
    spec = cfg.invariant_spec
    if spec is None:
        raise ConfigError("the invariant command needs an invariant section")
    if not cfg.initial_exact:
        raise ConfigError("the invariant command needs initial_states")
    results = []
    horizon = int(spec.get("defect_horizon", 0))
    if spec["kind"] == "closed-form":
        # A closed-form section belongs to an alt_play config, whose phi
        # load_config built on its certified step: the defect is 0.0 at every horizon.
        for i, exact_init in enumerate(cfg.initial_exact):
            value = cfg.closed_form.exact(exact_init)
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
            report = series_invariant(cfg.map, weight, state, truncation, defect_horizon=horizon)
            results.append({"initial_index": i, **dataclasses.asdict(report)})
    payload = {"kind": spec["kind"], "map_kind": cfg.kind, "results": results}
    path = out_dir / f"{cfg.output_prefix}_invariant.json"
    _write_json(path, payload)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# classify


def _classification_invariants(cfg: RunConfig):
    if cfg.closed_form is not None:
        return (cfg.closed_form,)
    series = _series_spec(cfg)
    if series is None:
        return ()
    from .invariants import make_series_invariant

    return (make_series_invariant(cfg.map, *series),)


def cmd_classify(cfg: RunConfig, out_dir: Path, tolerance: float) -> int:
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
        float(spec.get("tolerance", tolerance)),
        phis=_classification_invariants(cfg),
    )
    path = out_dir / f"{cfg.output_prefix}_classify.json"
    _write_json(path, verdict)
    print(f"{verdict.answer} (details in {path})")
    return 0


# ---------------------------------------------------------------------------
# scan


def _sample_scan_row(chart, rng, halfwidth: float):
    """One point drawn by the numpy Generator rng, as a coordinate row that
    passed the chart checks of a State: uniform in the box of the given
    halfwidth on a flat chart, else from the chart's own sampler."""
    from .state import sample_chart, validate_points

    if chart.kind == "euclidean":
        return validate_points(rng.uniform(-halfwidth, halfwidth, chart.dimension), chart)
    return sample_chart(chart, rng).coordinates


def cmd_scan(cfg: RunConfig, out_dir: Path, seed: int | None, tolerance: float) -> int:
    from array import array

    import numpy as np

    from .chaos import EPS_HIGH, EPS_LOW, _relative_gap, confinement_tally, pair_statistics

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

    # Certified for the map at load, the confinement argument's precondition.
    phi = cfg.closed_form
    chart = cfg.map.chart
    rng = np.random.default_rng(seed)
    # Kept pairs are rows in one growing buffer, x then y, and become the
    # (2, B, d) array of pair_statistics: no pair is ever a State or a report.
    rows, gaps = array("d"), array("d")
    attempts = 0
    max_attempts = 200 * pairs_wanted
    while len(gaps) < pairs_wanted and attempts < max_attempts:
        attempts += 1
        x = _sample_scan_row(chart, rng, halfwidth)
        y = _sample_scan_row(chart, rng, halfwidth)
        if np.array_equal(x, y):
            continue
        gap = _relative_gap(phi, x, y)  # nan without phi, and nan <= min_gap is False
        if gap <= min_gap:
            continue
        rows.extend(x)
        rows.extend(y)
        gaps.append(gap)
    if len(gaps) < pairs_wanted:
        raise ConmotError(
            f"could not sample {pairs_wanted} cross-level pairs in "
            f"{max_attempts} attempts; widen the box or lower min_relative_gap"
        )

    z = np.frombuffer(rows).reshape(-1, 2, chart.dimension).swapaxes(0, 1).copy()
    liminf, limsup, verdicts = pair_statistics(cfg.map, z, horizon, eps_low=eps_low,
                                               eps_high=eps_high)
    # Each pair's gap is the filter's.
    confinement = confinement_tally(cfg.map, verdicts, gaps, tolerance)
    counts = confinement.verdict_counts
    pair_entries = (
        {
            "index": idx,
            "x": z[0, idx].tolist(),
            "y": z[1, idx].tolist(),
            "liminf_estimate": liminf[idx],
            "limsup_estimate": limsup[idx],
            "invariant_gap": gaps[idx],
            "verdict": verdicts[idx],
        }
        for idx in range(len(gaps))
    )
    payload = {
        "map_kind": cfg.kind,
        "seed": seed,
        "horizon": horizon,
        "eps_low": eps_low,
        "eps_high": eps_high,
        "box_halfwidth": halfwidth,
        "min_relative_gap": min_gap,
        "pairs": len(gaps),
        "verdict_counts": dict(sorted(counts.items())),
        "pair_reports": pair_entries,
    }
    if phi is not None:
        payload["confinement"] = confinement
    path = out_dir / f"{cfg.output_prefix}_scan.json"
    _write_json(path, payload)
    ordered = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"scanned {len(gaps)} pairs: {ordered}")
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
    phi = BipartiteInvariant(PayoffData([[1]]), recipe["eta1"], recipe["eta2"])
    inits = [[Fraction(v) for v in init] for init in recipe["initial_states"]]
    window = 1.5 * max(abs(float(v)) for init in inits for v in init)
    orbits, levels = _exact_orbits(phi, inits, FIGURE_FORWARD, FIGURE_BACKWARD)
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
        "step_sizes": [str(phi.eta1), str(phi.eta2)],
        "forward_steps": FIGURE_FORWARD,
        "backward_steps": FIGURE_BACKWARD,
        "window_halfwidth": window,
        "orbits": [
            {
                "initial_state": [float(v) for v in init],
                "level": float(level),
                "level_exact": str(level),
                "max_defect": _max_defect(rows),
            }
            for init, level, rows in zip(recipe["initial_states"], levels, orbits)
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


def _fail(line: str, code: int) -> int:
    """Print one error line to stderr and return the exit code. A line over
    ERROR_LINE_CAP loses its middle; its head and its tail, where a schema
    error names its path, stay."""
    if len(line) > ERROR_LINE_CAP:
        keep = (ERROR_LINE_CAP - len(" ... ")) // 2
        line = f"{line[:keep]} ... {line[-keep:]}"
    print(line, file=sys.stderr)
    return code


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
    tolerance = args.tolerance if args.tolerance is not None else cfg.tolerance
    exact = cfg.kind == "alt_play" and args.command in ("simulate", "invariant")
    with contextlib.nullcontext() if exact else import_module("numpy").errstate(all="ignore"):
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "invariant":
            return cmd_invariant(cfg, out_dir)
        if args.command == "classify":
            return cmd_classify(cfg, out_dir, tolerance)
        seed = args.seed if args.seed is not None else cfg.seed
        return cmd_scan(cfg, out_dir, seed, tolerance)


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
        return _fail(f"error: configuration: {exc}", 2)
    except OSError as exc:
        # The output directory or a file name built from the prefix is unusable.
        return _fail(f"error: configuration: cannot write the output: {exc}", 2)
    except ConmotError as exc:
        return _fail(f"error: {_failure_message(exc)}", 3)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
