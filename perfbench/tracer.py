"""In-memory spans and counts around the public functions of ``conmot``.

``install`` wraps every public function and public method of the package's
modules from the outside, so the package itself is not edited. Each call
records a span (name, start, end, parent) in flat integer arrays; very hot
calls that only need counting (state validation, objective callables) bump
a counter instead. ``Tracer.dump`` writes everything once, when the traced
process ends, and ``load`` reads it back for the metric derivation in
``layers.py``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

# The modules whose public names are wrapped; errors holds only exceptions.
MODULES = (
    "rationals", "state", "objectives", "maps", "dynamics",
    "exact", "invariants", "chaos", "config", "cli",
)


class Tracer:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.gauges: dict[str, int] = {}

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def gauge_max(self, name: str, value: int) -> None:
        if value > self.gauges.get(name, 0):
            self.gauges[name] = value

    def dump(self, path: Path, **meta) -> None:
        """Write the header as JSON at ``path`` and the spans next to it."""
        path = Path(path)
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counts": self.counts,
            "gauges": self.gauges,
            "meta": meta,
        }
        path.write_text(json.dumps(header, sort_keys=True))


@dataclasses.dataclass
class Trace:
    """A dumped trace read back: span columns plus counts and gauges."""

    names: list[str]
    name_id: array
    start: array
    end: array
    parent: array
    counts: dict
    gauges: dict
    meta: dict


def load(path: Path) -> Trace:
    path = Path(path)
    header = json.loads(path.read_text())
    n = header["spans"]
    cols = []
    with open(path.with_suffix(".spans"), "rb") as fh:
        for _ in range(4):
            col = array("q")
            col.fromfile(fh, n)
            cols.append(col)
    return Trace(header["names"], *cols, header["counts"], header["gauges"], header["meta"])


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent may overlap each other or stick out of the
    parent's interval; only the union of their intervals clipped to the
    parent is subtracted, so self time is never negative.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered = 0
        cursor = s
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            lo, hi = max(start[c], cursor), min(end[c], e)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(e - s - covered)
    return out


# ---------------------------------------------------------------------------
# wrapping


def _spanned(tracer: Tracer, name: str, fn, *, suffix=None, after=None, on_error=None):
    """fn wrapped in a span; ``suffix(args, kwargs)`` refines the span name."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name + suffix(args, kwargs) if suffix else name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if on_error:
                on_error()
            raise
        finally:
            tracer.finish(idx)
        if after:
            after(args, kwargs)
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _kind(args, kwargs) -> str:
    return "." + args[0].kind


def _cli_command(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv") or []
    for word in argv:
        if word in ("simulate", "invariant", "classify", "scan", "figures"):
            return "." + word
    return ".unknown"


def _exact_bits(tracer: Tracer):
    def after(args, kwargs):
        orb = args[0]
        bits = max(abs(int(v)).bit_length() for v in orb._ax + orb._ay)
        tracer.gauge_max("exact.peak_bits", max(bits, int(orb._s).bit_length()))

    return after


def _pair_steps(tracer: Tracer, counter, pairs_index: int, horizon_index: int):
    """Count len(pairs) * horizon pair-steps under the name ``counter(args)``."""

    def after(args, kwargs):
        horizon = args[horizon_index] if len(args) > horizon_index else kwargs["horizon"]
        tracer.count(counter(args, kwargs), len(args[pairs_index]) * horizon)

    return after


def _special(tracer: Tracer, qualname: str, fn):
    """Span or counter for one public callable, with per-call refinements."""
    if qualname == "maps.step_with_defect":
        return _spanned(tracer, qualname, fn, suffix=_kind)
    if qualname == "dynamics.inverse_step":
        return _spanned(tracer, qualname, fn, suffix=_kind,
                        on_error=lambda: tracer.count("dynamics.inverse_failures"))
    if qualname in ("exact.ExactAltOrbit.advance", "exact.ExactAltOrbit.retreat"):
        # advance(n) / retreat(n): n == 1 is a per-row step, larger n is bulk.
        def steps(a, k):
            return ".single" if (a[1] if len(a) > 1 else k.get("n", 1)) == 1 else ".bulk"

        return _spanned(tracer, qualname, fn, suffix=steps, after=_exact_bits(tracer))
    if qualname == "exact.difference_log_stats":
        counter = _pair_steps(tracer, lambda a, k: "exact.pair_steps", 3, 4)
        return _spanned(tracer, qualname, fn, after=counter)
    if qualname == "chaos.batched_pair_reports":
        counter = _pair_steps(tracer, lambda a, k: "chaos.pair_steps" + _kind(a, k), 1, 2)
        return _spanned(tracer, qualname, fn, suffix=_kind, after=counter)
    if qualname == "invariants.series_invariant":
        return _spanned(tracer, qualname, fn,
                        suffix=lambda a, k: ".defect" if k.get("defect_horizon", 0) > 0 else "")
    if qualname == "cli.main":
        return _spanned(tracer, qualname, fn, suffix=_cli_command)
    if qualname == "state.State.__post_init__":
        return _counted(tracer, "state.validations", fn)
    return _spanned(tracer, qualname, fn)


def _count_objective(tracer: Tracer, fn):
    """Factory wrapper: the returned objective counts its callable uses."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spec = fn(*args, **kwargs)
        fields = {}
        for field in ("evaluate", "gradient", "hessian"):
            inner = getattr(spec, field)
            if inner is not None:
                fields[field] = _counted(tracer, f"objectives.{field}_calls", inner)
        return dataclasses.replace(spec, **fields)

    return wrapper


OBJECTIVE_FACTORIES = ("quadratic", "double_well", "bump", "linear", "bilinear")


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every conmot module.

    A wrapped function replaces every module-level reference to the original
    across the package, because modules import each other's functions by
    name (``from .maps import step``). Methods are replaced on their class.
    """
    package = importlib.import_module("conmot")
    modules = [importlib.import_module(f"conmot.{m}") for m in MODULES]
    replaced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            qualname = f"{short}.{name}"
            if inspect.isfunction(obj):
                if short == "objectives" and name in OBJECTIVE_FACTORIES:
                    replaced[obj] = _count_objective(tracer, obj)
                else:
                    replaced[obj] = _special(tracer, qualname, obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    public = not attr.startswith("_") or attr in ("__call__", "__post_init__")
                    if public and inspect.isfunction(member):
                        setattr(obj, attr, _special(tracer, f"{qualname}.{attr}", member))
    for mod in [package, *modules]:
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(mod, attr, replaced[value])
