"""Per-layer metrics derived from the traces of one workload pass.

Every name in ``PER_LAYER`` is reported by every traced run, 0 where the
workload does not reach that layer. Per-call timings are medians over all
calls in the pass; ``*_s`` and ``*_ms`` totals are summed over the pass;
counts are exact and repeat from pass to pass. Each ratio is listed next
to the counts it is built from.
"""

from __future__ import annotations

import statistics

from tracer import self_times

STEP_KINDS = ("gd", "mwu_exp", "rgd_sphere", "alt_play")
INVERSE_KINDS = ("gd", "mwu_exp", "rgd_sphere")
COMMANDS = ("simulate", "invariant", "scan", "classify", "figures")
EXACT_READS = ("xy_float", "phi_float", "payoff_value_float", "phi_defect_float")
# Units of the metrics that must repeat exactly from run to run.
EXACT_UNITS = ("count", "bits", "bytes")

PER_LAYER = (
    [("init.import_s", "s"), ("config.load_config_ms", "ms")]
    + [(f"cli.{c}_s", "s") for c in COMMANDS]
    + [
        ("cli.output_bytes", "bytes"),
        ("exact.step_calls", "count"),
        ("exact.step_us", "us"),
        ("exact.read_calls", "count"),
        ("exact.read_us", "us"),
        ("exact.bulk_advance_s", "s"),
        ("exact.identity_calls", "count"),
        ("exact.identity_ms", "ms"),
        ("exact.peak_bits", "bits"),
        ("rationals.ratio_to_float_calls", "count"),
        ("rationals.ratio_to_float_us", "us"),
        ("exact.diff_log_stats_s", "s"),
        ("exact.pair_steps", "count"),
        ("exact.pair_steps_per_s", "1/s"),
        ("chaos.confinement_s", "s"),
        ("maps.step_calls", "count"),
    ]
    + [(f"maps.step_us.{k}", "us") for k in STEP_KINDS]
    + [
        ("state.validations", "count"),
        ("chaos.pair_reports_s", "s"),
        ("chaos.pair_steps", "count"),
        ("chaos.pair_steps_per_s", "1/s"),
        ("dynamics.inverse_calls", "count"),
    ]
    + [(f"dynamics.inverse_calls.{k}", "count") for k in INVERSE_KINDS]
    + [(f"dynamics.inverse_us.{k}", "us") for k in INVERSE_KINDS]
    + [
        ("dynamics.inverse_failures", "count"),
        ("dynamics.orbit_s", "s"),
        ("objectives.gradient_calls", "count"),
        ("objectives.hessian_calls", "count"),
        ("invariants.series_calls", "count"),
        ("invariants.top_level_series", "count"),
        ("invariants.series_total_ms", "ms"),
        ("invariants.series_self_ms", "ms"),
        ("invariants.inverse_per_series", "ratio"),
        ("invariants.defect_audit_share", "ratio"),
        ("chaos.same_orbit_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)

# Per-call timing metrics: the span names whose durations they take, in the
# metric's unit as nanoseconds per unit.
PER_CALL = {
    "config.load_config_ms": (("config.load_config",), 1e6),
    "exact.step_us": (
        ("exact.ExactAltOrbit.advance.single", "exact.ExactAltOrbit.retreat.single"), 1e3
    ),
    "exact.read_us": (tuple(f"exact.ExactAltOrbit.{r}" for r in EXACT_READS), 1e3),
    "exact.identity_ms": (("exact.verify_conservation_identity",), 1e6),
    "rationals.ratio_to_float_us": (("rationals.ratio_to_float",), 1e3),
    **{f"maps.step_us.{k}": ((f"maps.step_with_defect.{k}",), 1e3) for k in STEP_KINDS},
    **{f"dynamics.inverse_us.{k}": ((f"dynamics.inverse_step.{k}",), 1e3) for k in INVERSE_KINDS},
}

# Totals over the pass, in seconds: metric -> span names summed.
TOTALS = {
    **{f"cli.{c}_s": (f"cli.main.{c}",) for c in COMMANDS},
    "exact.bulk_advance_s": (
        "exact.ExactAltOrbit.advance.bulk", "exact.ExactAltOrbit.retreat.bulk"
    ),
    "exact.diff_log_stats_s": ("exact.difference_log_stats",),
    "chaos.confinement_s": ("chaos.level_set_confinement",),
    "chaos.pair_reports_s": tuple(
        f"chaos.batched_pair_reports.{k}" for k in STEP_KINDS
    ),
    "dynamics.orbit_s": ("dynamics.orbit",),
    "chaos.same_orbit_s": ("chaos.same_orbit",),
}

SERIES = ("invariants.series_invariant", "invariants.series_invariant.defect")


def tail(samples: list[float]) -> dict:
    """Median plus the highest standard percentile with >= 10 samples beyond it."""
    n = len(samples)
    out = {"samples": n, "median": statistics.median(samples) if n else 0.0}
    ordered = sorted(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            rank = min(n - 1, max(0, int(-(-p * n // 100)) - 1))  # nearest rank
            out["tail_percentile"] = p
            out["tail_value"] = ordered[rank]
            break
    return out


class PassLayers:
    """Accumulates the traces of one pass's child processes."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {m: [] for m in PER_CALL}
        self.counts: dict[str, int] = {}
        self.span_counts: dict[str, int] = {}
        self.span_ns: dict[str, int] = {}
        self.gauges: dict[str, int] = {}
        self.import_s: list[float] = []
        self.series = {"top": 0, "top_ns": 0, "self_ns": 0, "defect_ns": 0,
                       "inverse_under_series": 0}

    def add(self, trace) -> None:
        names = trace.names
        self.import_s.append(trace.meta["import_s"])
        for k, v in trace.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v
        for k, v in trace.gauges.items():
            self.gauges[k] = max(self.gauges.get(k, 0), v)

        by_name: dict[str, list[int]] = {}
        for i, nid in enumerate(trace.name_id):
            by_name.setdefault(names[nid], []).append(i)
        start, end = trace.start, trace.end
        for name, idx in by_name.items():
            self.span_counts[name] = self.span_counts.get(name, 0) + len(idx)
            self.span_ns[name] = self.span_ns.get(name, 0) + sum(end[i] - start[i] for i in idx)
        for metric, (span_names, ns_per_unit) in PER_CALL.items():
            for name in span_names:
                self.samples[metric].extend(
                    (end[i] - start[i]) / ns_per_unit for i in by_name.get(name, ())
                )
        self._add_series(trace)

    def _add_series(self, trace) -> None:
        series_ids = {trace.names.index(n) for n in SERIES if n in trace.names}
        if not series_ids:
            return
        defect_id = trace.names.index(SERIES[1]) if SERIES[1] in trace.names else -1
        inverse_ids = {trace.names.index(n) for n in trace.names
                       if n.startswith("dynamics.inverse_step.")}
        start, end, parent, name_id = trace.start, trace.end, trace.parent, trace.name_id
        # Spans are stored in begin order, so a parent precedes its children.
        nearest = [-1] * len(start)  # nearest series span at or above i
        selfs = self_times(start, end, parent)
        s = self.series
        for i, nid in enumerate(name_id):
            p = parent[i]
            above = nearest[p] if p >= 0 else -1
            nearest[i] = i if nid in series_ids else above
            if nid in series_ids:
                s["self_ns"] += selfs[i]
                if above < 0:
                    s["top"] += 1
                    s["top_ns"] += end[i] - start[i]
                elif name_id[above] == defect_id:
                    s["defect_ns"] += end[i] - start[i]
            elif nid in inverse_ids and above >= 0:
                s["inverse_under_series"] += 1

    def metrics(self, output_bytes: int, overhead_s: float) -> tuple[dict, dict]:
        """(metric -> value, metric -> tail detail for per-call timings)."""
        spans = self.span_counts
        out = {
            "init.import_s": statistics.median(self.import_s) if self.import_s else 0.0,
            "cli.output_bytes": output_bytes,
            "trace.overhead_s": overhead_s,
        }
        detail = {m: tail(v) for m, v in self.samples.items()}
        for m, d in detail.items():
            out[m] = d["median"]

        def n(*names):
            return sum(spans.get(x, 0) for x in names)

        def seconds(*names):
            return sum(self.span_ns.get(x, 0) for x in names) / 1e9

        for m, names in TOTALS.items():
            out[m] = seconds(*names)

        out["exact.step_calls"] = len(self.samples["exact.step_us"])
        out["exact.read_calls"] = len(self.samples["exact.read_us"])
        out["exact.identity_calls"] = n("exact.verify_conservation_identity")
        out["exact.peak_bits"] = self.gauges.get("exact.peak_bits", 0)
        out["rationals.ratio_to_float_calls"] = n("rationals.ratio_to_float")
        out["exact.pair_steps"] = self.counts.get("exact.pair_steps", 0)
        out["exact.pair_steps_per_s"] = _rate(out["exact.pair_steps"],
                                              out["exact.diff_log_stats_s"])
        out["maps.step_calls"] = n(*(f"maps.step_with_defect.{k}" for k in STEP_KINDS))
        out["state.validations"] = self.counts.get("state.validations", 0)
        nonlinear = [k for k in STEP_KINDS if k != "alt_play"]
        out["chaos.pair_steps"] = sum(
            self.counts.get(f"chaos.pair_steps.{k}", 0) for k in nonlinear
        )
        nonlinear_s = seconds(*(f"chaos.batched_pair_reports.{k}" for k in nonlinear))
        out["chaos.pair_steps_per_s"] = _rate(out["chaos.pair_steps"], nonlinear_s)
        for k in INVERSE_KINDS:
            out[f"dynamics.inverse_calls.{k}"] = n(f"dynamics.inverse_step.{k}")
        out["dynamics.inverse_calls"] = sum(
            out[f"dynamics.inverse_calls.{k}"] for k in INVERSE_KINDS
        )
        out["dynamics.inverse_failures"] = self.counts.get("dynamics.inverse_failures", 0)
        out["objectives.gradient_calls"] = self.counts.get("objectives.gradient_calls", 0)
        out["objectives.hessian_calls"] = self.counts.get("objectives.hessian_calls", 0)
        s = self.series
        out["invariants.series_calls"] = n(*SERIES)
        out["invariants.top_level_series"] = s["top"]
        out["invariants.series_total_ms"] = s["top_ns"] / 1e6
        out["invariants.series_self_ms"] = s["self_ns"] / 1e6
        out["invariants.inverse_per_series"] = (
            s["inverse_under_series"] / s["top"] if s["top"] else 0.0
        )
        out["invariants.defect_audit_share"] = s["defect_ns"] / s["top_ns"] if s["top_ns"] else 0.0
        return {m: out[m] for m, _ in PER_LAYER}, detail


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
