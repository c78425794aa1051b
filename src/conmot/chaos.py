"""Chaos diagnostics: scrambled pairs, level-set confinement, orbit identity.

A pair is scrambled when its orbits come arbitrarily close infinitely often
yet also separate beyond a fixed gap infinitely often. On a finite horizon
pair_statistics estimates liminf/limsup of the pair distance over a tail
window, for a batch of pairs held as one (2, B, d) array of chart rows, and
classifies conservatively: the scramble-candidate verdict is a flag for closer
scrutiny, never a proof. A conserved quantity with a nondegenerate
differential confines orbits to level sets, so confinement_tally refutes the
candidates whose invariants disagree; only those refutations need phi
certified for the map (exact.certified_quadratic), as the CLI's closed form
is by construction. ``exact`` (the alt_play pair kernel)
and ``dynamics`` (same_orbit's walk) load only when those run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartViolation, ConmotError, InversionError, NumericsError, RegionError
from .maps import MapInstance, step_points
from .state import State, on_chart, validate_points

__all__ = [
    "pair_statistics", "ConfinementReport", "confinement_tally", "SameOrbitVerdict", "same_orbit",
]

EPS_LOW = 1e-6
EPS_HIGH = 1e-3
CONTINUITY_CAVEAT_KINDS = ("gd", "mwu_exp", "mwu_lin")
# Norm ratio beyond which a diverging orbit cannot swing back to the target.
ESCAPE_FACTOR = 1e8


def _relative_gap(phi, x, y) -> float:
    """|phi(x) - phi(y)| / (1 + max |phi|): symmetric in the pair, on States or
    coordinate rows. The closed form answers with its own exact relative_gap;
    a series uses its two floats."""
    if phi is None:
        return math.nan
    if hasattr(phi, "relative_gap"):
        return phi.relative_gap(x, y)
    px, py = float(phi(x)), float(phi(y))
    return abs(px - py) / (1.0 + max(abs(px), abs(py)))


def _tail_start(horizon: int) -> int:
    """Pair-orbit tails are the steps t > _tail_start(horizon): the last
    max(1, horizon // 5) steps of the horizon."""
    return horizon - max(1, horizon // 5)


def _exp2_safe(log2_value: float) -> float:
    """2 ** log2_value, and inf only where that overflows float64."""
    try:
        return 2.0 ** float(log2_value)
    except OverflowError:
        return math.inf


def _verdict(lim_lo: float, lim_hi: float, low: float, high: float) -> str:
    """The verdict rule; thresholds are in the scale of the estimates."""
    if lim_hi <= low:
        return "converging-pair"
    if lim_lo <= low and lim_hi >= high:
        return "scramble-candidate"
    if lim_lo > low:
        return "separated"
    return "inconclusive"


def _pair_distance_extremes(
    map_instance: MapInstance, z: np.ndarray, horizon: int, tail_start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of |T^t x - T^t y| over the tail t > tail_start, per pair
    of z, all points advanced together by one step_points call per time index.

    If a call fails, the pairs are replayed one after another from their rows
    of z, x before y, one row per step_points call for t = 1, 2, ..., and the
    first error met is raised with step index t: what stepping the pairs one
    at a time raises first. There a chart failure becomes a NumericsError.
    """
    start = z
    lo, hi = np.full(z.shape[1], math.inf), np.full(z.shape[1], -math.inf)
    for t in range(1, horizon + 1):
        try:
            z, _ = step_points(map_instance, z)
        except ConmotError:
            for xy in start.swapaxes(0, 1):  # the first pair that fails raises its own error
                for s in range(1, horizon + 1):
                    try:
                        xy = [step_points(map_instance, v)[0] for v in xy]
                    except ChartViolation as exc:
                        error = NumericsError(f"pair orbit left float range at step {s}: {exc}")
                        error.step_index = s
                        raise error from exc
                    except ConmotError as exc:
                        exc.step_index = s
                        raise
            raise
        if t > tail_start:
            diff = z[0] - z[1]
            dist = np.sqrt(np.vecdot(diff, diff))
            np.minimum(lo, dist, out=lo)
            np.maximum(hi, dist, out=hi)
    return lo, hi


def pair_statistics(
    map_instance: MapInstance,
    z: np.ndarray,
    horizon: int,
    *,
    eps_low: float = EPS_LOW,
    eps_high: float = EPS_HIGH,
) -> tuple[list, list, list]:
    """Tail liminf estimates, limsup estimates and verdicts, as three lists,
    of the pairs (z[0, b], z[1, b]) of a (2, B, d) array of chart rows.

    Alternating play is linear, so a pair distance is its evolved difference
    vector, read in log space over the tail window alone, at any horizon (see
    difference_log_stats, a library entry that certifies the step again),
    each pair's bits those of a one-pair call. The other kinds advance every
    point together, one vectorised step per time index; each pair's numbers
    equal those of stepping its two States alone, bit for bit, and a failing
    step raises what that one-pair loop raises.

    The rows get the chart checks of a State, on a copy, so z is never
    changed; B = 0 gives three empty lists.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    for name, eps in (("eps_low", eps_low), ("eps_high", eps_high)):
        if not 0.0 < eps < math.inf:
            raise ValueError(f"{name} must be positive and finite, not {eps!r}")
    chart = map_instance.chart
    z = np.array(z, dtype=float)
    if z.ndim != 3 or z.shape[0] != 2 or z.shape[2] != chart.dimension:
        raise ChartViolation(f"pairs have shape {z.shape} but chart {chart.kind} "
                             f"expects (2, B, {chart.dimension})")
    if z.shape[1] == 0:
        return [], [], []
    validate_points(z, chart)
    if np.any(np.all(z[0] == z[1], axis=-1)):
        raise ValueError("the two points of a pair must differ")
    if map_instance.kind == "alt_play":
        from .exact import difference_log_stats

        phi = map_instance.closed_form
        lo, hi = difference_log_stats(phi.payoff, phi.eta1, phi.eta2, z[0] - z[1], horizon)
        low, high, scale = math.log2(eps_low), math.log2(eps_high), _exp2_safe
    else:
        lo, hi = _pair_distance_extremes(map_instance, z, horizon, _tail_start(horizon))
        low, high, scale = eps_low, eps_high, float
    lo, hi = lo.tolist(), hi.tolist()
    return ([scale(v) for v in lo], [scale(v) for v in hi],
            [_verdict(a, b, low, high) for a, b in zip(lo, hi)])


@dataclass(frozen=True)
class ConfinementReport:
    """Outcome of a level-set confinement scan over a batch of pairs."""

    status: str
    reason: str
    checked_pairs: int
    verdict_counts: dict
    refutations: tuple
    continuity_caveat: bool


def confinement_tally(map_instance: MapInstance, verdicts, gaps, tolerance) -> ConfinementReport:
    """The completed confinement report of pairs with these verdicts and
    invariant gaps, in pair order: the verdict counts, and a refutation (pair
    index, gap) for each scramble-candidate whose gap exceeds ``tolerance``.

    The counts hold for any map; the refutations need phi conserved by it, as
    exact.certified_quadratic(phi, map_instance) decides and the CLI's closed
    form is by construction: else orbits need not stay on their levels."""
    counts: dict[str, int] = {}
    refutations = []
    for idx, (verdict, gap) in enumerate(zip(verdicts, gaps, strict=True)):
        counts[verdict] = counts.get(verdict, 0) + 1
        if verdict == "scramble-candidate" and gap > tolerance:
            refutations.append((idx, gap))
    return ConfinementReport(
        status="completed",
        reason="",
        checked_pairs=len(verdicts),
        verdict_counts=counts,
        refutations=tuple(refutations),
        continuity_caveat=map_instance.kind in CONTINUITY_CAVEAT_KINDS,
    )


@dataclass(frozen=True)
class SameOrbitVerdict:
    """Answer to 'do x and y lie on one orbit?' with the evidence found."""

    answer: str
    index: int | None
    closest_approach: float
    invariant_gap: float
    search_mode: str


def same_orbit(
    map_instance: MapInstance,
    x: State,
    y: State,
    max_iterations: int,
    tolerance: float,
    *,
    phis=(),
) -> SameOrbitVerdict:
    """Decide orbit membership by invariants first, then bidirectional search.

    Any invariant whose relative gap (the scan's symmetric _relative_gap)
    exceeds the tolerance settles the question negatively without iterating.
    Otherwise the orbit of x is walked up to max_iterations steps each way
    looking for y within tolerance. An exhausted or escape-guarded search
    returns inconclusive: absence within a finite window proves nothing.
    """
    from .dynamics import Orbit, detect_fixed_point

    if max_iterations < 0:
        raise ValueError("max_iterations must be nonnegative")
    orb = Orbit(map_instance, x)  # x's chart is checked here, y's next
    yc = on_chart(y, map_instance.chart)
    gap = max((_relative_gap(phi, x, y) for phi in phis), default=0.0)
    if gap > tolerance:
        return SameOrbitVerdict(
            answer="no",
            index=None,
            closest_approach=x.distance_to(y),
            invariant_gap=gap,
            search_mode="invariant-filter",
        )

    closest = x.distance_to(y)
    if closest <= tolerance:
        return SameOrbitVerdict(
            answer="yes", index=0, closest_approach=closest,
            invariant_gap=gap, search_mode="bidirectional",
        )

    # Two distinct fixed points sit on two distinct constant orbits.
    if orb.fixed_at(0) and detect_fixed_point(map_instance, y):
        return SameOrbitVerdict(
            answer="no", index=None, closest_approach=closest,
            invariant_gap=gap, search_mode="fixed-points",
        )

    escape_norm = (1.0 + float(np.linalg.norm(yc))) * ESCAPE_FACTOR
    search_mode = "bidirectional"

    # Walk forward, then backward; a failed inverse leaves only the forward half.
    walks = ((1, ChartViolation, search_mode), (-1, (InversionError, RegionError), "forward-only"))
    for sign, stops, mode_on_stop in walks:
        for k in range(1, max_iterations + 1):
            try:
                walker = orb[sign * k]
            except stops:
                search_mode = mode_on_stop
                break
            d = float(np.linalg.norm(walker - yc))
            closest = min(closest, d)
            if d <= tolerance:
                return SameOrbitVerdict(
                    answer="yes", index=sign * k, closest_approach=d,
                    invariant_gap=gap, search_mode=search_mode,
                )
            if float(np.linalg.norm(walker)) > escape_norm:
                break

    return SameOrbitVerdict(
        answer="inconclusive",
        index=None,
        closest_approach=closest,
        invariant_gap=gap,
        search_mode=search_mode,
    )
