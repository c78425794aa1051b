"""Chaos diagnostics: scrambled pairs, level-set confinement, orbit identity.

A pair is scrambled when its orbits come arbitrarily close infinitely often
yet also separate beyond a fixed gap infinitely often. On a finite horizon we
estimate liminf/limsup of the pair distance over a tail window and classify
conservatively: the scramble-candidate verdict is a flag for closer scrutiny,
never a proof. A conserved quantity with a nondegenerate differential confines
orbits to level sets, so candidates whose invariants disagree are refuted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FIXED_POINT_TOL, Orbit, detect_fixed_point
from .errors import ChartViolation, ConmotError, InversionError, NumericsError, RegionError
from .exact import BipartiteInvariant, _tail_start, certified_quadratic, difference_log_stats
from .invariants import invariance_defect
from .maps import MapInstance, step, step_points
from .rationals import ratio_to_float
from .state import State

__all__ = [
    "ChaosReport",
    "batched_pair_reports",
    "ConfinementReport",
    "level_set_confinement",
    "SameOrbitVerdict",
    "same_orbit",
]

EPS_LOW = 1e-6
EPS_HIGH = 1e-3
CONFINEMENT_PRECONDITION_TOL = 1e-9
# Norm ratio beyond which a diverging orbit cannot swing back to the target.
ESCAPE_FACTOR = 1e8


def _relative_gap(phi, x: State, y: State) -> float:
    """|phi(x) - phi(y)| / (1 + max |phi|): symmetric in the pair. For the
    closed form it is one exact rational rounded once, finite (below 2) even
    where phi(x) and phi(y) round to inf; a series uses its two floats."""
    if phi is None:
        return math.nan
    if isinstance(phi, BipartiteInvariant):
        (na, da), (nb, db) = phi._ratio(x), phi._ratio(y)
        if abs(na) * db > abs(nb) * da:  # swapped so that |b| >= |a|; da, db > 0
            (na, da), (nb, db) = (nb, db), (na, da)
        return ratio_to_float(abs(nb * da - na * db), da * (db + abs(nb)))
    px, py = float(phi(x)), float(phi(y))
    return abs(px - py) / (1.0 + max(abs(px), abs(py)))


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


@dataclass(frozen=True)
class ChaosReport:
    """Tail statistics of the distance between two orbits."""

    x: State
    y: State
    horizon: int
    tail_start: int
    liminf_estimate: float
    limsup_estimate: float
    invariant_gap: float
    eps_low: float
    eps_high: float
    verdict: str


def _pair_step(map_instance: MapInstance, xy: np.ndarray, t: int) -> list[np.ndarray]:
    """One pair stepped as two States; a chart failure is a NumericsError at t,
    and any other failure keeps its type and gets step index t."""
    try:
        return [step(map_instance, State(v, map_instance.chart)).coordinates for v in xy]
    except ChartViolation as exc:
        raise NumericsError(
            f"pair orbit left float range at step {t}: {exc}", step_index=t
        ) from exc
    except ConmotError as exc:
        exc.step_index = t
        raise


def _pair_distance_extremes(
    map_instance: MapInstance, pairs: list, horizon: int, tail_start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of |T^t x - T^t y| over the tail t > tail_start, per pair.

    All points advance together as one (2, B, d) array, one step_points call
    per time index. A call that fails for some point is redone pair by pair:
    the lowest failing pair keeps its error and leaves the batch with every
    pair after it, while the pairs before it go on (one of them may fail
    later). Once the batch is done the kept error is raised, which is what
    stepping the pairs one after another raises first.
    """
    z = np.array([[x.coordinates for x, _ in pairs], [y.coordinates for _, y in pairs]])
    lo, hi = np.full(len(pairs), math.inf), np.full(len(pairs), -math.inf)
    failure = None
    for t in range(1, horizon + 1):
        try:
            z = step_points(map_instance, z)
        except ConmotError:
            stepped = []
            for xy in z.swapaxes(0, 1):
                try:
                    stepped.append(_pair_step(map_instance, xy, t))
                except ConmotError as exc:
                    failure = exc
                    break
            if not stepped:
                break
            z = np.array([[x for x, _ in stepped], [y for _, y in stepped]])
        if t > tail_start:
            k = z.shape[1]
            diff = z[0] - z[1]
            dist = np.sqrt(np.vecdot(diff, diff))
            np.minimum(lo[:k], dist, out=lo[:k])
            np.maximum(hi[:k], dist, out=hi[:k])
    if failure is not None:
        raise failure
    return lo, hi


def batched_pair_reports(
    map_instance: MapInstance,
    pairs,
    horizon: int,
    *,
    eps_low: float = EPS_LOW,
    eps_high: float = EPS_HIGH,
    phi=None,
) -> list[ChaosReport]:
    """Scrambled-pair reports for many pairs, all advanced at once.

    Alternating play is linear, so every pair distance is its evolved
    difference vector: the batch jumps to the tail window by one product with
    a power of the step matrix, and the window is read in chunks of batched
    products with consecutive powers, in log space to any horizon (see
    difference_log_stats). The other kinds stack
    every x and y into one array and take one vectorised step per time index;
    each pair's numbers equal those of stepping its two States alone, bit for
    bit, and a failing step raises what that one-pair loop raises.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    for x, y in pairs:
        if x.chart != map_instance.chart or y.chart != map_instance.chart:
            raise ChartViolation("pair charts must match the map chart")
        if np.array_equal(x.coordinates, y.coordinates):
            raise ValueError("the two points of a pair must differ")
    tail_start = _tail_start(horizon)
    if map_instance.kind == "alt_play":
        e1, e2 = map_instance.step_sizes
        diffs = np.stack([x.coordinates - y.coordinates for x, y in pairs])
        lo, hi = difference_log_stats(map_instance.payoff, e1, e2, diffs, horizon)
        low, high, scale = math.log2(eps_low), math.log2(eps_high), _exp2_safe
    else:
        lo, hi = _pair_distance_extremes(map_instance, pairs, horizon, tail_start)
        low, high, scale = eps_low, eps_high, float
    return [
        ChaosReport(
            x=x, y=y, horizon=horizon, tail_start=tail_start,
            liminf_estimate=scale(float(lim_lo)), limsup_estimate=scale(float(lim_hi)),
            invariant_gap=_relative_gap(phi, x, y), eps_low=eps_low, eps_high=eps_high,
            verdict=_verdict(float(lim_lo), float(lim_hi), low, high),
        )
        for (x, y), lim_lo, lim_hi in zip(pairs, lo, hi)
    ]


@dataclass(frozen=True)
class ConfinementReport:
    """Outcome of a level-set confinement scan over a batch of pairs."""

    status: str
    reason: str
    checked_pairs: int
    verdict_counts: dict
    refutations: tuple
    continuity_caveat: bool


def level_set_confinement(
    map_instance: MapInstance,
    phi,
    pairs,
    horizon: int,
    *,
    tolerance: float = 1e-9,
    eps_low: float = EPS_LOW,
    eps_high: float = EPS_HIGH,
    reports: list[ChaosReport] | None = None,
) -> ConfinementReport:
    """Scan pairs for scramble candidates that would cross level sets.

    Precondition: phi must actually be conserved by this map. For the
    closed-form quadratic under its own alternating-play instance that is
    discharged by the exact matrix identity; for anything else the drift is
    sampled on a few tested orbits first. A failed precondition produces a
    skipped report rather than classifications that would mean nothing.

    A scramble-candidate whose invariant gap exceeds ``tolerance`` is recorded
    as a refutation: the pair cannot be scrambled if phi is conserved and
    continuous, so either the map is not the one phi belongs to or the
    finite-horizon verdict is noise.

    Pass precomputed ``reports`` (one per pair, same order, evaluated with
    this phi) to avoid re-running the pair orbits.
    """
    pairs = list(pairs)
    if reports is not None and len(reports) != len(pairs):
        raise ValueError("reports must match pairs one to one")
    continuity_caveat = map_instance.kind in ("gd", "mwu_exp", "mwu_lin")
    if not certified_quadratic(phi, map_instance):
        probe_horizon = min(horizon, 50)
        for x, _ in pairs[:3]:
            defect = invariance_defect(phi, map_instance, x, probe_horizon)
            if not defect <= CONFINEMENT_PRECONDITION_TOL:
                return ConfinementReport(
                    status="skipped",
                    reason=(
                        "phi is not conserved under this map: sampled drift "
                        f"{defect:.3e} over {probe_horizon} steps exceeds "
                        f"{CONFINEMENT_PRECONDITION_TOL:.0e}"
                    ),
                    checked_pairs=0,
                    verdict_counts={},
                    refutations=(),
                    continuity_caveat=continuity_caveat,
                )

    if reports is None:
        reports = batched_pair_reports(
            map_instance, pairs, horizon, eps_low=eps_low, eps_high=eps_high, phi=phi
        )
    counts: dict[str, int] = {}
    refutations = []
    for idx, report in enumerate(reports):
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
        if report.verdict == "scramble-candidate" and report.invariant_gap > tolerance:
            refutations.append((idx, report.invariant_gap))
    return ConfinementReport(
        status="completed",
        reason="",
        checked_pairs=len(pairs),
        verdict_counts=counts,
        refutations=tuple(refutations),
        continuity_caveat=continuity_caveat,
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
    if max_iterations < 0:
        raise ValueError("max_iterations must be nonnegative")
    if x.chart != map_instance.chart or y.chart != map_instance.chart:
        raise ChartViolation("state chart does not match map chart")
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
    orb = Orbit(map_instance, x)
    if x.distance_to(orb[1]) <= FIXED_POINT_TOL and detect_fixed_point(map_instance, y):
        return SameOrbitVerdict(
            answer="no", index=None, closest_approach=closest,
            invariant_gap=gap, search_mode="fixed-points",
        )

    escape_norm = (1.0 + float(np.linalg.norm(y.coordinates))) * ESCAPE_FACTOR
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
            d = walker.distance_to(y)
            closest = min(closest, d)
            if d <= tolerance:
                return SameOrbitVerdict(
                    answer="yes", index=sign * k, closest_approach=d,
                    invariant_gap=gap, search_mode=search_mode,
                )
            if float(np.linalg.norm(walker.coordinates)) > escape_norm:
                break

    return SameOrbitVerdict(
        answer="inconclusive",
        index=None,
        closest_approach=closest,
        invariant_gap=gap,
        search_mode=search_mode,
    )
