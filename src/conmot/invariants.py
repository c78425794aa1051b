"""Constants of motion and how to check them.

Two constructions. The closed-form bipartite quadratic
(``exact.BipartiteInvariant``) is conserved exactly by alternating play and
is certified through the exact engine, which only invariance_defect and
dphi_rank import, when they run. The truncated
series invariant, built here, works for the dissipative maps: it sums
weighted one-step drops of the map's own objective along the bi-infinite orbit,
truncated symmetrically, and reports its own convergence diagnostics instead
of pretending to be exact. The series at T^k x is the same sum with its index
shifted by k, so defect horizons and trajectory rows read their shifted sums
from one orbit window around the starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .dynamics import Orbit
from .errors import ConmotError, InversionError, RegionError, StepSizeError
from .maps import MapInstance
from .objectives import validate_step_size_gd, validate_step_size_manifold
from .rationals import ratio_to_float
from .state import State

if TYPE_CHECKING:
    from .exact import PayoffData

__all__ = [
    "WeightFunction", "constant_weight", "coordinate_weight", "gaussian_bump_weight",
    "InvariantReport", "series_invariant", "series_along_orbit", "make_series_invariant",
    "invariance_defect", "dphi_rank",
]

TERM_STOP_TOL = 1e-14
DIVERGENCE_PATIENCE = 32
DPHI_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class WeightFunction:
    """Scalar weight p(x) used inside the series invariant."""

    kind: str
    func: Callable[[np.ndarray], float]

    def __call__(self, x) -> float:
        coords = x.coordinates if isinstance(x, State) else np.asarray(x, dtype=np.float64)
        return float(self.func(coords))


def constant_weight(value: float = 1.0) -> WeightFunction:
    return WeightFunction(kind="constant", func=lambda x: value)


def coordinate_weight(index: int) -> WeightFunction:
    if index < 0:
        raise ValueError("coordinate index must be nonnegative")
    return WeightFunction(kind="coordinate", func=lambda x: float(x[index]))


def gaussian_bump_weight(center, width: float) -> WeightFunction:
    center = np.asarray(center, dtype=np.float64)
    if width <= 0:
        raise ValueError("width must be positive")
    two_w2 = 2.0 * width * width

    def bump(x: np.ndarray) -> float:
        d = x - center
        return math.exp(-float(d @ d) / two_w2)

    return WeightFunction(kind="gaussian-bump", func=bump)


@dataclass(frozen=True)
class InvariantReport:
    """Value and diagnostics of one truncated series evaluation."""

    value: float
    truncation_n: int
    partial_sums: tuple[float, ...]
    tail_estimate: float
    per_step_defect: tuple[float, ...] = ()
    divergent: bool = False
    one_sided: bool = False
    fixed_point: bool = False
    converged_early: bool = False
    notes: tuple[str, ...] = field(default=())


def _series_preconditions(map_instance: MapInstance) -> list[str]:
    """Raise when the construction has no hope; return advisory notes."""
    notes: list[str] = []
    kind = map_instance.kind
    if kind == "alt_play":
        raise ConmotError(
            "the series invariant needs bounded objective values along the "
            "orbit; alternating-play orbits are unbounded, use the closed-form "
            "quadratic instead"
        )
    obj = map_instance.objective
    if kind == "gd" and not obj.bounded and obj.region is None:
        raise ConmotError(
            "gradient descent needs a bounded objective or a declared "
            "region for the series invariant"
        )
    eta, verdict = map_instance.step_sizes[0], None  # no bound is known for either mwu kind
    if kind == "gd":
        verdict, bound = validate_step_size_gd(obj, eta), "contraction"
    elif kind == "rgd_sphere":
        verdict, bound = validate_step_size_manifold(eta), "manifold"
    if verdict is not None and verdict.accepted is False:
        raise StepSizeError(f"step size {float(eta)} fails the {bound} bound {verdict.bound}")
    if verdict is None or verdict.accepted is None:
        notes.append("step size could not be verified against a curvature bound")
    return notes


class _OrbitWindow:
    """Memoised f values and series terms p(T^n x)(f(T^{n-1} x) - f(T^n x))
    by absolute index n over one Orbit: the series at T^c x reads the terms of
    the one at x shifted by c. Past a side that cannot be continued, entries
    read None."""

    def __init__(self, orbit: Orbit, weight: WeightFunction, truncation: int):
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        self.obj = orbit.map.objective
        self.notes = _series_preconditions(orbit.map)
        self.orbit, self.weight, self.truncation = orbit, weight, truncation
        self.backward_blocked: str | None = None
        self.forward_blocked: str | None = None
        self._f: dict[int, float | None] = {}
        self._terms: dict[int, float | None] = {}

    def get(self, n: int) -> np.ndarray | None:
        try:
            return self.orbit[n]
        except (InversionError, RegionError) as exc:
            if n > 0:
                self.forward_blocked = f"forward step {exc.step_index}: {exc}"
            else:
                self.backward_blocked = f"backward step {exc.step_index}: {exc}"
            return None

    def f(self, n: int) -> float | None:
        if n not in self._f:
            row = self.get(n)
            self._f[n] = None if row is None else float(self.obj.evaluate(row))
        return self._f[n]

    def term(self, n: int) -> float | None:
        if n not in self._terms:
            here, f_prev = self.get(n), self.f(n - 1)
            known = here is not None and f_prev is not None
            self._terms[n] = self.weight(here) * (f_prev - self.f(n)) if known else None
        return self._terms[n]

    def series_at(self, c: int, notes: list[str]) -> InvariantReport:
        """The truncated series at T^c x, summed ring by ring from the window."""
        # A point that does not move adds nothing on its orbit; a failed step raises.
        if self.orbit.fixed_at(c):
            return InvariantReport(value=0.0, truncation_n=0, partial_sums=(), tail_estimate=0.0,
                                   fixed_point=True, converged_early=True, notes=tuple(notes))

        partial: list[float] = []
        total = 0.0
        divergent = False
        converged_early = False
        best_ring = math.inf
        stale_rings = 0
        last_increment = 0.0
        completed_depth = 0

        t0 = self.term(c)
        if t0 is None:
            notes.append(self.backward_blocked or "the base term could not be computed")
            notes.append("series evaluated one-sided from ring 1")
            one_sided = True
            partial.append(0.0)
        else:
            one_sided = False
            total = t0
            partial.append(total)
            last_increment = abs(t0)

        for k in range(1, self.truncation + 1):
            ring_terms: list[float] = []
            t_minus = None if one_sided else self.term(c - k)
            if t_minus is None and not one_sided:
                one_sided = True
                notes.append(self.backward_blocked or f"backward orbit stopped before ring {k}")
            if t_minus is not None:
                total += t_minus
                partial.append(total)
                ring_terms.append(t_minus)
            t_plus = self.term(c + k)
            if t_plus is None:
                notes.append(self.forward_blocked or f"forward orbit stopped before ring {k}")
                break
            total += t_plus
            partial.append(total)
            ring_terms.append(t_plus)
            completed_depth = k

            last_increment = abs(ring_terms[-1])
            ring_mag = max(abs(v) for v in ring_terms)
            if ring_mag < best_ring:
                best_ring = ring_mag
                stale_rings = 0
            else:
                stale_rings += 1
            if all(abs(v) < TERM_STOP_TOL for v in ring_terms):
                converged_early = True
                break
            if stale_rings >= DIVERGENCE_PATIENCE:
                divergent = True
                notes.append(
                    f"no ring below {best_ring:.3e} in {DIVERGENCE_PATIENCE} "
                    "consecutive rings; the series is not settling and the "
                    "construction only yields the trivial invariant here"
                )
                break

        return InvariantReport(
            value=math.nan if divergent else total,
            truncation_n=completed_depth,
            partial_sums=tuple(partial),
            tail_estimate=last_increment,
            divergent=divergent,
            one_sided=one_sided,
            converged_early=converged_early,
            notes=tuple(notes),
        )


def series_invariant(
    map_instance: MapInstance,
    weight: WeightFunction,
    state: State,
    truncation: int,
    *,
    defect_horizon: int = 0,
) -> InvariantReport:
    """Truncated series sum_n p(T^n x) (f(T^{n-1} x) - f(T^n x)).

    f is the map's own objective and p the weight. Terms are added in the ring
    order 0, -1, +1, -2, +2, ... out to the truncation depth. Evaluation stops
    early once a whole ring falls below 1e-14, flags divergence when 32
    consecutive rings fail to set a new smallest ring magnitude, and falls back
    to the computable side when a backward step cannot be continued (the report
    says so). truncation_n in the report is the deepest completed ring, so a
    full two-sided run has exactly 2 * truncation_n + 1 partial sums.

    per_step_defect[k - 1] is |Phi(T^k x) - Phi(x)|: the same sum shifted by k,
    read from the one orbit window the value was summed on.
    """
    window = _OrbitWindow(Orbit(map_instance, state), weight, truncation)
    report = window.series_at(0, window.notes)
    if defect_horizon > 0 and not (report.divergent or report.fixed_point):
        defects = tuple(
            abs(window.series_at(k, []).value - report.value)
            for k in range(1, defect_horizon + 1)
        )
        report = replace(report, per_step_defect=defects)
    return report


def series_along_orbit(
    orbit: Orbit, weight: WeightFunction, truncation: int, indices
) -> list[float]:
    """Series values at T^t of the orbit's origin for each t in indices, summed
    on that one orbit."""
    window = _OrbitWindow(orbit, weight, truncation)
    return [window.series_at(t, []).value for t in indices]


def make_series_invariant(
    map_instance: MapInstance, weight: WeightFunction, truncation: int
) -> Callable[[State], float]:
    """Evaluator closure over the truncated series at a fixed depth."""

    def evaluate(x: State) -> float:
        return series_invariant(map_instance, weight, x, truncation).value

    return evaluate


def invariance_defect(
    phi,
    map_instance: MapInstance,
    state: State,
    horizon: int,
) -> float:
    """max over k in [1, horizon] of |phi(T^k x) - phi(x)| / (1 + |phi(x)|).

    When phi is the closed-form bipartite quadratic of this alternating-play
    map the defect is exactly 0.0: phi was built on the certified integer
    step, which conserves it along every orbit. Otherwise the orbit is
    iterated in float64 and the drift is measured numerically.
    """
    from .exact import certified_quadratic

    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if certified_quadratic(phi, map_instance):
        return 0.0
    base = float(phi(state))
    if math.isnan(base):
        return math.nan
    scale = 1.0 + abs(base)
    orb = Orbit(map_instance, state)
    worst = 0.0
    for k in range(1, horizon + 1):
        worst = max(worst, abs(float(phi(State(orb[k], map_instance.chart))) - base) / scale)
    return worst


def dphi_rank(payoff: PayoffData, eta1, eta2) -> tuple[np.ndarray, int]:
    """Gradient matrix of the bipartite quadratic and its numerical rank.

    Phi is the quadratic form z -> z.T H z / 2 with H = [[2/eta1 I, A],
    [A.T, -2/eta2 I]], so its differential at z is H z and the rank of H
    counts independent directions of variation. H is the certified integer
    form of the closed form built here over phi_den_unit, correctly rounded.
    It is nonsingular for positive step sizes, hence the rank equals the full
    bipartite dimension; singular values below DPHI_RANK_RTOL times the
    largest do not count.
    """
    from .exact import BipartiteInvariant

    phi = BipartiteInvariant(payoff, eta1, eta2)
    h = np.array([[ratio_to_float(v, phi._phi_den_unit) for v in row] for row in phi._h])
    sv = np.linalg.svd(h, compute_uv=False)
    rank = int(np.sum(sv > DPHI_RANK_RTOL * sv[0]))
    return h, rank
