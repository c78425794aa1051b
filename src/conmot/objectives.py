"""Objective functions and step-size validation.

The catalog deliberately stays small: a strongly convex bowl, a double well
with two basins, a bounded bump, linear utilities, and the bilinear coupling
used by the bipartite game dynamics. Each entry carries analytic gradient and
Hessian callables plus, where meaningful, a uniform entrywise Hessian bound L
over the declared working region. ``PayoffData``, the bilinear coupling's
input, lives in ``exact`` with the integer engine and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import state as charts
from .exact import PayoffData

__all__ = [
    "Box",
    "Ball",
    "region_contains",
    "nearest_region_point",
    "sample_region",
    "ObjectiveSpec",
    "PayoffData",
    "StepSizeVerdict",
    "quadratic",
    "double_well",
    "bump",
    "linear",
    "bilinear",
    "estimate_hessian_entry_bound",
    "estimate_pullback_lipschitz",
    "validate_step_size_gd",
    "validate_step_size_manifold",
]

# Safety factor applied to sampled curvature estimates.
ESTIMATE_SAFETY = 1.25


@dataclass(frozen=True)
class Box:
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi) or any(a > b for a, b in zip(lo, hi)):
            raise ValueError("box bounds must align and satisfy lower <= upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


def region_contains(region: Box | Ball | None, x: np.ndarray) -> bool | np.ndarray:
    """Whether x (each point of a (..., d) array) lies in the region; an absent
    region contains everything."""
    if region is None:
        return True
    x = np.asarray(x, dtype=float)
    if isinstance(region, Box):
        return ((x >= region.lower) & (x <= region.upper)).all(axis=-1)
    offset = x - np.asarray(region.center)
    return np.sqrt(np.vecdot(offset, offset)) <= region.radius


def nearest_region_point(region: Box | Ball, x: np.ndarray) -> np.ndarray:
    """The point of the region nearest to one point x: x clipped to a box, or
    x moved radially onto a ball it lies outside of."""
    x = np.asarray(x, dtype=float)
    if isinstance(region, Box):
        return np.clip(x, region.lower, region.upper)
    center = np.asarray(region.center)
    norm = float(np.linalg.norm(x - center))
    return x if norm <= region.radius else center + (x - center) * (region.radius / norm)


def sample_region(region: Box | Ball | None, rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Uniform draw from a box, a ball, or (absent region) a scaled normal."""
    if isinstance(region, Box):
        lo = np.asarray(region.lower)
        hi = np.asarray(region.upper)
        return rng.uniform(lo, hi)
    if isinstance(region, Ball):
        d = len(region.center)
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        r = region.radius * rng.uniform() ** (1.0 / d)
        return np.asarray(region.center) + r * v
    return 2.0 * rng.normal(size=dimension)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A differentiable objective with the metadata the dynamics code needs.

    hessian_entry_bound is a uniform bound on |d2 f / dx_i dx_j| over the
    working region (or all of R^d when no region is declared). bounded records
    that f itself is bounded on its whole domain, which the series invariants
    accept in place of a compact region. gradient maps a (..., d) array of
    points to their (..., d) gradients, each row equal bit for bit to the
    gradient of that point alone; evaluate and hessian take one point.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    hessian_entry_bound: float | None = None
    region: Box | Ball | None = None
    bounded: bool = False
    chart: charts.Chart | None = None


# ---------------------------------------------------------------------------
# catalog


def quadratic(dimension: int) -> ObjectiveSpec:
    """f(x) = 0.5 ||x||^2 on the ball of radius 10. L = 1."""
    return ObjectiveSpec(
        name="quadratic",
        dimension=dimension,
        evaluate=lambda x: 0.5 * float(x @ x),
        gradient=lambda x: np.asarray(x, dtype=float).copy(),
        hessian=lambda x: np.eye(len(x)),
        hessian_entry_bound=1.0,
        region=Ball(center=(0.0,) * dimension, radius=10.0),
        chart=charts.euclidean(dimension),
    )


def double_well(dimension: int = 1) -> ObjectiveSpec:
    """Separable double well sum_i (x_i^4/4 - x_i^2/2) on the box [-1.5, 1.5]^d.

    The Hessian is diag(3 x_i^2 - 1), so the entrywise bound on the box is
    3 * 1.5^2 - 1 = 5.75. Minima sit at +-1 per coordinate, with a local
    maximum at 0.
    """
    return ObjectiveSpec(
        name="double-well",
        dimension=dimension,
        evaluate=lambda x: float(np.sum(x**4) / 4.0 - np.sum(x**2) / 2.0),
        gradient=lambda x: np.asarray(x**3 - x, dtype=float),
        hessian=lambda x: np.diag(3.0 * x**2 - 1.0),
        hessian_entry_bound=5.75,
        region=Box(lower=(-1.5,) * dimension, upper=(1.5,) * dimension),
        chart=charts.euclidean(dimension),
    )


def bump(dimension: int) -> ObjectiveSpec:
    """f(x) = -1/(1 + ||x||^2), bounded on all of R^d with values in [-1, 0)."""

    def _eval(x: np.ndarray) -> float:
        return -1.0 / (1.0 + float(x @ x))

    def _grad(x: np.ndarray) -> np.ndarray:
        s = 1.0 + np.vecdot(x, x)[..., None]
        return 2.0 * x / (s * s)

    def _hess(x: np.ndarray) -> np.ndarray:
        s = 1.0 + float(x @ x)
        return 2.0 * np.eye(len(x)) / (s * s) - 8.0 * np.outer(x, x) / (s * s * s)

    # |H_ii| <= 2 at the origin and decays; off-diagonals are below 0.6.
    return ObjectiveSpec(
        name="bump",
        dimension=dimension,
        evaluate=_eval,
        gradient=_grad,
        hessian=_hess,
        hessian_entry_bound=2.0,
        bounded=True,
        chart=charts.euclidean(dimension),
    )


def linear(coefficients) -> ObjectiveSpec:
    """f(x) = <c, x>. L = 0, so every positive step size passes the gd bound."""
    c = np.asarray(coefficients, dtype=float).reshape(-1)
    c.setflags(write=False)
    d = len(c)
    return ObjectiveSpec(
        name="linear",
        dimension=d,
        evaluate=lambda x: float(c @ x),
        gradient=lambda x: np.ones(np.shape(x)) * c,
        hessian=lambda x: np.zeros((d, d)),
        hessian_entry_bound=0.0,
        chart=charts.euclidean(d),
    )


def bilinear(payoff: PayoffData) -> ObjectiveSpec:
    """f(x, y) = <X, A Y> on stacked bipartite coordinates."""
    a = payoff.matrix
    dx, dy = payoff.dimension_x, payoff.dimension_y
    d = dx + dy

    def _eval(z: np.ndarray) -> float:
        return float(z[:dx] @ a @ z[dx:])

    def _grad(z: np.ndarray) -> np.ndarray:
        # One matrix-vector product per point, the BLAS call of a single point.
        return np.concatenate(
            [(a @ z[..., dx:, None])[..., 0], (a.T @ z[..., :dx, None])[..., 0]], axis=-1)

    def _hess(z: np.ndarray) -> np.ndarray:
        h = np.zeros((d, d))
        h[:dx, dx:] = a
        h[dx:, :dx] = a.T
        return h

    bound = float(np.max(np.abs(a))) if a.size else 0.0
    return ObjectiveSpec(
        name="bilinear",
        dimension=d,
        evaluate=_eval,
        gradient=_grad,
        hessian=_hess,
        hessian_entry_bound=bound,
        chart=charts.bipartite_pair(dx, dy),
    )


# ---------------------------------------------------------------------------
# step-size validation


@dataclass(frozen=True)
class StepSizeVerdict:
    """Outcome of a step-size check.

    accepted is True/False for a definite verdict and None when the check was
    unverifiable (no curvature bound available and estimation not requested).
    bound is the strict upper limit the step size was compared against, and
    margin = bound - step_size. estimated marks sampled rather than certified
    curvature bounds.
    """

    accepted: bool | None
    step_size: float
    bound: float | None
    margin: float | None
    curvature_bound: float | None
    estimated: bool
    detail: str


def estimate_hessian_entry_bound(
    objective: ObjectiveSpec,
    rng: np.random.Generator,
    samples: int = 256,
    fd_step: float = 1e-4,
) -> float:
    """Sampled entrywise Hessian bound, times a 1.25 safety factor.

    Uses the analytic Hessian when present; otherwise central second
    differences of evaluate on random coordinate pairs.
    """
    worst = 0.0
    d = objective.dimension
    for _ in range(samples):
        x = sample_region(objective.region, rng, d)
        if objective.hessian is not None:
            worst = max(worst, float(np.max(np.abs(objective.hessian(x)))))
            continue
        i = int(rng.integers(d))
        j = int(rng.integers(d))
        ei = np.zeros(d)
        ej = np.zeros(d)
        ei[i] = fd_step
        ej[j] = fd_step
        f = objective.evaluate
        second = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (
            4.0 * fd_step * fd_step
        )
        worst = max(worst, abs(second))
    return ESTIMATE_SAFETY * worst


def estimate_pullback_lipschitz(
    objective: ObjectiveSpec,
    rng: np.random.Generator,
    samples: int = 128,
    fd_step: float = 1e-5,
) -> float:
    """Sampled Lipschitz bound for gradients of the sphere pullbacks f(Retr_x(s)).

    For each sampled base point the tangent Hessian of the pullback at 0 is
    approximated by finite differences in an orthonormal tangent frame; its
    spectral norm bounds the local gradient Lipschitz constant. The maximum
    over samples is inflated by the 1.25 safety factor.
    """
    d = objective.dimension
    worst = 0.0
    for _ in range(samples):
        x = rng.normal(size=d)
        x /= np.linalg.norm(x)
        u = charts.tangent_frame(charts.sphere(d), x)

        def pullback(s_coeffs: np.ndarray) -> float:
            z = x + u @ s_coeffs
            return objective.evaluate(z / np.linalg.norm(z))

        k = d - 1
        hess = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                ea = np.zeros(k)
                eb = np.zeros(k)
                ea[a] = fd_step
                eb[b] = fd_step
                val = (
                    pullback(ea + eb) - pullback(ea - eb) - pullback(-ea + eb) + pullback(-ea - eb)
                ) / (4.0 * fd_step * fd_step)
                hess[a, b] = hess[b, a] = val
        worst = max(worst, float(np.linalg.norm(hess, 2)) if k else 0.0)
    return ESTIMATE_SAFETY * worst


def validate_step_size_gd(
    objective: ObjectiveSpec,
    step_size,
    *,
    rng: np.random.Generator | None = None,
    samples: int = 256,
) -> StepSizeVerdict:
    """Accept a gradient-descent step size iff eta < 2 / (d * L), strictly.

    d is the ambient dimension and L the uniform entrywise Hessian bound. When
    the objective declares no bound, pass an rng to estimate one by sampling
    (the verdict is then marked estimated); with no rng the verdict is
    unverifiable (accepted=None), which is distinct from a rejection.
    """
    eta = float(step_size)
    if eta <= 0.0:
        return StepSizeVerdict(False, eta, None, None, None, False, "step size must be positive")
    curvature = objective.hessian_entry_bound
    estimated = False
    if curvature is None:
        if rng is None:
            return StepSizeVerdict(
                None, eta, None, None, None, False,
                "no curvature bound declared and estimation not requested",
            )
        curvature = estimate_hessian_entry_bound(objective, rng, samples=samples)
        estimated = True
    if curvature == 0.0:
        return StepSizeVerdict(
            True, eta, math.inf, math.inf, 0.0, estimated, "flat objective, every step size passes"
        )
    bound = 2.0 / (objective.dimension * curvature)
    accepted = eta < bound
    return StepSizeVerdict(
        accepted,
        eta,
        bound,
        bound - eta,
        curvature,
        estimated,
        "eta < 2/(d*L) holds" if accepted else "eta >= 2/(d*L)",
    )


def validate_step_size_manifold(
    objective: ObjectiveSpec,
    step_size,
    lipschitz_bound: float | None = None,
    *,
    rng: np.random.Generator | None = None,
    samples: int = 128,
) -> StepSizeVerdict:
    """Accept a sphere-retraction step size iff eta < 1 / L, strictly.

    L bounds the gradient Lipschitz constants of the retraction pullbacks.
    Supply it, or pass an rng to estimate it by sampling.
    """
    eta = float(step_size)
    if eta <= 0.0:
        return StepSizeVerdict(False, eta, None, None, None, False, "step size must be positive")
    estimated = False
    if lipschitz_bound is None:
        if rng is None:
            return StepSizeVerdict(
                None, eta, None, None, None, False,
                "no pullback Lipschitz bound supplied and estimation not requested",
            )
        lipschitz_bound = estimate_pullback_lipschitz(objective, rng, samples=samples)
        estimated = True
    if lipschitz_bound < 0:
        raise ValueError("lipschitz_bound must be nonnegative")
    if lipschitz_bound == 0.0:
        return StepSizeVerdict(
            True, eta, math.inf, math.inf, 0.0, estimated, "flat pullbacks, every step size passes"
        )
    bound = 1.0 / lipschitz_bound
    accepted = eta < bound
    return StepSizeVerdict(
        accepted,
        eta,
        bound,
        bound - eta,
        lipschitz_bound,
        estimated,
        "eta < 1/L holds" if accepted else "eta >= 1/L",
    )
