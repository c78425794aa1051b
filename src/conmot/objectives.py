"""Objective functions and step-size validation.

The catalog deliberately stays small: a strongly convex bowl, a double well
with two basins, a bounded bump, linear utilities, and the bilinear form
x.T A y of a payoff matrix as a gd objective (alternating play does not use
it: it steps on the payoff's certified integer matrix in ``exact``). Each
entry carries analytic gradient and Hessian callables plus, where
meaningful, a uniform entrywise Hessian bound L over the declared working
region. ``PayoffData``, the bilinear form's input, lives in ``exact`` with
the integer engine.

The step-size validators compare a step size with a bound derived from a
declared curvature bound only: a missing bound gives an unverifiable verdict,
and no bound is ever estimated by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .exact import PayoffData

__all__ = [
    "Box", "Ball", "region_contains", "nearest_region_point", "ObjectiveSpec", "StepSizeVerdict",
    "quadratic", "double_well", "bump", "linear", "bilinear", "validate_step_size_gd",
    "validate_step_size_manifold",
]

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


@dataclass(frozen=True)
class ObjectiveSpec:
    """A differentiable objective with the metadata the dynamics code needs.

    hessian_entry_bound is a uniform bound on |d2 f / dx_i dx_j| over the
    working region (or all of R^d when no region is declared). bounded records
    that f itself is bounded on its whole domain, which the series invariants
    accept in place of a compact region. gradient maps a (..., d) array of
    points to their (..., d) gradients, each row equal bit for bit to the
    gradient of that point alone; evaluate and hessian take one point. The
    hessian is required: the Newton inverses differentiate each step
    through it. An objective names no chart: MapInstance derives one from
    the map's kind and this dimension (gd a euclidean one, mwu a product of
    simplices, rgd the sphere).
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    hessian_entry_bound: float | None = None
    region: Box | Ball | None = None
    bounded: bool = False

    def __post_init__(self) -> None:
        if not callable(self.hessian):
            raise TypeError("objective hessian must be callable")


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
    )


def bilinear(payoff: PayoffData) -> ObjectiveSpec:
    """f(x, y) = <X, A Y> on euclidean(dx + dy), X then Y, split by the payoff."""
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
    )


# ---------------------------------------------------------------------------
# step-size validation


@dataclass(frozen=True)
class StepSizeVerdict:
    """Outcome of a step-size check.

    accepted is True/False for a definite verdict and None when the check was
    unverifiable (no curvature bound declared). bound is the strict upper
    limit the step size was compared against, and margin = bound - step_size.
    """

    accepted: bool | None
    step_size: float
    bound: float | None
    margin: float | None
    curvature_bound: float | None
    detail: str


def _verdict(step_size, curvature: float | None, bound_of, rule: str, absent: str,
             flat: str) -> StepSizeVerdict:
    """The verdict on step_size against the strict limit bound_of(curvature):
    unverifiable without a curvature bound, and every positive step passes a
    flat one."""
    eta = float(step_size)
    if eta <= 0.0:
        return StepSizeVerdict(False, eta, None, None, None, "step size must be positive")
    if curvature is None:
        return StepSizeVerdict(None, eta, None, None, None, f"no {absent}")
    if curvature == 0.0:
        return StepSizeVerdict(True, eta, math.inf, math.inf, 0.0,
                               f"flat {flat}, every step size passes")
    bound = bound_of(curvature)
    accepted = eta < bound
    return StepSizeVerdict(accepted, eta, bound, bound - eta, curvature,
                           f"eta < {rule} holds" if accepted else f"eta >= {rule}")


def validate_step_size_gd(objective: ObjectiveSpec, step_size) -> StepSizeVerdict:
    """Accept a gradient-descent step size iff eta < 2 / (d * L), strictly.

    d is the ambient dimension and L the objective's declared uniform
    entrywise Hessian bound; without one the verdict is unverifiable
    (accepted=None), which is distinct from a rejection. It is a descent
    bound: above 1 / (d * L), T need not be one-to-one, so a backward orbit
    may not be unique. It accepts eta = 0.3 on double_well(1), where T(1.3) =
    1.0309 < T(1.101), so T(1.3) has a second preimage (ROADMAP item 3).
    """
    return _verdict(step_size, objective.hessian_entry_bound,
                    lambda L: 2.0 / (objective.dimension * L), "2/(d*L)",
                    "curvature bound declared", "objective")


def validate_step_size_manifold(
    step_size, lipschitz_bound: float | None = None
) -> StepSizeVerdict:
    """Accept a sphere-retraction step size iff eta < 1 / L, strictly.

    L bounds the gradient Lipschitz constants of the retraction pullbacks;
    without it the verdict is unverifiable (accepted=None).
    """
    if lipschitz_bound is not None and lipschitz_bound < 0 and float(step_size) > 0.0:
        raise ValueError("lipschitz_bound must be nonnegative")
    return _verdict(step_size, lipschitz_bound, lambda L: 1.0 / L, "1/L",
                    "pullback Lipschitz bound supplied", "pullbacks")
