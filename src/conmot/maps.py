"""The map families: construction and forward steps.

Five kinds are supported, each a map T on its chart:

- ``gd``: x -> x - eta * grad f(x) on a euclidean chart.
- ``mwu_exp``: per-agent exponential weights on a product of simplices.
- ``mwu_lin``: the linearized variant; agrees with mwu_exp to O(eps^2).
- ``alt_play``: alternating bipartite play. The X update runs first and the
  Y update sees the already-updated X; that sequencing is what makes the
  closed-form invariant exact. The float step is one product with M/g, the
  exact engine's integer step over its scale, each entry rounded once.
- ``rgd_sphere``: projected gradient plus normalization retraction on the
  unit sphere.

Forward steps renormalize simplex and sphere states every step and report the
pre-renormalization chart defect, so float drift never accumulates and is
distinguishable from algorithmic non-conservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import state as charts
from .errors import ChartViolation, RegionError, StepSizeError
from .objectives import ObjectiveSpec, region_contains
from .rationals import as_fraction
from .state import Chart, State, on_chart, renormalize, validate_points

if TYPE_CHECKING:
    from .exact import PayoffData

__all__ = [
    "MAP_KINDS", "MapInstance", "gradient_descent", "mwu_exponential", "mwu_linear",
    "alternating_play", "sphere_rgd", "gd_step", "mwu_step", "rgd_sphere_step", "step_points",
    "step_jacobian", "descent_check",
]

MAP_KINDS = ("gd", "mwu_exp", "mwu_lin", "alt_play", "rgd_sphere")


@dataclass(frozen=True)
class MapInstance:
    """One concrete map: kind, parameters, and the chart it acts on, which
    construction derives from the kind: euclidean(d) for gd and sphere(d) for
    rgd_sphere (d the objective's dimension), euclidean(dx + dy) for alt_play,
    and simplex_product(*blocks) for the mwu kinds, the only ones with blocks.

    Step sizes are stored as exact Fractions (floats convert exactly, decimal
    strings are taken at face value); their float view is computed once. For
    mwu kinds step_sizes holds one entry per simplex block, for alt_play the
    pair (eta1, eta2), otherwise a single entry. An alt_play map needs its
    payoff and every other kind its objective; construction refuses a map
    without one, so every step and series reads the map's own.
    """

    kind: str
    step_sizes: tuple[Fraction, ...]
    objective: ObjectiveSpec | None = None
    payoff: PayoffData | None = None
    blocks: tuple[int, ...] = ()
    chart: Chart = field(init=False)

    def __post_init__(self) -> None:
        kind, obj, mwu = self.kind, self.objective, self.kind in ("mwu_exp", "mwu_lin")
        if kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {kind!r}")
        if kind == "alt_play" and self.payoff is None:
            raise ValueError("an alt_play map needs its payoff")
        if kind != "alt_play" and obj is None:
            raise ValueError(f"a {kind} map needs its objective")
        if self.blocks and not mwu:
            raise ValueError(f"a {kind} map takes no blocks")
        if kind == "alt_play":
            chart = charts.euclidean(self.payoff.dimension_x + self.payoff.dimension_y)
        elif mwu:
            chart = charts.simplex_product(*self.blocks)
            if obj.dimension != chart.dimension:
                raise ChartViolation(
                    f"objective dimension {obj.dimension} does not match blocks {chart.blocks}")
        else:
            chart = (charts.euclidean if kind == "gd" else charts.sphere)(obj.dimension)
        rates = tuple(as_fraction(s) for s in self.step_sizes)
        if mwu and len(rates) != len(chart.blocks):
            raise StepSizeError("need one learning rate per agent block")
        if any(s <= 0 for s in rates):
            raise StepSizeError("step sizes must be positive")
        self.__dict__.update(step_sizes=rates, blocks=chart.blocks if mwu else (), chart=chart)

    @cached_property
    def float_step_sizes(self) -> tuple[float, ...]:
        return tuple(float(s) for s in self.step_sizes)

    @cached_property
    def alt_play_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """alt_play's float step M/g and inverse M_inv/g, read from the
        certified integer matrices of the exact engine."""
        from .exact import _certified_step

        return _certified_step(self.payoff, *self.step_sizes).float_matrices()


def gradient_descent(objective: ObjectiveSpec, eta) -> MapInstance:
    """Gradient descent with step size eta; the map derives euclidean(d)."""
    return MapInstance("gd", (eta,), objective=objective)


def _mwu(kind: str, objective: ObjectiveSpec, eps, blocks) -> MapInstance:
    rates = (eps,) * len(blocks) if np.ndim(eps) == 0 else tuple(eps)
    return MapInstance(kind, rates, objective=objective, blocks=blocks)


def mwu_exponential(objective: ObjectiveSpec, eps, blocks) -> MapInstance:
    """Exponential-weights update; the map derives simplex_product(*blocks).

    eps is a scalar or one rate per agent; the same per-agent rate is used in
    the numerator weights and the normalizing sum.
    """
    return _mwu("mwu_exp", objective, eps, blocks)


def mwu_linear(objective: ObjectiveSpec, eps, blocks) -> MapInstance:
    """Linearized multiplicative-weights update; the map derives simplex_product(*blocks)."""
    return _mwu("mwu_lin", objective, eps, blocks)


def alternating_play(payoff: PayoffData, eta1, eta2) -> MapInstance:
    """Alternating bipartite play with rates (eta1, eta2) on the state X then Y;
    the map derives euclidean(dx + dy), and the payoff splits the two."""
    return MapInstance("alt_play", (eta1, eta2), payoff=payoff)


def sphere_rgd(objective: ObjectiveSpec, eta) -> MapInstance:
    """Riemannian gradient descent with the normalization retraction; the map derives sphere(d)."""
    return MapInstance("rgd_sphere", (eta,), objective=objective)


# ---------------------------------------------------------------------------
# raw step rules (array in, array out; each includes the map's own
# normalization where the definition has one). Each acts on every point of a
# (..., d) array, row by row bit for bit, and raises if any point fails.


def gd_step(objective: ObjectiveSpec, eta: float, x: np.ndarray) -> np.ndarray:
    return x - eta * objective.gradient(x)


def _mwu_factor(kind: str, eps: float, g: np.ndarray) -> np.ndarray:
    """The per-coordinate factor a(g) of one simplex block: exp(-eps g) for
    mwu_exp, shifted by the block minimum of g, which cancels in the ratio
    and prevents overflow; 1 - eps g for mwu_lin."""
    if kind == "mwu_exp":
        return np.exp(-eps * (g - g.min(-1, keepdims=True)))
    return 1.0 - eps * g


def mwu_step(map_instance: MapInstance, x: np.ndarray) -> np.ndarray:
    """Blockwise x_ij <- x_ij a(g_ij) / sum_s x_is a(g_is) with block i's rate.

    Zero coordinates keep zero weight, so simplex faces are preserved. Every
    mwu_lin factor on the support must stay positive; a non-positive factor
    means the step size is too large for this orbit and raises StepSizeError
    rather than leaving the simplex.
    """
    kind = map_instance.kind
    g = map_instance.objective.gradient(x)
    out = np.empty_like(x, dtype=float)
    for sl, eps in zip(map_instance.chart.block_slices(), map_instance.float_step_sizes):
        xb = x[..., sl]
        factors = _mwu_factor(kind, eps, g[..., sl])
        if kind == "mwu_lin" and (factors[xb > 0] <= 0.0).any():
            raise StepSizeError(
                f"mwu_lin factor {factors[xb > 0].min():.6g} is not positive; "
                "reduce the learning rate"
            )
        w = xb * factors
        s = w.sum(-1, keepdims=True)
        if s.min() <= 0.0:
            raise ChartViolation(f"a whole simplex block lost all mass in the {kind} update")
        np.divide(w, s, out=out[..., sl])
    return out


def rgd_sphere_step(objective: ObjectiveSpec, eta: float, x: np.ndarray) -> np.ndarray:
    """Project the gradient to the tangent space, step, retract by normalizing."""
    g = objective.gradient(x)
    tangent = g - x * np.vecdot(x, g)[..., None]
    z = x - eta * tangent
    n = np.sqrt(np.vecdot(z, z))[..., None]
    if n.min() <= 0.0:
        raise ChartViolation("retraction hit the origin; step size far too large")
    return z / n


@cache
def _identity(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def step_jacobian(map_instance: MapInstance, y: np.ndarray) -> np.ndarray:
    """dT/dy of the raw rule at one point y, in ambient coordinates, by the
    chain rule through the objective's Hessian. Defined for the kinds that
    take an objective.

    Each mwu block is w / sum(w) with weights w_j = y_j a(g_j), a = exp(-eps g)
    or 1 - eps g; the sphere rule is z / ||z|| with z = y - eta (g - y <y, g>).
    """
    obj = map_instance.objective
    h = obj.hessian(y)
    eye = _identity(len(y))
    rates = map_instance.float_step_sizes
    if map_instance.kind == "gd":
        return eye - rates[0] * h
    g = obj.gradient(y)
    if map_instance.kind == "rgd_sphere":
        eta, yg = rates[0], y @ g
        z = y - eta * (g - y * yg)
        n = np.linalg.norm(z)
        dz = eye - eta * (h - yg * eye - np.outer(y, g + h @ y))
        return (eye - np.outer(z, z) / (n * n)) @ dz / n
    jac = np.empty((len(y), len(y)))
    for sl, eps in zip(map_instance.chart.block_slices(), rates):
        yb = y[sl]
        a = _mwu_factor(map_instance.kind, eps, g[sl])
        da = -eps * a if map_instance.kind == "mwu_exp" else -eps
        dw = (yb * da)[:, None] * h[sl]
        dw[:, sl] += np.diag(a)
        s = yb @ a
        jac[sl] = (dw - np.outer(yb * a / s, dw.sum(0))) / s
    return jac


# ---------------------------------------------------------------------------
# dispatch


def _raw_step(map_instance: MapInstance, coords: np.ndarray) -> np.ndarray:
    kind = map_instance.kind
    rates = map_instance.float_step_sizes
    if kind == "gd":
        obj = map_instance.objective
        if obj.region is not None and not region_contains(obj.region, coords).all():
            raise RegionError("state lies outside the objective's declared region")
        return gd_step(obj, rates[0], coords)
    if kind in ("mwu_exp", "mwu_lin"):
        return mwu_step(map_instance, coords)
    if kind == "alt_play":
        return (map_instance.alt_play_matrices[0] @ coords[..., None])[..., 0]
    return rgd_sphere_step(map_instance.objective, rates[0], coords)


def step_points(map_instance: MapInstance, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T on every point of a (..., d) array, with the chart checks of a State,
    and the chart defect renormalize removed from each point (0.0 on a
    euclidean chart). Each row equals the call on that row alone, bit for bit,
    and the call raises if any point fails (a NaN that hides a failure from a
    minimum over points fails finiteness)."""
    out, defects = renormalize(_raw_step(map_instance, coords), map_instance.chart)
    return validate_points(out, map_instance.chart), defects


def descent_check(map_instance: MapInstance, x: State) -> float:
    """f(x) - f(T(x)) for the map's own objective f; positive when the step
    strictly decreased it."""
    coords = on_chart(x, map_instance.chart)
    after, _ = step_points(map_instance, coords)
    f = map_instance.objective.evaluate
    return f(coords) - f(after)
