"""Orbits, inverses, and fixed points.

Every map in the package is invertible on its working region, so orbits extend
in both directions. Forward steps are the cheap direction; backward steps are
closed-form for alternating play and one damped Newton loop for the rest. The
loop solves in the coordinates of the chart's tangent frame at each iterate,
with the analytic Jacobian of the step rule (the chain rule through the
objective's Hessian); only an objective without a Hessian falls back to finite
differences along the frame. An inverse that leaves the declared region or the
simplex interior raises rather than silently projecting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartViolation, ConmotError, InversionError, RegionError
from .maps import MapInstance, _raw_step, gd_step, rgd_sphere_step, step_jacobian, step_with_defect
from .objectives import nearest_region_point, region_contains
from .state import Chart, State, renormalize, tangent_frame

__all__ = [
    "InverseConfig",
    "Orbit",
    "FixedPointSet",
    "inverse_step",
    "detect_fixed_point",
]

# Default tolerance for calling a point fixed: ||T(x) - x|| <= this.
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class InverseConfig:
    """Newton settings for backward steps."""

    tolerance: float = 1e-12
    max_iterations: int = 60


_DEFAULT_CFG = InverseConfig()

# Forward-difference step for the Jacobian of an objective without a Hessian.
FD_STEP = 1e-7


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _retract(chart: Chart, y: np.ndarray) -> np.ndarray | None:
    """The iterate y back on the chart; None when it left the simplex interior."""
    if chart.kind == "sphere":
        return y / np.linalg.norm(y)
    if chart.kind != "simplex-product":
        return y
    return None if np.any(y <= 0.0) else renormalize(y, chart)[0]


def _newton(map_instance: MapInstance, target: np.ndarray, cfg: InverseConfig) -> np.ndarray:
    """Damped Newton on T(y) = target in the tangent-frame coordinates at y.

    The Jacobian comes from step_jacobian, or from forward differences along
    the frame columns when the objective has no Hessian. Each step is halved
    until the retracted iterate lowers the residual norm.
    """
    kind, chart, obj = map_instance.kind, map_instance.chart, map_instance.objective
    eta = map_instance.float_step_sizes[0]
    name = {"gd": "gd", "rgd_sphere": "sphere"}.get(kind, "mwu")

    def residual(y: np.ndarray) -> np.ndarray:
        # gd skips _raw_step's region check: an intermediate iterate may leave
        # the region, and inverse_step checks the converged preimage instead.
        if kind == "gd":
            return gd_step(obj, eta, y) - target
        return _raw_step(map_instance, y) - target

    # The sphere starts from the reverse step, the other kinds from the target.
    y = rgd_sphere_step(obj, -eta, target) if kind == "rgd_sphere" else target.copy()
    r = residual(y)
    rn = _norm(r)
    for _ in range(cfg.max_iterations):
        if rn <= cfg.tolerance:
            return y
        frame = tangent_frame(chart, y)
        jac = step_jacobian(map_instance, y)
        if jac is None:
            jac = np.column_stack([(residual(y + FD_STEP * u) - r) / FD_STEP for u in frame.T])
        else:
            jac = jac @ frame
        try:  # a square system (the euclidean frame) is solved directly
            coeffs = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:  # not square, or singular
            coeffs = np.linalg.lstsq(jac, -r)[0]
        delta = frame @ coeffs
        lam = 1.0
        for _ in range(40):
            candidate = _retract(chart, y + lam * delta)
            if candidate is not None:
                rc = residual(candidate)
                if _norm(rc) < rn:
                    y, r, rn = candidate, rc, _norm(rc)
                    break
            lam *= 0.5
        else:
            stall = "left the simplex interior or stalled" if name == "mwu" else (
                "stalled in the line search")
            raise InversionError(f"{name} inversion {stall}", last_iterate=y, residual=rn)
    raise InversionError(
        f"{name} inversion did not reach {cfg.tolerance:.1e} in {cfg.max_iterations} iterations",
        last_iterate=y,
        residual=rn,
    )


def _invert_alt_play(map_instance: MapInstance, target: np.ndarray) -> np.ndarray:
    # Exact closed form: undo the Y half-step first, then the X half-step.
    payoff = map_instance.payoff
    eta1, eta2 = map_instance.float_step_sizes
    dx = payoff.dimension_x
    a = payoff.matrix
    x1, y1 = target[:dx], target[dx:]
    y0 = y1 - eta2 * (a.T @ x1)
    x0 = x1 - eta1 * (a @ y0)
    return np.concatenate([x0, y0])


def inverse_step(
    map_instance: MapInstance, x: State, cfg: InverseConfig | None = None
) -> State:
    """T^{-1}(x): the unique preimage on the working region.

    Alternating play inverts in closed form; the other kinds run damped Newton
    to cfg.tolerance on the forward residual. Raises InversionError when the
    solve stalls and RegionError when the preimage leaves a declared region
    and the region's nearest point does not step to x within cfg.tolerance.
    """
    cfg = cfg or _DEFAULT_CFG
    if x.chart != map_instance.chart:
        raise ChartViolation("state chart does not match map chart")
    if map_instance.kind == "alt_play":
        prev = _invert_alt_play(map_instance, x.coordinates)
    else:
        prev = _newton(map_instance, x.coordinates, cfg)
    region = map_instance.objective.region if map_instance.kind == "gd" else None
    if not region_contains(region, prev):
        # A start on the boundary can converge a rounding past it: take the
        # nearest region point when it still steps to x within the tolerance.
        prev = nearest_region_point(region, prev)
        if not (region_contains(region, prev)
                and _norm(_raw_step(map_instance, prev) - x.coordinates) <= cfg.tolerance):
            raise RegionError("backward step left the objective's declared region")
    prev, _ = renormalize(prev, map_instance.chart)
    return State(prev, map_instance.chart)


class Orbit:
    """The two-sided orbit through origin, built lazily and kept by signed index.

    orb[n] is T^n(origin). Forward reads step with step_with_defect and keep
    each step's chart defect; backward reads run inverse_step. Each state is
    computed once. A failed step sets the error's step_index to the index it
    could not compute; each side keeps that first failure and raises it again
    on any later read past it, without solving again.
    """

    def __init__(self, map_instance: MapInstance, origin: State) -> None:
        self.map, self.origin = map_instance, origin
        self.states, self.defects = {0: origin}, {}
        self.first = self.last = 0  # the stored indices run from first to last
        self._failures: dict[bool, ConmotError] = {}

    def __getitem__(self, n: int) -> State:
        if n in self.states:
            return self.states[n]
        forward = n > 0
        if forward in self._failures:
            raise self._failures[forward]
        try:
            while self.last < n:
                nxt, defect = step_with_defect(self.map, self.states[self.last])
                self.last += 1
                self.states[self.last], self.defects[self.last] = nxt, defect
            while self.first > n:
                prev = inverse_step(self.map, self.states[self.first])
                self.first -= 1
                self.states[self.first] = prev
        except ConmotError as exc:
            exc.step_index = self.last + 1 if forward else self.first - 1
            self._failures[forward] = exc
            raise
        return self.states[n]

    def _run(self, sign: int, n: int) -> int:
        """Steps on one side before the first fixed point within n."""
        for k in range(1, n + 1):
            if self[sign * (k - 1)].distance_to(self[sign * k]) <= FIXED_POINT_TOL:
                return k - 1
        return n

    def segment(self, n_forward: int, n_backward: int = 0) -> range:
        """The indices of the window [-n_backward, n_forward] around the origin.

        A side that reaches a fixed point (the next step moves less than
        FIXED_POINT_TOL) stops there, shorter than asked. The forward side is
        stepped first; a failure propagates as the orbit raised it.
        """
        if n_forward < 0 or n_backward < 0:
            raise ValueError("orbit lengths must be nonnegative")
        n_forward = self._run(1, n_forward)
        return range(-self._run(-1, n_backward), n_forward + 1)


def detect_fixed_point(
    map_instance: MapInstance, x: State, tolerance: float = FIXED_POINT_TOL
) -> bool:
    """Whether ||T(x) - x|| is within tolerance."""
    nxt, _ = step_with_defect(map_instance, x)
    return x.distance_to(nxt) <= tolerance


@dataclass(frozen=True)
class FixedPointSet:
    """Points verified to move less than ``tolerance`` under a map."""

    points: tuple[State, ...]
    tolerance: float

    @classmethod
    def from_candidates(
        cls,
        map_instance: MapInstance,
        candidates,
        tolerance: float = FIXED_POINT_TOL,
    ) -> "FixedPointSet":
        kept = tuple(
            s for s in candidates if detect_fixed_point(map_instance, s, tolerance)
        )
        return cls(points=kept, tolerance=tolerance)

    def __len__(self) -> int:
        return len(self.points)

    def contains(self, x: State, slack: float = 0.0) -> bool:
        tol = self.tolerance + slack
        return any(x.distance_to(p) <= tol for p in self.points)
