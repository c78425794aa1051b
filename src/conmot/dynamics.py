"""Orbits, inverses, and fixed points.

Every map in the package is invertible on its working region, so orbits extend
in both directions. Forward steps are the cheap direction; backward steps are
one product with M_inv/g for alternating play and one damped Newton loop for
the rest. The loop solves in the coordinates of the chart's tangent frame at
each iterate, with the analytic Jacobian of the step rule (the chain rule
through the Hessian that every objective carries). Each step is one square
solve on closed-form frames, at the iterate and at its image, with lstsq only
for a singular system: no factorization builds a frame. Its tolerance and
iteration cap are the module constants NEWTON_TOLERANCE and
NEWTON_MAX_ITERATIONS; a call takes no settings. An inverse that leaves the declared region or the
simplex interior raises rather than silently projecting.
"""

from __future__ import annotations

import numpy as np

from .errors import ConmotError, InversionError, RegionError
from .maps import MapInstance, _raw_step, gd_step, rgd_sphere_step, step_jacobian, step_points
from .objectives import nearest_region_point, region_contains
from .state import Chart, State, on_chart, renormalize, tangent_frame, validate_points

__all__ = [
    "Orbit",
    "inverse_step",
    "detect_fixed_point",
]

# The one tolerance for calling a point fixed: ||T(x) - x|| <= this. Orbit
# segments, detect_fixed_point, same_orbit and the series invariants read it.
FIXED_POINT_TOL = 1e-10

# Newton stops once the forward residual norm is within NEWTON_TOLERANCE, and
# fails after NEWTON_MAX_ITERATIONS steps.
NEWTON_TOLERANCE = 1e-12
NEWTON_MAX_ITERATIONS = 60


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _retract(chart: Chart, y: np.ndarray) -> np.ndarray | None:
    """The iterate y back on the chart; None when it left the simplex interior."""
    if chart.kind == "sphere":
        return y / np.linalg.norm(y)
    if chart.kind != "simplex-product":
        return y
    return None if np.any(y <= 0.0) else renormalize(y, chart)[0]


def _newton(map_instance: MapInstance, target: np.ndarray) -> np.ndarray:
    """Damped Newton on T(y) = target in the tangent-frame coordinates at y.

    The Jacobian comes from step_jacobian. Off the flat charts T maps onto
    its chart, so the columns of J F lie in the tangent space at T(y): with
    G the frame there, the least-squares step solves the square system
    (G^T J F) c = -G^T r. lstsq runs only when the system is singular.
    Each step is halved until the retracted iterate lowers the residual norm.
    """
    kind, chart, obj = map_instance.kind, map_instance.chart, map_instance.objective
    eta = map_instance.float_step_sizes[0]
    name = {"gd": "gd", "rgd_sphere": "sphere"}.get(kind, "mwu")
    flat = chart.kind not in ("simplex-product", "sphere")  # the frame is the identity

    def image(y: np.ndarray) -> np.ndarray:
        # gd skips _raw_step's region check: an intermediate iterate may leave
        # the region, and inverse_step checks the converged preimage instead.
        if kind == "gd":
            return gd_step(obj, eta, y)
        return _raw_step(map_instance, y)

    # The sphere starts from the reverse step, the other kinds from the target.
    y = rgd_sphere_step(obj, -eta, target) if kind == "rgd_sphere" else target.copy()
    ty = image(y)
    r = ty - target
    rn = _norm(r)
    for _ in range(NEWTON_MAX_ITERATIONS):
        if rn <= NEWTON_TOLERANCE:
            return y
        jac = step_jacobian(map_instance, y)
        if flat:
            lhs, rhs = jac, -r
        else:
            frame, out = tangent_frame(chart, y), tangent_frame(chart, ty).T
            jac = jac @ frame
            lhs, rhs = out @ jac, -(out @ r)
        try:
            coeffs = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:  # singular
            coeffs = np.linalg.lstsq(jac, -r)[0]
        delta = coeffs if flat else frame @ coeffs
        lam = 1.0
        for _ in range(40):
            candidate = _retract(chart, y + lam * delta)
            if candidate is not None:
                tc = image(candidate)
                rc = tc - target
                if _norm(rc) < rn:
                    y, ty, r, rn = candidate, tc, rc, _norm(rc)
                    break
            lam *= 0.5
        else:
            stall = "left the simplex interior or stalled" if name == "mwu" else (
                "stalled in the line search")
            raise InversionError(f"{name} inversion {stall}", last_iterate=y, residual=rn)
    raise InversionError(
        f"{name} inversion did not reach {NEWTON_TOLERANCE:.1e} in {NEWTON_MAX_ITERATIONS} "
        "iterations",
        last_iterate=y,
        residual=rn,
    )


def inverse_step(map_instance: MapInstance, row: np.ndarray) -> np.ndarray:
    """T^{-1}(row): the unique preimage on the working region, as a new row.

    Alternating play is one product with M_inv/g; the other kinds run damped
    Newton to NEWTON_TOLERANCE on the forward residual. Raises InversionError
    when the solve stalls and RegionError when the preimage leaves a declared
    region and the region's nearest point does not step to row within
    NEWTON_TOLERANCE. The preimage gets the chart checks of a State.
    """
    if map_instance.kind == "alt_play":
        prev = map_instance.alt_play_matrices[1] @ row
    else:
        prev = _newton(map_instance, row)
    region = map_instance.objective.region if map_instance.kind == "gd" else None
    if not region_contains(region, prev):
        # A start on the boundary can converge a rounding past it: take the
        # nearest region point when it still steps to row within the tolerance.
        prev = nearest_region_point(region, prev)
        if not (region_contains(region, prev)
                and _norm(_raw_step(map_instance, prev) - row) <= NEWTON_TOLERANCE):
            raise RegionError("backward step left the objective's declared region")
    prev, _ = renormalize(prev, map_instance.chart)
    return validate_points(prev, map_instance.chart)


class Orbit:
    """The two-sided orbit through origin, built lazily and kept by signed index.

    orb[n] is T^n(origin) as a read-only float64 row; orb[0] is the origin's
    coordinates. Forward reads run step_points and keep each step's chart
    defect in orb.defects; backward reads run inverse_step. Each row is
    computed once and kept in orb.rows. A failed step sets the error's
    step_index to the index it could not compute; each side keeps that first
    failure and raises it again on any later read past it, without solving
    again.
    """

    def __init__(self, map_instance: MapInstance, origin: State) -> None:
        self.map, self.origin = map_instance, origin
        self.rows, self.defects = {0: on_chart(origin, map_instance.chart)}, {}
        self.first = self.last = 0  # the stored indices run from first to last
        self._failures: dict[bool, ConmotError] = {}

    def __getitem__(self, n: int) -> np.ndarray:
        if n in self.rows:
            return self.rows[n]
        forward = n > 0
        if forward in self._failures:
            raise self._failures[forward]
        try:
            while self.last < n:
                nxt, defect = step_points(self.map, self.rows[self.last])
                nxt.setflags(write=False)
                self.last += 1
                self.rows[self.last], self.defects[self.last] = nxt, defect
            while self.first > n:
                prev = inverse_step(self.map, self.rows[self.first])
                prev.setflags(write=False)
                self.first -= 1
                self.rows[self.first] = prev
        except ConmotError as exc:
            exc.step_index = self.last + 1 if forward else self.first - 1
            self._failures[forward] = exc
            raise
        return self.rows[n]

    def fixed_at(self, n: int) -> bool:
        """Whether ||orb[n + 1] - orb[n]|| <= FIXED_POINT_TOL: orb[n] is fixed."""
        return _norm(self[n + 1] - self[n]) <= FIXED_POINT_TOL

    def _run(self, sign: int, n: int) -> int:
        """Steps on one side before the first fixed point within n."""
        fixed = (k for k in range(n) if self.fixed_at(k if sign > 0 else -k - 1))
        return next(fixed, n)

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


def detect_fixed_point(map_instance: MapInstance, x: State) -> bool:
    """Whether ||T(x) - x|| <= FIXED_POINT_TOL."""
    coords = on_chart(x, map_instance.chart)
    return _norm(coords - step_points(map_instance, coords)[0]) <= FIXED_POINT_TOL
