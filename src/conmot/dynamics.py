"""Orbits, inverses, and fixed points.

Every map in the package is invertible on its working region, so orbits extend
in both directions. Forward steps are the cheap direction; backward steps are
closed-form for alternating play and damped Newton solves for the rest. An
inverse that leaves the declared region or the simplex interior raises rather
than silently projecting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartViolation, ConmotError, InversionError, NumericsError, RegionError
from .maps import MapInstance, _raw_step, rgd_sphere_step, step_with_defect
from .objectives import _tangent_frame, region_contains
from .state import State, renormalize

__all__ = [
    "InverseConfig",
    "OrbitSegment",
    "Orbit",
    "FixedPointSet",
    "inverse_step",
    "orbit",
    "detect_fixed_point",
]

# Default tolerance for calling a point fixed: ||T(x) - x|| <= this.
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class InverseConfig:
    """Newton settings for backward steps."""

    tolerance: float = 1e-12
    max_iterations: int = 60
    fd_step: float = 1e-7


_DEFAULT_CFG = InverseConfig()


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _fd_jacobian(func, y: np.ndarray, base: np.ndarray, h: float) -> np.ndarray:
    d = len(y)
    jac = np.empty((len(base), d))
    for j in range(d):
        probe = y.copy()
        probe[j] += h
        jac[:, j] = (func(probe) - base) / h
    return jac


def _invert_gd(map_instance: MapInstance, target: np.ndarray, cfg: InverseConfig) -> np.ndarray:
    obj = map_instance.objective
    eta = map_instance.float_step_sizes[0]

    def residual(y: np.ndarray) -> np.ndarray:
        return y - eta * obj.gradient(y) - target

    y = target.copy()
    r = residual(y)
    rn = _norm(r)
    eye = np.eye(len(y))
    for _ in range(cfg.max_iterations):
        if rn <= cfg.tolerance:
            if obj.region is not None and not region_contains(obj.region, y):
                raise RegionError("backward step left the objective's declared region")
            return y
        if obj.hessian is not None:
            jac = eye - eta * obj.hessian(y)
        else:
            jac = _fd_jacobian(residual, y, r, cfg.fd_step)
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -r, rcond=1e-6)[0]
        lam = 1.0
        for _ in range(40):
            candidate = y + lam * delta
            rc = residual(candidate)
            if _norm(rc) < rn:
                y, r, rn = candidate, rc, _norm(rc)
                break
            lam *= 0.5
        else:
            raise InversionError(
                "gd inversion stalled in the line search", last_iterate=y, residual=rn
            )
    raise InversionError(
        f"gd inversion did not reach {cfg.tolerance:.1e} in {cfg.max_iterations} iterations",
        last_iterate=y,
        residual=rn,
    )


def _invert_mwu(map_instance: MapInstance, target: np.ndarray, cfg: InverseConfig) -> np.ndarray:
    """Ambient-coordinate Newton with exact block renormalization per iterate.

    Both mwu variants are scale-invariant per block, so the Jacobian is
    singular along block-sum directions; lstsq picks the minimum-norm step and
    the renormalization removes the null component. An iterate that cannot
    stay strictly interior fails loudly instead of being projected back.
    """

    def forward(y: np.ndarray) -> np.ndarray:
        return _raw_step(map_instance, y)

    y = target.copy()
    r = forward(y) - target
    rn = _norm(r)
    for _ in range(cfg.max_iterations):
        if rn <= cfg.tolerance:
            return y
        jac = _fd_jacobian(forward, y, r + target, cfg.fd_step)
        # The block-sum null directions show up as noise-level singular
        # values in the differenced Jacobian; without a relative cutoff
        # lstsq amplifies the residual along them and Newton stalls.
        delta = np.linalg.lstsq(jac, -r, rcond=1e-6)[0]
        lam = 1.0
        accepted = False
        for _ in range(40):
            candidate = y + lam * delta
            if np.any(candidate <= 0.0):
                lam *= 0.5
                continue
            candidate, _ = renormalize(candidate, map_instance.chart)
            rc = forward(candidate) - target
            if _norm(rc) < rn:
                y, r, rn = candidate, rc, _norm(rc)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise InversionError(
                "mwu inversion left the simplex interior or stalled",
                last_iterate=y,
                residual=rn,
            )
    raise InversionError(
        f"mwu inversion did not reach {cfg.tolerance:.1e} in {cfg.max_iterations} iterations",
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


def _invert_rgd(map_instance: MapInstance, target: np.ndarray, cfg: InverseConfig) -> np.ndarray:
    """Damped Gauss-Newton in the tangent chart of the current iterate."""
    obj = map_instance.objective
    eta = map_instance.float_step_sizes[0]

    def forward(y: np.ndarray) -> np.ndarray:
        return rgd_sphere_step(obj, eta, y)

    # Reverse-step initial guess, re-normalized onto the sphere.
    y = rgd_sphere_step(obj, -eta, target)
    r = forward(y) - target
    rn = _norm(r)
    d = len(target)
    for _ in range(cfg.max_iterations):
        if rn <= cfg.tolerance:
            return y
        frame = _tangent_frame(y)
        jac = np.empty((d, d - 1))
        for j in range(d - 1):
            z = y + cfg.fd_step * frame[:, j]
            z /= np.linalg.norm(z)
            jac[:, j] = (forward(z) - (r + target)) / cfg.fd_step
        coeffs = np.linalg.lstsq(jac, -r, rcond=1e-6)[0]
        lam = 1.0
        accepted = False
        for _ in range(40):
            candidate = y + lam * (frame @ coeffs)
            candidate /= np.linalg.norm(candidate)
            rc = forward(candidate) - target
            if _norm(rc) < rn:
                y, r, rn = candidate, rc, _norm(rc)
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            raise InversionError(
                "sphere inversion stalled in the line search", last_iterate=y, residual=rn
            )
    raise InversionError(
        f"sphere inversion did not reach {cfg.tolerance:.1e} in {cfg.max_iterations} iterations",
        last_iterate=y,
        residual=rn,
    )


def inverse_step(
    map_instance: MapInstance, x: State, cfg: InverseConfig | None = None
) -> State:
    """T^{-1}(x): the unique preimage on the working region.

    Alternating play inverts in closed form; the other kinds run damped Newton
    to cfg.tolerance on the forward residual. Raises InversionError when the
    solve stalls and RegionError when the preimage leaves a declared region.
    """
    cfg = cfg or _DEFAULT_CFG
    if x.chart != map_instance.chart:
        raise ChartViolation("state chart does not match map chart")
    coords = x.coordinates
    kind = map_instance.kind
    if kind == "gd":
        prev = _invert_gd(map_instance, coords, cfg)
    elif kind in ("mwu_exp", "mwu_lin"):
        prev = _invert_mwu(map_instance, coords, cfg)
    elif kind == "alt_play":
        prev = _invert_alt_play(map_instance, coords)
    else:
        prev = _invert_rgd(map_instance, coords, cfg)
    prev, _ = renormalize(prev, map_instance.chart)
    return State(prev, map_instance.chart)


@dataclass(frozen=True)
class OrbitSegment:
    """A finite window of a bi-infinite orbit around its origin.

    forward[k] is T^{k+1}(origin) and backward[k] is T^{-(k+1)}(origin).
    forward_defects logs the pre-renormalization chart defect of each forward
    step. The fixed-point flags record that iteration stopped early because
    the next step moved less than the fixed-point tolerance; the mathematical
    continuation from there is the constant sequence.
    """

    origin: State
    forward: tuple[State, ...]
    backward: tuple[State, ...]
    forward_defects: tuple[float, ...]
    fixed_point_forward: bool = False
    fixed_point_backward: bool = False

    def state_at(self, k: int) -> State:
        """State at signed orbit index k within the stored window."""
        if k == 0:
            return self.origin
        if k > 0:
            if k > len(self.forward):
                if self.fixed_point_forward:
                    return self.forward[-1] if self.forward else self.origin
                raise IndexError(f"forward index {k} outside stored window")
            return self.forward[k - 1]
        if -k > len(self.backward):
            if self.fixed_point_backward:
                return self.backward[-1] if self.backward else self.origin
            raise IndexError(f"backward index {k} outside stored window")
        return self.backward[-k - 1]

    def indices(self) -> range:
        return range(-len(self.backward), len(self.forward) + 1)


class Orbit:
    """The two-sided orbit through origin, built lazily and kept by signed index.

    orb[n] is T^n(origin). Forward reads step with step_with_defect and keep
    each step's chart defect; backward reads run inverse_step. Each state is
    computed once. Each side keeps its first ConmotError and raises that same
    exception on any later read past it, without solving again.
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
            self._failures[forward] = exc
            raise
        return self.states[n]

    def _run(self, sign: int, n: int) -> tuple[int, bool]:
        """Steps on one side before the first fixed point within n, and whether
        one was met."""
        for k in range(1, n + 1):
            if self[sign * (k - 1)].distance_to(self[sign * k]) <= FIXED_POINT_TOL:
                return k - 1, True
        return n, False

    def segment(self, n_forward: int, n_backward: int = 0) -> OrbitSegment:
        """The window [-n_backward, n_forward] around the origin.

        A direction that reaches a fixed point is truncated and flagged.
        Inversion failures propagate with the backward step index attached;
        non-finite forward states raise NumericsError with the step index
        (alternating-play orbits grow exponentially, use the exact engine for
        long horizons).
        """
        if n_forward < 0 or n_backward < 0:
            raise ValueError("orbit lengths must be nonnegative")
        try:
            n_forward, fp_forward = self._run(1, n_forward)
        except ChartViolation as exc:
            k = self.last + 1
            raise NumericsError(
                f"forward step {k} produced an invalid state: {exc}", step_index=k
            ) from exc
        try:
            n_backward, fp_backward = self._run(-1, n_backward)
        except InversionError as exc:
            exc.step_index = self.first - 1
            raise
        except RegionError as exc:
            raise RegionError(f"backward step {self.first - 1}: {exc}") from exc
        fwd, back = range(1, n_forward + 1), range(1, n_backward + 1)
        return OrbitSegment(
            self.origin, tuple(self.states[k] for k in fwd), tuple(self.states[-k] for k in back),
            tuple(self.defects[k] for k in fwd), fp_forward, fp_backward,
        )


def orbit(
    map_instance: MapInstance, origin: State, n_forward: int, n_backward: int = 0
) -> OrbitSegment:
    """Iterate the map both ways from origin; see Orbit.segment."""
    return Orbit(map_instance, origin).segment(n_forward, n_backward)


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
