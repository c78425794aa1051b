"""Exact integer arithmetic for alternating bipartite play.

Alternating-play orbits grow exponentially and their conserved quadratic is a
difference of same-order terms, so float64 loses it to rounding. Here a state
is integer coordinates v = (AX, AY) over an integer scale S, and conservation
is an integer identity checked with equality, not with a tolerance.

With step sizes eta_i = p_i/q_i, At = D * A integer and g = q1*q2*D^2, a step
is v' = M v and S' = g S for one integer matrix M with integer inverse M_inv,
M M_inv = g^2 I. The state at position t is M^t v_0 (M_inv^|t| v_0 if t < 0)
over s_0 g^|t|. The quadratic is num = v.T H v / 2 over p1*p2*D*S^2, so it
is conserved iff num_t == num_0 * g^(2|t|), which M.T H M == g^2 H certifies
for every orbit. ``advance`` and ``retreat`` only move the position; a read builds
the state from the nearest built one, by one product per step or by binary
powering of M for a long jump, and computes the quadratic once per position.

The payoff, the engine and the closed-form quadratic run on Python integers
and Fractions alone; numpy is imported only by the float reads of M and
M_inv, the pair-scan kernel at the end of the module and
``PayoffData.matrix``, when they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConmotError
from .rationals import as_float, as_fraction, ratio_to_float

try:  # gmpy2 (the conmot[fast] extra) speeds up big integers; plain int is exact too
    from gmpy2 import mpz
except ImportError:  # pragma: no cover
    mpz = int

__all__ = [
    "PayoffData", "ExactAltOrbit", "BipartiteInvariant", "ConservationAudit", "conservation_audit",
    "verify_conservation_identity", "difference_log_stats",
]


def _plain(v):
    """v with lists, tuples and numpy arrays and scalars turned into nested
    Python lists and numbers, as numpy reads them into an object array."""
    if isinstance(v, (list, tuple)):
        return [_plain(e) for e in v]
    return v.tolist() if hasattr(v, "tolist") else v


def _shape(nested) -> tuple[int, ...]:
    """numpy's shape of a nested list as an object array: the leading levels
    whose members are all lists of one length."""
    shape, level = [], [nested]
    while level and all(isinstance(v, list) for v in level) and len({len(v) for v in level}) == 1:
        shape.append(len(level[0]))
        level = [e for v in level for e in v]
    return tuple(shape)


class PayoffData:
    """Block payoff matrices A^{ij} for a bipartite game.

    Row agents i in [n] hold strategies of size k1, column agents j in [m]
    hold strategies of size k2. The assembled matrix stacks the blocks and is
    kept as exact Fractions (floats convert exactly); ``matrix`` is its
    read-only float64 array, built on first read.
    """

    __slots__ = ("n", "m", "k1", "k2", "exact", "_matrix")

    def __init__(self, blocks) -> None:
        rows = list(blocks)
        if not rows or not all(len(r) == len(rows[0]) for r in rows):
            raise ValueError("payoff blocks must form a full n x m grid")
        n, m = len(rows), len(rows[0])
        first = _shape(_plain(rows[0][0]))
        if len(first) != 2:
            raise ValueError("each payoff block must be a 2-d matrix")
        k1, k2 = first
        exact_rows: list[list[Fraction]] = [[] for _ in range(n * k1)]
        for i, row in enumerate(rows):
            for j, block in enumerate(row):
                block = _plain(block)
                shape = _shape(block)
                if shape != (k1, k2):
                    raise ValueError(
                        f"payoff block ({i},{j}) has shape {shape}, expected {(k1, k2)}"
                    )
                for a in range(k1):
                    exact_rows[i * k1 + a].extend(as_fraction(v) for v in block[a])
        self.n, self.m, self.k1, self.k2 = n, m, k1, k2
        self.exact = tuple(tuple(r) for r in exact_rows)
        self._matrix = None

    @classmethod
    def from_matrix(cls, matrix) -> "PayoffData":
        """Whole matrix as the single block of a two-agent game."""
        return cls([[matrix]])

    @property
    def matrix(self):
        """The assembled matrix as a read-only float64 numpy array."""
        if self._matrix is None:
            import numpy as np

            mat = np.array([[float(v) for v in r] for r in self.exact], dtype=float)
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    @property
    def dimension_x(self) -> int:
        return self.n * self.k1

    @property
    def dimension_y(self) -> int:
        return self.m * self.k2

    def block(self, i: int, j: int):
        return self.matrix[i * self.k1 : (i + 1) * self.k1, j * self.k2 : (j + 1) * self.k2]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PayoffData(n={self.n}, m={self.m}, k1={self.k1}, k2={self.k2})"


def _matvec(rows: list[list], v: list) -> list:
    return [sum(c * x for c, x in zip(row, v) if c) for row in rows]


def _matmul(a: list[list], b: list[list]) -> list[list]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matpow(m: list[list], k: int) -> list[list]:
    """m^k for k >= 1 by binary powering."""
    result = None
    while True:
        if k & 1:
            result = m if result is None else _matmul(result, m)
        k >>= 1
        if not k:
            return result
        m = _matmul(m, m)


def _scaled(c, rows: list[list]) -> list[list]:
    return [[c * v for v in row] for row in rows]


def _blocks(cx, xy: list[list], yx: list[list], cy) -> list[list]:
    """The block matrix [[cx I, xy], [yx, cy I]]."""
    top = [[cx * (i == j) for j in range(len(xy))] + r for i, r in enumerate(xy)]
    return top + [r + [cy * (i == j) for j in range(len(yx))] for i, r in enumerate(yx)]


class _IntegerStep:
    """The integer step M, its integer inverse M_inv and the quadratic form H.

    This is the one place that knows Phi: the engine, the certificate and the
    closed-form invariant all read ``quadratic`` and ``h`` from here.
    """

    def __init__(self, payoff: PayoffData, eta1, eta2) -> None:
        self.eta = eta1, eta2 = as_fraction(eta1), as_fraction(eta2)
        if eta1 <= 0 or eta2 <= 0:
            raise ConmotError("step sizes must be positive")
        entries = [[as_fraction(v) for v in row] for row in payoff.exact]
        d = mpz(math.lcm(*(v.denominator for row in entries for v in row)))  # A = At / D
        at = [[v.numerator * (d // v.denominator) for v in row] for row in entries]
        att = [list(col) for col in zip(*at)]
        p1, q1 = mpz(eta1.numerator), mpz(eta1.denominator)
        p2, q2 = mpz(eta2.numerator), mpz(eta2.denominator)
        c1, c2 = q1 * d, q2 * d
        zx, zy = _scaled(0, at), _scaled(0, att)
        # A step is two shears, X along At Y and then Y along At.T X'; [1] undoes one.
        half_x = [_blocks(c1, _scaled(s * p1, at), zy, c1) for s in (1, -1)]
        half_y = [_blocks(c2, zx, _scaled(s * p2, att), c2) for s in (1, -1)]
        self.m, self.m_inv = _matmul(half_y[0], half_x[0]), _matmul(half_x[1], half_y[1])
        self.h = _blocks(2 * p2 * c1, _scaled(p1 * p2, at), _scaled(p1 * p2, att), -2 * p1 * c2)
        self.at, self.d, self.g = at, d, c1 * c2
        self.kx, self.ky, self.kxy = p2 * c1, p1 * c2, p1 * p2
        self.phi_den_unit = p1 * p2 * d
        self.dx, self.dim = payoff.dimension_x, len(self.m)

    def integer_state(self, xy) -> tuple[list, int]:
        """(coords, s) with xy == coords / s over the least common scale s."""
        vals = [as_fraction(v) for v in xy]
        if len(vals) != self.dim:
            raise ConmotError(f"state has length {len(vals)}, expected {self.dim}")
        s = mpz(math.lcm(*(v.denominator for v in vals)))
        return [mpz(v.numerator * (s // v.denominator)) for v in vals], s

    def quadratic(self, coords: list) -> tuple:
        """(phi numerator, AX.T At AY) of integer coordinates over a scale s:
        Phi = num / (phi_den_unit s^2) and x.T A y = cross / (d s^2)."""
        ax, ay = coords[: self.dx], coords[self.dx :]
        cross = sum(x * s for x, s in zip(ax, _matvec(self.at, ay)))
        num = (self.kx * sum(v * v for v in ax) - self.ky * sum(v * v for v in ay)
               + self.kxy * cross)
        return num, cross

    def certified(self) -> bool:
        """M.T H M == g^2 H and M M_inv == g^2 I, both in exact integers."""
        g2 = self.g * self.g
        mt = [list(col) for col in zip(*self.m)]
        conserves = _matmul(_matmul(mt, self.h), self.m) == _scaled(g2, self.h)
        n = range(len(self.m))
        inverts = _matmul(self.m, self.m_inv) == [[g2 * (i == j) for j in n] for i in n]
        return conserves and inverts

    def float_matrices(self) -> tuple:
        """(M / g, M_inv / g) as read-only float64 arrays, each entry its
        integer over g correctly rounded once: the float step and its inverse."""
        import numpy as np

        out = tuple(np.array([[ratio_to_float(v, self.g) for v in row] for row in m])
                    for m in (self.m, self.m_inv))
        for m in out:
            m.setflags(write=False)
        return out


@dataclass(slots=True)
class _Point:
    """The integer state at one position: coords / scale, scale = s_0 * g^|pos|."""

    pos: int
    coords: list
    scale: int
    g2_pow: int  # g^(2|pos|)
    quad: tuple | None = None  # (phi numerator, AX.T At AY), once read


class ExactAltOrbit:
    """One alternating-play orbit held in exact arithmetic.

    The public accessors return float64 snapshots (rounded from the exact
    rationals) or Fractions; internally nothing is ever rounded. ``advance``
    and ``retreat`` move the orbit position in either direction and are exact
    mutual inverses; the integers held at a position depend on it alone.
    """

    def __init__(self, payoff: PayoffData, eta1, eta2, xy0) -> None:
        self.payoff = payoff
        self._step = _IntegerStep(payoff, eta1, eta2)
        self.eta1, self.eta2 = self._step.eta
        coords, s0 = self._step.integer_state(xy0)
        if not self._step.certified():
            raise ConmotError("the integer step matrix failed its exact certificate")
        self._dx = self._step.dx
        self._phi_den0 = self._step.phi_den_unit * s0 * s0
        self._payoff_den0 = self._step.d * s0 * s0
        self._origin = self._last = _Point(0, coords, s0, mpz(1))
        self._power = ((True, 1), self._step.m)  # the last M^k or M_inv^k used
        self._pos = 0
        self._num0 = self._quadratic()[0]
        self._phi0_float = ratio_to_float(self._num0, self._phi_den0)

    @property
    def position(self) -> int:
        """Signed orbit index relative to the initial state."""
        return self._pos

    def advance(self, n: int = 1) -> None:
        self._pos += n

    def retreat(self, n: int = 1) -> None:
        self._pos -= n

    # The integer state at the current position, xy = (_ax + _ay) / _s.
    _ax = property(lambda self: self._here().coords[: self._dx])
    _ay = property(lambda self: self._here().coords[self._dx :])
    _s = property(lambda self: self._here().scale)

    def _here(self) -> _Point:
        """The state at the current position, built from the nearest built one."""
        t, start = self._pos, self._last
        if t == 0:
            return self._origin
        if start.pos == t:
            return start
        if start.pos * t <= 0 or abs(t - start.pos) >= abs(t):
            start = self._origin
        forward, k = t > start.pos, abs(t - start.pos)
        if self._power[0] != (forward, k):
            self._power = ((forward, k), _matpow(self._step.m if forward else self._step.m_inv, k))
        coords, g_k = _matvec(self._power[1], start.coords), self._step.g**k
        if abs(t) > abs(start.pos):
            self._last = _Point(t, coords, start.scale * g_k, start.g2_pow * g_k * g_k)
        else:  # toward t = 0: M_inv^k M^k == g^(2k) I, so the division is exact
            g2_k = g_k * g_k
            self._last = _Point(t, [v // g2_k for v in coords], start.scale // g_k,
                                start.g2_pow // g2_k)
        return self._last

    def _quadratic(self) -> tuple:
        """(phi numerator, AX.T At AY, g^(2|t|)) at the current position."""
        p = self._here()
        if p.quad is None:
            p.quad = self._step.quadratic(p.coords)
        return (*p.quad, p.g2_pow)

    def xy_float(self) -> tuple[float, ...]:
        p = self._here()
        return tuple(ratio_to_float(v, p.scale) for v in p.coords)

    def xy_fractions(self) -> list[Fraction]:
        p = self._here()
        return [Fraction(int(v), int(p.scale)) for v in p.coords]

    def phi_fraction(self) -> Fraction:
        num, _, g2_pow = self._quadratic()
        return Fraction(int(num), int(self._phi_den0 * g2_pow))

    def phi_float(self) -> float:
        return self.phi_and_defect_float()[0]

    def payoff_value_float(self) -> float:
        """Current bilinear value x.T A y as a float snapshot."""
        _, cross, g2_pow = self._quadratic()
        return ratio_to_float(cross, self._payoff_den0 * g2_pow)

    def phi_matches_start(self) -> bool:
        """Exact integer check that the quadratic still equals its t=0 value."""
        num, _, g2_pow = self._quadratic()
        return num == self._num0 * g2_pow

    def phi_defect_float(self) -> float:
        """Relative drift |phi_t - phi_0| / (1 + |phi_0|); exactly 0 when conserved."""
        return self.phi_and_defect_float()[1]

    def phi_and_defect_float(self) -> tuple[float, float]:
        """(phi_float(), phi_defect_float()) from one exact comparison: while it
        holds, phi is the start level, whose correctly rounded float is kept."""
        if self.phi_matches_start():
            return self._phi0_float, 0.0
        phi, phi0 = self.phi_fraction(), Fraction(int(self._num0), int(self._phi_den0))
        return as_float(phi), float(abs(phi - phi0) / (1 + abs(phi0)))


class BipartiteInvariant:
    """Phi(X, Y) = |X|^2/eta1 - |Y|^2/eta2 + X.T A Y.

    Callable on a State or any coordinate sequence. Evaluation reads the
    integer form of the exact engine (``_IntegerStep``): the point is put
    over one integer scale s (float64 inputs are exact binary rationals) and
    Phi is one integer numerator over phi_den_unit * s^2, so a float read is
    that quotient correctly rounded, the same float an exact orbit gives at
    the same point.
    """

    def __init__(self, payoff: PayoffData, eta1, eta2) -> None:
        self.payoff = payoff
        self._step = _IntegerStep(payoff, eta1, eta2)
        self.eta1, self.eta2 = self._step.eta

    def _ratio(self, xy) -> tuple[int, int]:
        coords, s = self._step.integer_state(getattr(xy, "coordinates", xy))
        return self._step.quadratic(coords)[0], self._step.phi_den_unit * s * s

    def exact(self, xy) -> Fraction:
        return Fraction(*map(int, self._ratio(xy)))

    def __call__(self, xy) -> float:
        return ratio_to_float(*self._ratio(xy))


def certified_quadratic(phi, instance) -> bool | None:
    """None when phi is not the closed-form quadratic of the alternating-play
    instance; otherwise whether its exact conservation certificate holds.

    ``instance`` is a MapInstance or a RunConfig: only their exact fields
    kind, payoff and step_sizes are read, so no float map is built.
    """
    if not (
        isinstance(phi, BipartiteInvariant)
        and instance.kind == "alt_play"
        and phi.payoff.exact == instance.payoff.exact
        and (phi.eta1, phi.eta2) == instance.step_sizes
    ):
        return None
    return phi._step.certified()


def verify_conservation_identity(payoff: PayoffData, eta1, eta2) -> bool:
    """Exact certificate for the integer step matrix M that ExactAltOrbit runs.

    No division happens. True means M.T H M == g^2 H, so the quadratic is
    constant along every orbit of this instance with zero defect, and
    M M_inv == g^2 I, so backward steps and moves toward t = 0 are exact.
    Step sizes that are not positive raise ConmotError.
    """
    return _IntegerStep(payoff, eta1, eta2).certified()


@dataclass(frozen=True)
class ConservationAudit:
    """Outcome of an exact conservation run for one alternating-play instance."""

    identity_verified: bool
    steps: int
    checkpoints: int
    conserved: bool
    max_defect: float


def conservation_audit(
    payoff: PayoffData, eta1, eta2, xy0, steps: int, check_every: int = 200
) -> ConservationAudit:
    """Advance an exact orbit and check the quadratic at regular checkpoints.

    The matrix identity already covers every step of every orbit; the
    checkpoint equalities re-confirm it on this orbit's actual integers. Both
    are exact, so max_defect is 0.0 whenever conserved is True.
    """
    if steps < 0 or check_every < 1:
        raise ValueError("steps must be >= 0 and check_every >= 1")
    identity = verify_conservation_identity(payoff, eta1, eta2)
    orbit_exact = ExactAltOrbit(payoff, eta1, eta2, xy0)
    checkpoints = range(check_every, steps + check_every, check_every)
    defects = []
    for k in checkpoints:
        orbit_exact.advance(min(k, steps) - orbit_exact.position)
        if not orbit_exact.phi_matches_start():
            defects.append(orbit_exact.phi_defect_float())
    return ConservationAudit(
        identity_verified=identity,
        steps=steps,
        checkpoints=len(checkpoints),
        conserved=not defects,
        max_defect=max(defects, default=0.0),
    )


def _tail_start(horizon: int) -> int:
    """Pair-orbit tails are the steps t > _tail_start(horizon): the last
    max(1, horizon // 5) steps of the horizon."""
    return horizon - max(1, horizon // 5)


# Window steps evaluated per batched product: a (chunk, d, B) buffer.
_WINDOW_CHUNK = 16


def _pow2_normalised(a, axes=None) -> tuple:
    """(a / 2^e, e) with e the binary exponent of max |a| over ``axes``
    (dropped from e's shape); dividing by a power of two is exact, so log2 of
    the scale is the integer e."""
    import numpy as np

    _, e = np.frexp(np.max(np.abs(a), axis=axes, keepdims=True))
    return np.ldexp(a, -e), np.squeeze(e, axis=axes)


def _normalised_power(m, k: int) -> tuple:
    """(p, e) with m^k == p * 2^e, by binary powering renormalised after
    every product; max |p| is in [1/2, 1) for k >= 1."""
    import numpy as np

    power, e = np.eye(len(m)), 0
    base, base_e = _pow2_normalised(m)
    base_e = int(base_e)
    while k:
        if k & 1:
            power, e_new = _pow2_normalised(power @ base)
            e += base_e + int(e_new)
        base, e_new = _pow2_normalised(base @ base)
        base_e = 2 * base_e + int(e_new)
        k >>= 1
    return power, e


def difference_log_stats(
    payoff: PayoffData,
    eta1,
    eta2,
    diffs,
    horizon: int,
) -> tuple:
    """Tail liminf/limsup of log2 ||M^t d|| for each difference vector.

    M is the float alternating-play step M/g of ``_IntegerStep``, the matrix
    that ``step`` multiplies by, for the exact step sizes eta1 and eta2. The
    dynamics is linear, so the distance between two orbits is exactly the
    norm of the evolved difference. The tail window is the last
    max(1, horizon // 5) steps, and only it is evaluated:

    - the jump: each difference is carried to the first window step by one
      product with M^(tail_start + 1), got by binary powering;
    - the window: in chunks of _WINDOW_CHUNK steps, one batched product of
      the carried differences with a stack of consecutive powers of M, then
      squared norms, log2 and a running min and max; the next chunk's stack
      is this one times M^_WINDOW_CHUNK.

    Every matrix and every row is scaled by a power of two after each
    product, with log2 of the scale kept apart as an integer, so no value
    overflows or underflows however far the orbits grow and however large or
    small the differences are. As in any float64 evaluation, ||M^t d|| is
    resolved only to about eps ||M^t|| ||d||: a difference that lies, to
    rounding, in an invariant subspace that M stretches less than its
    dominant one (the kernel of A, a contracting eigenvector) reads as noise.

    Returns (liminf_log2, limsup_log2), float64 arrays with one entry per
    row of diffs.
    """
    import numpy as np

    diffs = np.atleast_2d(np.asarray(diffs, dtype=np.float64))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if np.any(np.max(np.abs(diffs), axis=1) == 0.0):
        raise ValueError("difference vectors must be nonzero")
    m = _IntegerStep(payoff, eta1, eta2).float_matrices()[0]
    tail_start = _tail_start(horizon)
    u, row_e = _pow2_normalised(diffs, axes=1)
    jump, jump_e = _normalised_power(m, tail_start + 1)
    u, carry_e = _pow2_normalised(u @ jump.T, axes=1)
    logs = row_e + carry_e + float(jump_e)  # log2 of each row's scale

    window = horizon - tail_start
    chunk = min(_WINDOW_CHUNK, window)
    stack, stack_e = np.empty((chunk, len(m), len(m))), np.zeros(chunk)  # M^j / 2^stack_e[j]
    stack[0] = np.eye(len(m))
    for j in range(1, chunk):
        stack[j], e = _pow2_normalised(m @ stack[j - 1])
        stack_e[j] = stack_e[j - 1] + e
    step, step_e = _normalised_power(m, chunk)
    ut = np.ascontiguousarray(u.T)
    buf = np.empty((chunk, len(m), len(u)))
    sq = np.empty((chunk, len(u)))
    lo, hi = np.full(len(u), np.inf), np.full(len(u), -np.inf)
    for first in range(0, window, chunk):
        n = min(chunk, window - first)
        rows, log2_sq = buf[:n], sq[:n]
        np.matmul(stack[:n], ut, out=rows)
        np.einsum("kdb,kdb->kb", rows, rows, out=log2_sq)
        np.log2(log2_sq, out=log2_sq)
        log2_sq += 2.0 * stack_e[:n, None]
        np.minimum(lo, log2_sq.min(axis=0), out=lo)
        np.maximum(hi, log2_sq.max(axis=0), out=hi)
        stack, e = _pow2_normalised(step @ stack, axes=(1, 2))
        stack_e += step_e + e
    return 0.5 * lo + logs, 0.5 * hi + logs
