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
for every orbit. The closed form ``BipartiteInvariant`` is the one class that
builds M, M_inv and H, checks that identity and M M_inv == g^2 I, and
evaluates Phi; a failed certificate raises ConmotError when it is built, and
its orbits and its map step with its M. ``advance`` and ``retreat`` only
move the position; a read builds the state from the nearest built one, by one
product per step or by binary powering of M for a long jump, and computes the
quadratic once per position.

The payoff is one matrix A (rows for X, columns for Y). It, the engine and
the closed-form quadratic run on Python integers and Fractions alone; numpy
is imported only by the float reads of M and M_inv, the pair-scan kernel at
the end of the module and ``PayoffData.matrix``, when they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConmotError, StepSizeError
from .rationals import as_float, as_fraction, ratio_to_float

__all__ = [
    "PayoffData", "ExactAltOrbit", "BipartiteInvariant", "ConservationAudit", "conservation_audit",
    "difference_log_stats",
]


_NOT_A_MATRIX = "the payoff must be a non-empty 2-d matrix with rows of one length"


def _members(v) -> list:
    """The members of a list, tuple or numpy array, each read as a Python value;
    numpy is read through tolist(), so int64 entries beyond 2^53 stay exact."""
    v = v.tolist() if hasattr(v, "tolist") else v
    if not isinstance(v, (list, tuple)) or not v:
        raise ValueError(_NOT_A_MATRIX)
    return [e.tolist() if hasattr(e, "tolist") else e for e in v]


class PayoffData:
    """The payoff matrix A of the bilinear game x.T A y: its rows index X and
    its columns index Y.

    The entries are kept as exact Fractions (floats convert exactly);
    ``matrix`` is their read-only float64 array, built on first read.
    """

    __slots__ = ("exact", "_matrix")

    def __init__(self, matrix) -> None:
        rows = [_members(r) for r in _members(matrix)]
        nested = any(isinstance(v, (list, tuple)) for r in rows for v in r)
        if nested or len({len(r) for r in rows}) != 1:
            raise ValueError(_NOT_A_MATRIX)
        self.exact = tuple(tuple(as_fraction(v) for v in r) for r in rows)
        self._matrix = None

    @classmethod
    def from_matrix(cls, matrix) -> "PayoffData":
        """The same call as ``PayoffData(matrix)``."""
        return cls(matrix)

    @property
    def matrix(self):
        """The matrix as a read-only float64 numpy array."""
        if self._matrix is None:
            import numpy as np

            mat = np.array([[float(v) for v in r] for r in self.exact], dtype=float)
            mat.setflags(write=False)
            self._matrix = mat
        return self._matrix

    @property
    def dimension_x(self) -> int:
        return len(self.exact)

    @property
    def dimension_y(self) -> int:
        return len(self.exact[0])


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


class BipartiteInvariant:
    """Phi(X, Y) = |X|^2/eta1 - |Y|^2/eta2 + X.T A Y, and the integer step of
    alternating play on its game, which conserves it.

    Building it builds M, M_inv and H and checks the certificate, M.T H M ==
    g^2 H and M M_inv == g^2 I; a failed one raises ConmotError, so every
    closed form that exists is certified. Its exact orbits and its alt_play
    map step with its M, and it evaluates Phi with its H. It is callable on a
    State or any coordinate sequence: the point is put over one integer scale
    s (float64 inputs are exact binary rationals), and Phi is one integer
    numerator over phi_den_unit * s^2, so a float read is that quotient
    correctly rounded, the same float an exact orbit gives at the same point.
    """

    def __init__(self, payoff: PayoffData, eta1, eta2) -> None:
        self.payoff = payoff
        self.eta1, self.eta2 = eta1, eta2 = as_fraction(eta1), as_fraction(eta2)
        if eta1 <= 0 or eta2 <= 0:
            raise StepSizeError("step sizes must be positive")
        d = math.lcm(*(v.denominator for row in payoff.exact for v in row))  # A = At / D
        at = [[v.numerator * (d // v.denominator) for v in row] for row in payoff.exact]
        att = [list(col) for col in zip(*at)]
        p1, q1 = eta1.numerator, eta1.denominator
        p2, q2 = eta2.numerator, eta2.denominator
        c1, c2 = q1 * d, q2 * d
        zx, zy = _scaled(0, at), _scaled(0, att)
        # A step is two shears, X along At Y and then Y along At.T X'; [1] undoes one.
        half_x = [_blocks(c1, _scaled(s * p1, at), zy, c1) for s in (1, -1)]
        half_y = [_blocks(c2, zx, _scaled(s * p2, att), c2) for s in (1, -1)]
        self._m, self._m_inv = _matmul(half_y[0], half_x[0]), _matmul(half_x[1], half_y[1])
        self._h = _blocks(2 * p2 * c1, _scaled(p1 * p2, at), _scaled(p1 * p2, att), -2 * p1 * c2)
        self._at, self._d, self._g = at, d, c1 * c2
        self._kx, self._ky, self._kxy = p2 * c1, p1 * c2, p1 * p2
        self._phi_den_unit, self._dx = p1 * p2 * d, payoff.dimension_x
        if not self._certified():
            raise ConmotError("the exact conservation certificate failed")

    def _certified(self) -> bool:
        """M.T H M == g^2 H and M M_inv == g^2 I, both in exact integers."""
        g2 = self._g * self._g
        mt = [list(col) for col in zip(*self._m)]
        conserves = _matmul(_matmul(mt, self._h), self._m) == _scaled(g2, self._h)
        n = range(len(self._m))
        inverts = _matmul(self._m, self._m_inv) == [[g2 * (i == j) for j in n] for i in n]
        return conserves and inverts

    def _integer_state(self, xy) -> tuple[list, int]:
        """(coords, s) with xy == coords / s over the least common scale s. A
        finite float (numpy's float64 too) is read without making a Fraction."""
        vals = [(v if isinstance(v, float) and math.isfinite(v) else as_fraction(v))
                .as_integer_ratio() for v in xy]
        if len(vals) != len(self._m):
            raise ConmotError(f"state has length {len(vals)}, expected {len(self._m)}")
        s = math.lcm(*(d for _, d in vals))
        return [n * (s // d) for n, d in vals], s

    def _quadratic(self, coords: list) -> tuple:
        """(phi numerator, AX.T At AY) of integer coordinates over a scale s:
        Phi = num / (phi_den_unit s^2) and x.T A y = cross / (d s^2)."""
        ax, ay = coords[: self._dx], coords[self._dx :]
        cross = sum(x * s for x, s in zip(ax, _matvec(self._at, ay)))
        num = (self._kx * sum(v * v for v in ax) - self._ky * sum(v * v for v in ay)
               + self._kxy * cross)
        return num, cross

    def _float_matrices(self) -> tuple:
        """(M / g, M_inv / g) as read-only float64 arrays, each entry its
        integer over g correctly rounded once: the float step and its inverse."""
        import numpy as np

        out = tuple(np.array([[ratio_to_float(v, self._g) for v in row] for row in m])
                    for m in (self._m, self._m_inv))
        for m in out:
            m.setflags(write=False)
        return out

    def _ratio(self, xy) -> tuple[int, int]:
        coords, s = self._integer_state(getattr(xy, "coordinates", xy))
        return self._quadratic(coords)[0], self._phi_den_unit * s * s

    def exact(self, xy) -> Fraction:
        return Fraction(*map(int, self._ratio(xy)))

    def relative_gap(self, x, y) -> float:
        """|Phi(x) - Phi(y)| / (1 + max |Phi|), symmetric in the pair: one exact
        rational rounded once, at most 2 even where Phi(x) and Phi(y) round to inf."""
        (na, da), (nb, db) = self._ratio(x), self._ratio(y)
        if abs(na) * db > abs(nb) * da:  # swapped so that |b| >= |a|; da, db > 0
            (na, da), (nb, db) = (nb, db), (na, da)
        return ratio_to_float(abs(nb * da - na * db), da * (db + abs(nb)))

    def __call__(self, xy) -> float:
        return ratio_to_float(*self._ratio(xy))


@dataclass(slots=True)
class _Point:
    """The integer state at one position: coords / scale, scale = s_0 * g^|pos|."""

    pos: int
    coords: list
    scale: int
    g2_pow: int  # g^(2|pos|)
    quad: tuple | None = None  # (phi numerator, AX.T At AY), once read


class ExactAltOrbit:
    """One alternating-play orbit, on the step of its closed form phi, held in
    exact arithmetic.

    The public accessors return float64 snapshots (rounded from the exact
    rationals) or Fractions; internally nothing is ever rounded. ``advance``
    and ``retreat`` move the orbit position in either direction and are exact
    mutual inverses; the integers held at a position depend on it alone.
    """

    def __init__(self, phi: BipartiteInvariant, xy0) -> None:
        self._phi = phi
        coords, s0 = phi._integer_state(xy0)
        self._phi_den0 = phi._phi_den_unit * s0 * s0
        self._payoff_den0 = phi._d * s0 * s0
        self._origin = self._last = _Point(0, coords, s0, 1)
        self._power = ((True, 1), phi._m)  # the last M^k or M_inv^k used
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
    _ax = property(lambda self: self._here().coords[: self._phi._dx])
    _ay = property(lambda self: self._here().coords[self._phi._dx :])
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
            self._power = ((forward, k), _matpow(self._phi._m if forward else self._phi._m_inv, k))
        coords, g_k = _matvec(self._power[1], start.coords), self._phi._g**k
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
            p.quad = self._phi._quadratic(p.coords)
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

    def payoff_value_float(self) -> float:
        """Current bilinear value x.T A y as a float snapshot."""
        _, cross, g2_pow = self._quadratic()
        return ratio_to_float(cross, self._payoff_den0 * g2_pow)

    def phi_matches_start(self) -> bool:
        """Exact integer check that the quadratic still equals its t=0 value."""
        num, _, g2_pow = self._quadratic()
        return num == self._num0 * g2_pow

    def phi_and_defect_float(self) -> tuple[float, float]:
        """(phi, drift |phi_t - phi_0| / (1 + |phi_0|)) as floats from one exact
        comparison: while it holds, phi is the start level's kept float and 0.0."""
        if self.phi_matches_start():
            return self._phi0_float, 0.0
        phi, phi0 = self.phi_fraction(), Fraction(int(self._num0), int(self._phi_den0))
        return as_float(phi), float(abs(phi - phi0) / (1 + abs(phi0)))


def certified_quadratic(phi, map_instance) -> bool:
    """Whether phi is the closed form of this alternating-play map, built on a
    certified step and so conserved exactly along every orbit of the map. The
    game is compared by value: a phi built apart from the map's counts too."""
    return (
        isinstance(phi, BipartiteInvariant)
        and map_instance.kind == "alt_play"
        and phi.payoff.exact == map_instance.closed_form.payoff.exact
        and (phi.eta1, phi.eta2) == map_instance.step_sizes
    )


@dataclass(frozen=True)
class ConservationAudit:
    """Outcome of an exact conservation run for one alternating-play instance.

    ``identity_verified`` is True on every audit that returns: the orbit is
    built on the certified step, and a failed certificate raises instead."""

    identity_verified: bool
    steps: int
    checkpoints: int
    conserved: bool
    max_defect: float


def conservation_audit(
    payoff: PayoffData, eta1, eta2, xy0, steps: int, check_every: int = 200
) -> ConservationAudit:
    """Advance an exact orbit and check the quadratic at regular checkpoints.

    The matrix identity, certified once when the closed form is built, covers
    every step of every orbit; the checkpoint equalities re-confirm it on
    this orbit's actual integers. Both are exact, so max_defect is 0.0
    whenever conserved is True.
    """
    if steps < 0 or check_every < 1:
        raise ValueError("steps must be >= 0 and check_every >= 1")
    orbit_exact = ExactAltOrbit(BipartiteInvariant(payoff, eta1, eta2), xy0)
    checkpoints = range(check_every, steps + check_every, check_every)
    defects = []
    for k in checkpoints:
        orbit_exact.advance(min(k, steps) - orbit_exact.position)
        if not orbit_exact.phi_matches_start():
            defects.append(orbit_exact.phi_and_defect_float()[1])
    return ConservationAudit(
        identity_verified=True,
        steps=steps,
        checkpoints=len(checkpoints),
        conserved=not defects,
        max_defect=max(defects, default=0.0),
    )


# Window steps per stack of powers of M, renormalised together; the window
# is read one step at a time, so its scratch is one (d, B) block.
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

    M is the float step M/g of ``maps.step_points``, read from the closed form
    of (payoff, eta1, eta2) that this library entry builds and certifies for
    itself, since perfbench's tracer reads diffs and horizon at positions 3
    and 4. The dynamics is linear, so the distance between two orbits is
    exactly the norm of the evolved difference. The tail window is the last
    max(1, horizon // 5) steps (chaos._tail_start), and only it is evaluated:

    - the jump: each difference is carried to the first window step by one
      product with M^(tail_start + 1), got by binary powering;
    - the window: in chunks of _WINDOW_CHUNK steps, held as a stack of
      consecutive powers of M; each step is one product of a power with all
      carried differences into one reused (d, B) block, then squared norms,
      log2 and a running min and max; the next chunk's stack is this one
      times M^_WINDOW_CHUNK;
    - both products with the differences and the squared norms sum over the
      d coordinates in order, elementwise, never in a BLAS kernel picked by
      the batch width, so a row reads the same bits alone as in any batch.

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

    from .chaos import _tail_start

    diffs = np.atleast_2d(np.asarray(diffs, dtype=np.float64))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if np.any(np.max(np.abs(diffs), axis=1) == 0.0):
        raise ValueError("difference vectors must be nonzero")
    m = BipartiteInvariant(payoff, eta1, eta2)._float_matrices()[0]
    tail_start = _tail_start(horizon)
    u, row_e = _pow2_normalised(diffs, axes=1)
    jump, jump_e = _normalised_power(m, tail_start + 1)
    rows, scratch = np.empty((len(m), len(u))), np.empty((len(m), len(u)))

    def product(a, x):  # rows = a @ x for a (d, B) block x, summed over j in order
        np.multiply(a[:, :1], x[0], out=rows)
        for j in range(1, len(a)):
            np.add(rows, np.multiply(a[:, j:j + 1], x[j], out=scratch), out=rows)

    product(jump, np.ascontiguousarray(u.T))
    ut, carry_e = _pow2_normalised(rows, axes=0)
    logs = row_e + carry_e + float(jump_e)  # log2 of each row's scale

    window = horizon - tail_start
    chunk = min(_WINDOW_CHUNK, window)
    stack, stack_e = np.empty((chunk, len(m), len(m))), np.zeros(chunk)  # M^j / 2^stack_e[j]
    stack[0] = np.eye(len(m))
    for j in range(1, chunk):
        stack[j], e = _pow2_normalised(m @ stack[j - 1])
        stack_e[j] = stack_e[j - 1] + e
    step, step_e = _normalised_power(m, chunk)
    log2_sq = np.empty(len(u))
    lo, hi = np.full(len(u), np.inf), np.full(len(u), -np.inf)
    for first in range(0, window, chunk):
        for j in range(min(chunk, window - first)):
            product(stack[j], ut)
            squares = np.multiply(rows, rows, out=scratch)  # summed in order, too
            np.add(squares[0], squares[1], out=log2_sq)
            for sq in squares[2:]:
                log2_sq += sq
            np.log2(log2_sq, out=log2_sq)
            log2_sq += 2.0 * stack_e[j]
            np.minimum(lo, log2_sq, out=lo)
            np.maximum(hi, log2_sq, out=hi)
        stack, e = _pow2_normalised(step @ stack, axes=(1, 2))
        stack_e += step_e + e
    return 0.5 * lo + logs, 0.5 * hi + logs
