"""Exact integer-scaled alternating-play engine and its conservation proofs."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conmot import exact
from conmot.chaos import _relative_gap
from conmot.cli import main
from conmot.dynamics import inverse_step
from conmot.errors import ConmotError
from conmot.exact import (
    BipartiteInvariant,
    ExactAltOrbit,
    PayoffData,
    conservation_audit,
    difference_log_stats,
)
from conmot.invariants import dphi_rank
from conmot.maps import alternating_play, step_points
from conmot.rationals import as_fraction, ratio_to_float
from conmot.state import State, euclidean


PAY = PayoffData.from_matrix([[1]])
ETA = (Fraction(1, 10), Fraction(1, 5))


def _step(m, row):
    """T(row), through the one forward step."""
    return step_points(m, row)[0]


def test_identity_certificate_holds_for_the_reference_instance():
    assert exact._IntegerStep(PAY, *ETA).certified() is True


def test_identity_certificate_holds_for_random_dyadic_instances():
    rng = np.random.default_rng(77)
    for _ in range(20):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 4))
        matrix = [
            [Fraction(int(rng.integers(-1024, 1025)), 1024) for _ in range(dy)]
            for _ in range(dx)
        ]
        pay = PayoffData.from_matrix(matrix)
        e1 = Fraction(int(rng.integers(3, 129)), 256)
        e2 = Fraction(int(rng.integers(3, 129)), 256)
        assert exact._IntegerStep(pay, e1, e2).certified()


def test_exact_orbit_matches_float_steps_initially():
    ex = ExactAltOrbit(PAY, *ETA, (60, -25))
    ex.advance(1)
    np.testing.assert_allclose(ex.xy_float(), [57.5, -13.5])
    m = alternating_play(PAY, *ETA)
    s = State([60.0, -25.0], euclidean(2)).coordinates
    for _ in range(20):
        s, _ = step_points(m, s)
    ex.advance(19)
    np.testing.assert_allclose(ex.xy_float(), s, rtol=1e-12)


def test_retreat_is_the_exact_inverse_of_advance():
    ex = ExactAltOrbit(PAY, *ETA, (Fraction(3, 7), Fraction(-2, 9)))
    start = ex.xy_fractions()
    ex.advance(137)
    ex.retreat(137)
    assert ex.position == 0
    assert ex.xy_fractions() == start


def test_invariant_value_is_exactly_conserved_over_long_runs():
    ex = ExactAltOrbit(PAY, *ETA, (60, -25))
    assert ex.phi_fraction() == 31375
    ex.advance(500)
    assert ex.phi_matches_start()
    assert ex.phi_fraction() == 31375
    assert ex.phi_and_defect_float()[1] == 0.0
    # The coordinates themselves have grown far past float precision.
    assert max(abs(v) for v in ex.xy_float()) > 1e30


def test_backward_runs_conserve_too():
    ex = ExactAltOrbit(PAY, *ETA, (-20, 2))
    assert ex.phi_fraction() == 3940
    ex.retreat(300)
    assert ex.phi_matches_start()
    assert ex.position == -300


def test_conservation_audit_reports_exact_zero_defect():
    audit = conservation_audit(PAY, *ETA, (10, -50), steps=1000, check_every=200)
    assert audit.identity_verified is True
    assert audit.conserved is True
    assert audit.max_defect == 0.0
    assert audit.steps == 1000
    assert audit.checkpoints == 5


def test_conservation_audit_certifies_the_step_once(monkeypatch):
    calls = []
    certified = exact._IntegerStep.certified
    monkeypatch.setattr(exact._IntegerStep, "certified",
                        lambda self: calls.append(1) or certified(self))
    assert conservation_audit(PAY, *ETA, (10, -50), steps=400).identity_verified is True
    assert len(calls) == 1


def test_transition_matrix_matches_the_map_and_has_unit_determinant():
    m, _ = alternating_play(PAY, *ETA).alt_play_matrices
    s = np.array([60.0, -25.0])
    np.testing.assert_allclose(m @ s, [57.5, -13.5])
    # Two shear half-steps compose to a volume-preserving map.
    assert np.linalg.det(m) == pytest.approx(1.0)


def test_difference_log_stats_match_direct_float_orbits_at_short_horizon():
    rng = np.random.default_rng(5)
    diffs = rng.normal(size=(3, 2))
    lo, hi = difference_log_stats(PAY, *ETA, diffs, horizon=10)
    m, _ = alternating_play(PAY, *ETA).alt_play_matrices
    for row in range(3):
        d = diffs[row].copy()
        norms = []
        for _ in range(10):
            d = m @ d
            norms.append(np.linalg.norm(d))
        tail = np.log2(norms[-2:])  # last max(1, 10 // 5) steps
        assert lo[row] == pytest.approx(tail.min(), rel=1e-9)
        assert hi[row] == pytest.approx(tail.max(), rel=1e-9)


RECT = PayoffData.from_matrix([[Fraction(n, 4) for n in row] for row in ((1, -3, 5), (7, -1, 3))])


def test_the_float_step_and_its_inverse_are_the_integer_matrices_rounded_once():
    """On the basis vectors, step and inverse_step read the columns of M/g and
    M_inv/g, each entry its exact quotient correctly rounded."""
    m = alternating_play(RECT, *ETA)
    integer = exact._IntegerStep(RECT, *ETA)
    for matrix, move in ((integer.m, _step), (integer.m_inv, inverse_step)):
        for j, e in enumerate(np.eye(5)):
            got = move(m, State(e, m.chart).coordinates)
            want = np.array([ratio_to_float(row[j], integer.g) for row in matrix])
            assert got.tobytes() == want.tobytes()


def _fraction_integer_state(xy) -> tuple[list, int]:
    """(coords, s) read through as_fraction alone: the reference the float
    path of integer_state must match."""
    vals = [as_fraction(v) for v in xy]
    s = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (s // v.denominator) for v in vals], s


_COORDINATES = (st.floats(allow_nan=False, allow_infinity=False)
                | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
                | st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308])
                | st.integers(-2**80, 2**80) | st.fractions() | st.sampled_from(["0.1", "-3/7"]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_COORDINATES, min_size=5, max_size=5))
def test_integer_state_reads_floats_as_their_fractions_do(xy):
    coords, s = exact._IntegerStep(RECT, *ETA).integer_state(xy)
    assert (coords, s) == _fraction_integer_state(xy)
    assert all(type(v) is int for v in (*coords, s))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_integer_state_refuses_a_non_finite_float_as_as_fraction_does(bad):
    with pytest.raises(ValueError, match="^cannot convert a non-finite float to a rational$"):
        exact._IntegerStep(RECT, *ETA).integer_state([1.0, 2.0, bad, 0.5, 0.25])


def test_difference_log_stats_reject_degenerate_input():
    with pytest.raises(ValueError):
        difference_log_stats(PAY, *ETA, np.zeros((1, 2)), horizon=5)
    with pytest.raises(ValueError):
        difference_log_stats(PAY, *ETA, np.ones((1, 2)), horizon=0)


@pytest.mark.parametrize("shift", [-1070, -700, 600, 1000])
def test_difference_log_stats_take_huge_and_tiny_differences(shift):
    """Scaling a difference by 2^shift moves its log2 norms by exactly shift,
    also where its raw norm would overflow or underflow."""
    diffs = np.array([[3.0, -1.0], [1.0, 0.0], [-5.0, 7.0]])
    lo, hi = difference_log_stats(PAY, *ETA, diffs, horizon=300)
    lo_s, hi_s = difference_log_stats(PAY, *ETA, np.ldexp(diffs, shift), horizon=300)
    np.testing.assert_allclose(lo_s, lo + shift, rtol=1e-15)
    np.testing.assert_allclose(hi_s, hi + shift, rtol=1e-15)
    # A difference of 1e-200 is nonzero.
    (lo_tiny,), _ = difference_log_stats(PAY, *ETA, [[1e-200, 0.0]], horizon=300)
    assert lo_tiny == pytest.approx(lo[1] + math.log2(1e-200), rel=1e-15)


def _log2_of(square: Fraction) -> float:
    """log2 of a positive Fraction, accurate to the last bits of the float."""
    shift = square.numerator.bit_length() - square.denominator.bit_length()
    return shift + math.log2(square / Fraction(2) ** shift)


@st.composite
def integer_pair_differences(draw):
    dx, dy = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    matrix = [[draw(st.integers(-3, 3)) for _ in range(dy)] for _ in range(dx)]
    eta = st.sampled_from([Fraction(1, 2**k) for k in range(1, 5)])  # float M is exact
    diff = draw(st.lists(st.integers(-5, 5), min_size=dx + dy, max_size=dx + dy).filter(any))
    horizon = draw(st.one_of(st.just(1), st.integers(1, 400)))  # 1 has tail_start 0
    return PayoffData.from_matrix(matrix), draw(eta), draw(eta), diff, horizon


@settings(max_examples=40, deadline=None)
@given(integer_pair_differences())
def test_difference_log_stats_match_the_exact_orbit(case):
    """lo and hi are the min and max of log2 ||M^t d|| over the tail window,
    read exactly from ExactAltOrbit.

    float64 resolves M^t d only to about eps ||M^t|| ||d||. Where d lies (to
    within that) in an invariant subspace that M^t stretches far less than
    its dominant one, for instance the kernel of A or a contracting
    eigenvector of a rational M, no float64 evaluation recovers ||M^t d||;
    such instances are skipped by their exact condition number
    kappa_t = ||M^t||_F ||d|| / ||M^t d||, kept at or below 2^8 over the window.
    """
    payoff, e1, e2, diff, horizon = case
    lo, hi = difference_log_stats(payoff, float(e1), float(e2), [diff], horizon)
    step = exact._IntegerStep(payoff, e1, e2)  # M^t = step.m^t / g^t
    tail_start = horizon - max(1, horizon // 5)
    power = exact._matpow(step.m, tail_start + 1)
    orbit = ExactAltOrbit(payoff, e1, e2, diff)
    log2_d2 = _log2_of(Fraction(sum(v * v for v in diff)))
    window = []
    for t in range(tail_start + 1, horizon + 1):
        if t > tail_start + 1:
            power = exact._matmul(step.m, power)
        orbit.advance(t - orbit.position)
        log2_v2 = _log2_of(sum(v * v for v in orbit.xy_fractions()))
        log2_m2 = _log2_of(Fraction(int(sum(c * c for row in power for c in row)),
                                    int(step.g) ** (2 * t)))
        assume(0.5 * (log2_m2 + log2_d2 - log2_v2) <= 8)
        window.append(0.5 * log2_v2)
    for got, want in ((lo[0], min(window)), (hi[0], max(window))):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _in_order(stack, x):
    """stack @ x for a (k, d, d) stack and a (d, B) block, each entry summed
    over the inner index in order, as difference_log_stats sums."""
    return sum(stack[:, :, j, None] * x[j] for j in range(x.shape[0]))


def _stacked_log_stats(payoff, eta1, eta2, diffs, horizon):
    """difference_log_stats with each chunk of the window evaluated as one
    (chunk, d, B) stacked product, the reference for its per-step reads."""
    from conmot.chaos import _tail_start

    u, row_e = exact._pow2_normalised(diffs, axes=1)
    m = exact._certified_step(payoff, eta1, eta2).float_matrices()[0]
    tail_start = _tail_start(horizon)
    jump, jump_e = exact._normalised_power(m, tail_start + 1)
    u, carry_e = exact._pow2_normalised(_in_order(jump[None], u.T)[0].T, axes=1)
    logs = row_e + carry_e + float(jump_e)
    window = horizon - tail_start
    chunk = min(exact._WINDOW_CHUNK, window)
    stack, stack_e = np.empty((chunk, len(m), len(m))), np.zeros(chunk)
    stack[0] = np.eye(len(m))
    for j in range(1, chunk):
        stack[j], e = exact._pow2_normalised(m @ stack[j - 1])
        stack_e[j] = stack_e[j - 1] + e
    step, step_e = exact._normalised_power(m, chunk)
    ut = np.ascontiguousarray(u.T)
    lo, hi = np.full(len(u), np.inf), np.full(len(u), -np.inf)
    for first in range(0, window, chunk):
        n = min(chunk, window - first)
        rows = _in_order(stack[:n], ut)
        squares = sum(rows[:, i] * rows[:, i] for i in range(len(m)))
        log2_sq = np.log2(squares) + 2.0 * stack_e[:n, None]
        lo, hi = np.minimum(lo, log2_sq.min(axis=0)), np.maximum(hi, log2_sq.max(axis=0))
        stack, e = exact._pow2_normalised(step @ stack, axes=(1, 2))
        stack_e += step_e + e
    return 0.5 * lo + logs, 0.5 * hi + logs


@st.composite
def difference_batches(draw):
    d = draw(st.integers(2, 6))
    dx = draw(st.integers(1, d - 1))
    entry = st.integers(-1024, 1024).map(lambda k: Fraction(k, 1024))
    matrix = [[draw(entry) for _ in range(d - dx)] for _ in range(dx)]
    eta = st.integers(3, 128).map(lambda k: Fraction(k, 256))
    # Windows shorter than one chunk (horizon < 80) and windows of many.
    horizon = draw(st.one_of(st.integers(1, 79), st.integers(80, 2000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pairs = draw(st.integers(1, 300))
    scale = 10.0 ** rng.uniform(-200, 200, (n_pairs, 1))
    diffs = rng.uniform(-1.0, 1.0, (n_pairs, d)) * scale
    return PayoffData.from_matrix(matrix), float(draw(eta)), float(draw(eta)), diffs, horizon


@settings(max_examples=60, deadline=None)
@given(difference_batches())
def test_difference_log_stats_per_step_window_matches_the_stacked_products(case):
    """Each window step is the same product on the same shapes as one slice
    of a stacked product over the whole chunk, so every bit agrees."""
    lo, hi = difference_log_stats(*case)
    want_lo, want_hi = _stacked_log_stats(*case)
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


@st.composite
def short_difference_batches(draw):
    """difference_batches at horizons up to 200, where a batch of 300 read
    pair by pair stays cheap; the window still spans several chunks."""
    payoff, e1, e2, diffs, _ = draw(difference_batches())
    return payoff, e1, e2, diffs, draw(st.integers(1, 200))


@settings(max_examples=30, deadline=None)
@given(short_difference_batches())
def test_difference_log_stats_of_a_pair_do_not_depend_on_its_batch(case):
    """Each pair read alone gives the bits it gets inside its batch, at any
    batch width from 1 to 300 and any d from 2 to 6."""
    payoff, e1, e2, diffs, horizon = case
    lo, hi = difference_log_stats(payoff, e1, e2, diffs, horizon)
    for b, diff in enumerate(diffs):
        lo_b, hi_b = difference_log_stats(payoff, e1, e2, diff[None], horizon)
        assert (lo_b.tobytes(), hi_b.tobytes()) == (lo[b:b + 1].tobytes(), hi[b:b + 1].tobytes())


@pytest.mark.parametrize("n_pairs", [1000, 20000])
def test_difference_log_stats_peak_memory_is_bounded(n_pairs):
    """The window is read one step at a time, never as a whole or as a stack
    of steps: the traced peak is a few copies of the differences."""
    import conmot.chaos  # noqa: F401  (the first call imports it; keep that out of the trace)

    diffs = np.random.default_rng(3).uniform(-40, 40, (n_pairs, 2))
    tracemalloc.start()
    try:
        difference_log_stats(PAY, *ETA, diffs, horizon=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16 + 10 * diffs.nbytes


def test_initial_state_denominators_are_respected():
    ex = ExactAltOrbit(PAY, *ETA, ("0.25", Fraction(1, 3)))
    assert ex.xy_fractions() == [Fraction(1, 4), Fraction(1, 3)]
    ex.advance(3)
    ex.retreat(3)
    assert ex.xy_fractions() == [Fraction(1, 4), Fraction(1, 3)]


def test_payoff_value_tracks_the_bilinear_pairing():
    ex = ExactAltOrbit(PAY, *ETA, (60, -25))
    assert ex.payoff_value_float() == pytest.approx(60.0 * -25.0)
    ex.advance(1)
    assert ex.payoff_value_float() == pytest.approx(57.5 * -13.5)


# ---------------------------------------------------------------------------
# Algebraic laws of the position-only engine, on random dyadic games, compared
# as exact integers: the state at a position must not depend on the path.


@st.composite
def dyadic_orbits(draw):
    dx = draw(st.integers(1, 3))
    dy = draw(st.integers(1, 3))
    entry = st.integers(-1024, 1024).map(lambda k: Fraction(k, 1024))
    matrix = [[draw(entry) for _ in range(dy)] for _ in range(dx)]
    eta = st.integers(3, 128).map(lambda k: Fraction(k, 256))
    xy = [draw(st.integers(-640, 640).map(lambda k: Fraction(k, 64))) for _ in range(dx + dy)]
    return PayoffData.from_matrix(matrix), draw(eta), draw(eta), xy


def _integers(orb):
    """The exact state read at the current position: coordinates and scale."""
    here = orb._here()
    return [int(v) for v in here.coords], int(here.scale)


def _move(orb, n):
    if n >= 0:
        orb.advance(n)
    else:
        orb.retreat(-n)


@settings(max_examples=25, deadline=None)
@given(dyadic_orbits())
def test_one_float_step_each_way_is_the_exact_orbit_read_once(game):
    """On dyadic games every float product and sum is exact, so one float step
    and one float inverse step are the exact orbit moved by one, read once."""
    payoff, e1, e2, xy = game
    m = alternating_play(payoff, e1, e2)
    x = State(np.array([float(v) for v in xy]), m.chart)
    orb = ExactAltOrbit(*game)
    for move, position in ((_step, 1), (inverse_step, -1)):
        _move(orb, position - orb.position)
        assert move(m, x.coordinates).tobytes() == np.array(orb.xy_float()).tobytes()


@settings(max_examples=25, deadline=None)
@given(dyadic_orbits(), st.integers(0, 120), st.integers(0, 120))
def test_advance_composes(game, a, b):
    stepped = ExactAltOrbit(*game)
    stepped.advance(a)
    _integers(stepped)
    stepped.advance(b)
    direct = ExactAltOrbit(*game)
    direct.advance(a + b)
    assert stepped.position == direct.position == a + b
    assert _integers(stepped) == _integers(direct)


@settings(max_examples=25, deadline=None)
@given(dyadic_orbits(), st.integers(0, 120))
def test_retreat_undoes_advance(game, n):
    orb = ExactAltOrbit(*game)
    start = _integers(orb)
    orb.advance(n)
    _integers(orb)
    orb.retreat(n)
    assert orb.position == 0
    assert _integers(orb) == start
    assert orb.phi_matches_start()


@settings(max_examples=25, deadline=None)
@given(dyadic_orbits(), st.lists(st.integers(-40, 40), min_size=1, max_size=8))
def test_mixed_walks_hold_the_integers_of_their_position(game, moves):
    walker = ExactAltOrbit(*game)
    for move in moves:
        _move(walker, move)
        _integers(walker)
    direct = ExactAltOrbit(*game)
    _move(direct, walker.position)
    assert _integers(walker) == _integers(direct)
    assert np.array(walker.xy_float()).tobytes() == np.array(direct.xy_float()).tobytes()
    assert walker.phi_and_defect_float() == direct.phi_and_defect_float()
    assert walker.phi_matches_start()


@settings(max_examples=25, deadline=None)
@given(dyadic_orbits(), st.lists(st.integers(-40, 40), min_size=1, max_size=8))
def test_phi_reads_its_exact_value_correctly_rounded_at_every_position(game, moves):
    """A conserved phi reads as the start level's float, computed once; that
    is float(phi_fraction()) bit for bit wherever the walk goes."""
    orb = ExactAltOrbit(*game)
    for move in [0, *moves]:
        _move(orb, move)
        exact_phi = float(orb.phi_fraction()).hex()
        assert orb.phi_and_defect_float()[0].hex() == exact_phi
        assert [v.hex() for v in orb.phi_and_defect_float()] == [exact_phi, (0.0).hex()]
        assert orb.phi_and_defect_float()[1] == 0.0


def test_phi_reads_the_same_floats_without_the_start_level_shortcut(monkeypatch):
    orb = ExactAltOrbit(PAY, Fraction(1, 20), Fraction(1, 50), [-14, -5])
    fast = []
    for _ in range(30):
        orb.advance(7)
        fast.append(orb.phi_and_defect_float())
    monkeypatch.setattr(ExactAltOrbit, "phi_matches_start", lambda self: False)
    orb.retreat(30 * 7)
    for expected in fast:
        orb.advance(7)
        assert orb.phi_and_defect_float() == expected == (2740.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(dyadic_orbits(), st.data())
def test_the_closed_form_gap_is_its_exact_rational_rounded_once(game, data):
    """Exact, symmetric and never nan for finite points, levels beyond the
    float range included."""
    payoff, e1, e2, xy = game
    phi = BipartiteInvariant(payoff, e1, e2)
    point = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=len(xy), max_size=len(xy))
    x, y = data.draw(point), data.draw(point)
    a, b = phi.exact(x), phi.exact(y)
    gap = _relative_gap(phi, x, y)
    assert gap.hex() == float(abs(a - b) / (1 + max(abs(a), abs(b)))).hex()
    assert _relative_gap(phi, y, x).hex() == gap.hex()
    assert 0.0 <= gap <= 2.0


def test_the_closed_form_gap_of_opposite_levels_past_2_53_is_two():
    """Levels -+1.8014400342529364e16: the exact gap is below 2 and rounds to
    2.0, so 2.0 is the correctly rounded gap, not an overflow."""
    phi = BipartiteInvariant(PAY, Fraction(3, 256), Fraction(3, 256))
    x, y = (0.0, 14529496.0), (14529496.0, 0.0)
    a, b = phi.exact(x), phi.exact(y)
    assert float(a) == -float(b) == -1.8014400342529364e16
    exact_gap = abs(a - b) / (1 + max(abs(a), abs(b)))
    assert exact_gap < 2
    assert _relative_gap(phi, x, y) == 2.0 == float(exact_gap)


@settings(max_examples=25, deadline=None)
@given(dyadic_orbits())
def test_engine_steps_with_the_certified_matrix(game):
    payoff, e1, e2, xy = game
    certified = exact._IntegerStep(payoff, e1, e2)
    assert certified.certified() and exact._certified_step(payoff, e1, e2).m == certified.m
    v0, s0 = _integers(ExactAltOrbit(*game))
    g = int(certified.g)
    for move, matrix in ((1, certified.m), (-1, certified.m_inv)):
        orb = ExactAltOrbit(*game)
        _move(orb, move)
        expected = [sum(int(c) * v for c, v in zip(row, v0)) for row in matrix]
        assert _integers(orb) == (expected, s0 * g)
    # The step is alternating play: X moves first, then Y against the new X.
    fwd = ExactAltOrbit(*game)
    fwd.advance()
    x_new = [x + e1 * sum(a * y for a, y in zip(row, xy[len(payoff.exact):]))
             for x, row in zip(xy, payoff.exact)]
    dx = len(x_new)
    y_new = [y + e2 * sum(payoff.exact[i][j] * x_new[i] for i in range(dx))
             for j, y in enumerate(xy[dx:])]
    assert fwd.xy_fractions() == x_new + y_new


def test_a_failed_certificate_raises(monkeypatch, tmp_path, capsys):
    """Every reader of the integer step refuses a failed certificate with one
    message, _certified_step first. An alt_play config builds its closed form
    at load, so every command that reads one stops there, before any output."""
    monkeypatch.setattr(exact._IntegerStep, "certified", lambda self: False)
    message = "the exact conservation certificate failed"
    readers = [
        lambda: exact._certified_step(PAY, *ETA),
        lambda: ExactAltOrbit(PAY, *ETA, (60, -25)),
        lambda: BipartiteInvariant(PAY, *ETA),
        lambda: alternating_play(PAY, *ETA).alt_play_matrices,
        lambda: difference_log_stats(PAY, *ETA, [[1.0, 0.0]], 10),
        lambda: dphi_rank(PAY, *ETA),
    ]
    for read in readers:
        with pytest.raises(ConmotError, match=f"^{message}$"):
            read()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "map": {"kind": "alt_play", "payoff": {"matrix": [[1]]}, "step_sizes": ["1/10", "1/5"]},
        "initial_states": [[60, -25]],
        "invariant": {"kind": "closed-form"},
        "classify": {"x": [60, -25], "y": [57.5, -13.5]},
        "scan": {"pairs": 2, "horizon": 20},
        "seed": 1,
    }))
    for command in ("simulate", "invariant", "classify", "scan"):
        out = tmp_path / command
        assert main(["--config", str(config), "--out", str(out), command]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(out.iterdir())


def test_the_orbit_and_the_closed_form_read_the_same_float_at_the_start():
    # A start where a 64-bit leading-window quotient rounded Phi one ulp off.
    x0 = [-11.439523619558951, 18.975829069034646]
    orbit_phi = ExactAltOrbit(PAY, *ETA, x0).phi_and_defect_float()[0]
    assert orbit_phi == BipartiteInvariant(PAY, *ETA)(x0) == -708.8578826975653


@pytest.mark.parametrize(
    "etas",
    [(Fraction(-1, 10), Fraction(1, 5)), (0, Fraction(1, 5)), (Fraction(1, 10), 0),
     (Fraction(1, 10), -0.5)],
)
def test_the_certificate_rejects_nonpositive_step_sizes(etas):
    for build in (exact._IntegerStep, exact._certified_step, BipartiteInvariant):
        with pytest.raises(ConmotError, match="step sizes must be positive"):
            build(PAY, *etas)
