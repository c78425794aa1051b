"""Scrambled-pair estimates, level-set confinement, same-orbit classification."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conmot.chaos import (
    EPS_HIGH,
    EPS_LOW,
    _exp2_safe,
    _relative_gap,
    _tail_start,
    confinement_tally,
    pair_statistics,
    same_orbit,
)
from conmot.errors import ChartViolation, ConmotError, NumericsError, RegionError, StepSizeError
from conmot.exact import BipartiteInvariant, PayoffData, certified_quadratic, difference_log_stats
from conmot.maps import (
    alternating_play,
    gradient_descent,
    mwu_exponential,
    mwu_linear,
    sphere_rgd,
    step_points,
)
from conmot.objectives import Box, ObjectiveSpec, bump, double_well, linear, quadratic
from conmot.state import State, euclidean, sample_chart, simplex_product

PAY = PayoffData.from_matrix([[1]])
ETA = (Fraction(1, 10), Fraction(1, 5))


def _alt():
    return alternating_play(PAY, *ETA)


def _phi():
    return BipartiteInvariant(PAY, *ETA)


def _bp(x, y):
    return State([float(x), float(y)], euclidean(2))


def _image(m, s):
    """T(s) as a State, through the one forward step."""
    return State(step_points(m, s.coordinates), s.chart)


def _stack(pairs):
    """The (2, B, d) array of chart rows that pair_statistics reads: the x
    points of the pairs, then their y points."""
    return np.array([[x.coordinates for x, _ in pairs], [y.coordinates for _, y in pairs]])


def _pair_reports(m, pairs, horizon, **eps):
    """(liminf, limsup, verdict) per pair, from one pair_statistics call."""
    return list(zip(*pair_statistics(m, _stack(pairs), horizon, **eps), strict=True))


def test_identical_points_are_rejected():
    with pytest.raises(ValueError):
        pair_statistics(_alt(), _stack([(_bp(1, 2), _bp(1, 2))]), 100)


def test_gd_contraction_pairs_converge():
    m = gradient_descent(quadratic(2), 0.5)
    x = State([1.0, 0.0], euclidean(2))
    y = State([0.0, 1.0], euclidean(2))
    ((liminf, limsup, verdict),) = _pair_reports(m, [(x, y)], 400)
    assert verdict == "converging-pair"
    assert limsup <= 1e-6
    assert liminf <= limsup


def test_cross_level_alt_play_pair_is_never_a_scramble_candidate():
    x, y = _bp(60, -25), _bp(10, -50)
    ((liminf, _, verdict),) = _pair_reports(_alt(), [(x, y)], 10_000)
    assert verdict != "scramble-candidate"
    assert liminf > 1e-6
    assert _relative_gap(_phi(), x, y) > 0.0


def test_separated_pairs_on_growing_orbits():
    ((_, _, verdict),) = _pair_reports(_alt(), [(_bp(60, -25), _bp(60.5, -25))], 2000)
    assert verdict == "separated"
    assert _tail_start(2000) == 2000 - 400


def test_estimate_is_symmetric_in_the_pair():
    x, y = _bp(60, -25), _bp(10, -50)
    (a,) = _pair_reports(_alt(), [(x, y)], 500)
    (b,) = _pair_reports(_alt(), [(y, x)], 500)
    assert a == b
    assert _relative_gap(_phi(), x, y) == _relative_gap(_phi(), y, x)


def test_batched_reports_match_single_pair_calls():
    pairs = [(_bp(60, -25), _bp(10, -50)), (_bp(1, 1), _bp(2, -1))]
    batch = _pair_reports(_alt(), pairs, 300)
    for (x, y), (liminf, limsup, verdict) in zip(pairs, batch, strict=True):
        ((single_inf, single_sup, single_verdict),) = _pair_reports(_alt(), [(x, y)], 300)
        assert verdict == single_verdict
        assert liminf == pytest.approx(single_inf, rel=1e-9)
        assert limsup == pytest.approx(single_sup, rel=1e-9)


@pytest.mark.parametrize(
    "log2_value, expected",
    [(1023.0, 2.0**1023), (1023.5, 2.0**1023.5), (1024.0, math.inf), (-1100.0, 0.0)],
)
def test_estimates_are_infinite_only_where_the_power_overflows(log2_value, expected):
    assert _exp2_safe(log2_value) == expected


def test_the_tracer_indexed_arguments_keep_their_positions():
    """perfbench/tracer.py counts pair-steps from positional arguments, diffs
    and horizon of difference_log_stats. Moving them would zero its counts
    silently."""
    assert list(inspect.signature(difference_log_stats).parameters)[3:5] == ["diffs", "horizon"]


def _one_map_per_kind():
    return [
        gradient_descent(quadratic(2), 0.5),
        mwu_exponential(quadratic(2), 0.1, (2,)),
        _alt(),
        sphere_rgd(linear([1.0, 2.0, 3.0]), 0.1),
    ]


@pytest.mark.parametrize("shape", [(2, 1, 3), (2, 1, 1), (1, 1, 2), (2, 2), (3, 1, 2)])
def test_pair_rows_of_the_wrong_shape_raise_a_chart_violation(shape):
    m = gradient_descent(quadratic(2), 0.5)
    z = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
    with pytest.raises(ChartViolation, match=r"expects \(2, B, 2\)"):
        pair_statistics(m, z, 10)


@pytest.mark.parametrize("m, bad", [
    (mwu_exponential(quadratic(2), 0.1, (2,)), [0.3, 0.5]),  # sums to 0.8
    (mwu_exponential(quadratic(2), 0.1, (2,)), [1.2, -0.2]),
    (sphere_rgd(linear([1.0, 2.0, 3.0]), 0.1), [2.0, 0.0, 0.0]),
    (gradient_descent(quadratic(2), 0.5), [math.nan, 0.0]),
])
def test_a_row_off_the_chart_raises_a_chart_violation(m, bad):
    good = sample_chart(m.chart, np.random.default_rng(3)).coordinates
    for z in ([[good], [bad]], [[bad], [good]]):
        with pytest.raises(ChartViolation):
            pair_statistics(m, np.array(z), 10)


def test_the_chart_checks_run_on_a_copy_of_the_rows():
    """A tiny negative weight is clamped to 0 as a State clamps it, in the
    rows that are stepped, while the caller's array keeps it."""
    m = mwu_exponential(quadratic(2), 0.1, (2,))
    chart = m.chart
    z = np.array([[[-1e-17, 1.0]], [[0.4, 0.6]]])
    before = z.copy()
    got = pair_statistics(m, z, 20)
    assert np.array_equal(z, before)
    pairs = [(State(z[0, 0], chart), State(z[1, 0], chart))]
    assert pairs[0][0].coordinates[0] == 0.0
    assert got == pair_statistics(m, _stack(pairs), 20)


@pytest.mark.parametrize("m", _one_map_per_kind(), ids=lambda m: m.kind)
def test_an_empty_batch_gives_three_empty_lists(m):
    assert pair_statistics(m, np.empty((2, 0, m.chart.dimension)), 10) == ([], [], [])


@pytest.mark.parametrize("eps", [0.0, -1e-6, math.inf, math.nan])
@pytest.mark.parametrize("which", ["eps_low", "eps_high"])
def test_thresholds_must_be_positive_and_finite_on_every_kind(which, eps):
    rng = np.random.default_rng(5)
    for m in _one_map_per_kind():
        z = np.array([[sample_chart(m.chart, rng).coordinates] for _ in "xy"])
        with pytest.raises(ValueError, match=f"^{which} must be positive and finite"):
            pair_statistics(m, z, 10, **{which: eps})


def test_confinement_scan_completes_on_the_certified_instance():
    rng = np.random.default_rng(99)
    m = _alt()
    phi = _phi()
    pairs = []
    while len(pairs) < 40:
        a = State(10.0 * rng.normal(size=m.chart.dimension), m.chart)
        b = State(10.0 * rng.normal(size=m.chart.dimension), m.chart)
        pa, pb = phi(a), phi(b)
        if abs(pa - pb) / (1.0 + max(abs(pa), abs(pb))) > 1e-3:
            pairs.append((a, b))
    assert certified_quadratic(phi, m)
    _, _, verdicts = pair_statistics(m, _stack(pairs), 2000)
    rep = confinement_tally(m, verdicts, [_relative_gap(phi, x, y) for x, y in pairs], 1e-9)
    assert rep.status == "completed"
    assert rep.checked_pairs == 40
    assert rep.refutations == ()
    assert rep.continuity_caveat is False
    assert sum(rep.verdict_counts.values()) == 40


def test_orbit_signature_gap():
    m = _alt()
    phi = _phi()
    x, y = _bp(60, -25), _bp(-20, 2)
    assert (phi(x), phi(y)) == (31375.0, 3940.0)
    v = same_orbit(m, x, y, 50, 1e-9, phis=(phi,))
    assert (v.answer, v.search_mode) == ("no", "invariant-filter")
    assert v.invariant_gap > 0.5
    assert same_orbit(m, x, x, 50, 1e-9, phis=(phi,)).invariant_gap == 0.0


def test_same_orbit_gap_is_symmetric():
    """The gap divides by 1 + max |phi|, whichever point is x."""
    m, phis = _alt(), (_phi(),)
    x, y = _bp(60, -25), _bp(-20, 2)
    forward = same_orbit(m, x, y, 50, 1e-9, phis=phis).invariant_gap
    assert same_orbit(m, y, x, 50, 1e-9, phis=phis).invariant_gap == forward
    assert forward == pytest.approx((31375 - 3940) / 31376, rel=1e-15)


@pytest.mark.parametrize("off", [0, 1])
def test_same_orbit_rejects_a_point_off_the_map_chart(off):
    pair = [_bp(1, 2), _bp(3, 4)]
    pair[off] = State([0.5, 0.5], simplex_product(2))
    with pytest.raises(ChartViolation, match="^state chart does not match map chart$"):
        same_orbit(_alt(), *pair, 10, 1e-9, phis=(_phi(),))


def test_same_orbit_finds_a_forward_image():
    m = _alt()
    x = _bp(60, -25)
    y = x
    for _ in range(5):
        y = _image(m, y)
    v = same_orbit(m, x, y, 50, 1e-9, phis=(_phi(),))
    assert v.answer == "yes"
    assert v.index == 5
    assert v.closest_approach <= 1e-9
    # soundness of the YES: re-evaluating T^5(x) lands on y
    walker = x
    for _ in range(5):
        walker = _image(m, walker)
    assert walker.distance_to(y) <= 1e-9


def test_same_orbit_finds_a_backward_image():
    m = _alt()
    y = _bp(60, -25)
    x = y
    for _ in range(3):
        x = _image(m, x)
    v = same_orbit(m, x, y, 50, 1e-9)
    assert v.answer == "yes"
    assert v.index == -3


def test_same_orbit_rejects_by_invariant_filter_without_iterating():
    m = _alt()
    v = same_orbit(m, _bp(60, -25), _bp(-20, 2), 10_000, 1e-9, phis=(_phi(),))
    assert v.answer == "no"
    assert v.search_mode == "invariant-filter"
    assert v.invariant_gap > 0.5


def test_same_orbit_identical_points():
    m = _alt()
    v = same_orbit(m, _bp(60, -25), _bp(60, -25), 10, 1e-9)
    assert v.answer == "yes"
    assert v.index == 0


def test_same_orbit_distinct_fixed_points_are_never_on_one_orbit():
    m = gradient_descent(double_well(1), 0.1)
    v = same_orbit(m, State([1.0], euclidean(1)), State([-1.0], euclidean(1)), 100, 1e-9)
    assert v.answer == "no"
    assert v.search_mode == "fixed-points"


def test_same_orbit_exhausted_search_is_inconclusive():
    m = _alt()
    x = _bp(60, -25)
    y = x
    for _ in range(30):
        y = _image(m, y)
    v = same_orbit(m, x, y, 10, 1e-9)  # search window too small on purpose
    assert v.answer == "inconclusive"
    assert math.isfinite(v.closest_approach)


def test_same_orbit_nearby_but_distinct_points_stay_unresolved():
    """Absence of a hit within the search window is never reported as a NO
    unless an invariant or a fixed-point argument settles it."""
    m = _alt()
    x = _bp(60, -25)
    mid = _bp((60 + 57.5) / 2, (-25 - 13.5) / 2)  # between x and T(x)
    v = same_orbit(m, x, mid, 40, 1e-9)
    assert v.answer == "inconclusive"


# ---------------------------------------------------------------------------
# batched nonlinear pairs against the one-pair-at-a-time loop


def _reference_reports(m, pairs, horizon, eps_low=EPS_LOW, eps_high=EPS_HIGH):
    """(liminf, limsup, verdict) per pair, stepping each pair's rows alone, x
    before y, one row per step_points call."""
    tail_start = horizon - max(1, horizon // 5)
    out = []
    for x, y in pairs:
        wx, wy = x.coordinates, y.coordinates
        lim_lo, lim_hi = math.inf, -math.inf
        for t in range(1, horizon + 1):
            try:
                wx = step_points(m, wx)
                wy = step_points(m, wy)
            except ChartViolation as exc:
                error = NumericsError(f"pair orbit left float range at step {t}: {exc}")
                error.step_index = t
                raise error from exc
            except ConmotError as exc:
                exc.step_index = t
                raise
            if t > tail_start:
                d = float(np.linalg.norm(wx - wy))
                lim_lo = min(lim_lo, d)
                lim_hi = max(lim_hi, d)
        if lim_hi <= eps_low:
            verdict = "converging-pair"
        elif lim_lo <= eps_low and lim_hi >= eps_high:
            verdict = "scramble-candidate"
        elif lim_lo > eps_low:
            verdict = "separated"
        else:
            verdict = "inconclusive"
        out.append((lim_lo, lim_hi, verdict))
    return out


def _scan_map(kind, dim, rate):
    if kind == "gd-double-well":
        return gradient_descent(double_well(dim), rate)
    if kind == "gd-bump":
        return gradient_descent(bump(dim), rate)
    if kind == "mwu_exp":
        return mwu_exponential(quadratic(dim + 2), rate, (dim, 2))
    if kind == "mwu_lin":
        return mwu_linear(quadratic(dim + 2), rate, (dim, 2))
    coeffs = np.linspace(-1.0, 2.0, dim + 1)
    return sphere_rgd(linear(coeffs), rate)


def _sample_pairs(m, seed, count):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        if m.chart.kind == "euclidean":
            a, b = (State(rng.uniform(-1.4, 1.4, m.chart.dimension), m.chart) for _ in "ab")
        else:
            a, b = sample_chart(m.chart, rng), sample_chart(m.chart, rng)
        pairs.append((a, b))
    return pairs


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["gd-double-well", "gd-bump", "mwu_exp", "mwu_lin", "rgd_sphere"]),
    st.integers(1, 4),
    st.sampled_from([0.05, 0.1, 0.3]),
    st.integers(0, 2**31),
    st.integers(1, 12),
    st.integers(1, 80),
)
def test_batched_reports_equal_the_one_pair_loop_bit_for_bit(kind, dim, rate, seed, count, horizon):
    m = _scan_map(kind, dim, rate)
    pairs = _sample_pairs(m, seed, count)
    # Thresholds near the typical tail distances exercise every verdict.
    eps_low, eps_high = 1e-3, 1e-1
    batch = _pair_reports(m, pairs, horizon, eps_low=eps_low, eps_high=eps_high)
    reference = _reference_reports(m, pairs, horizon, eps_low, eps_high)
    for (liminf, limsup, verdict), (lo, hi, want) in zip(batch, reference, strict=True):
        assert liminf.hex() == lo.hex()
        assert limsup.hex() == hi.hex()
        assert verdict == want
    assert _tail_start(horizon) == horizon - max(1, horizon // 5)


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "step_index", None)


def _expanding(region=None, power=1):
    """x <- x + eta x^power coordinatewise: every nonzero point runs away."""
    return ObjectiveSpec(
        name="expanding",
        dimension=1,
        evaluate=lambda x: float(-np.sum(x ** (power + 1)) / (power + 1)),
        gradient=lambda x: -(x**power),
        hessian=lambda x: np.diag(-power * x ** (power - 1)),
        region=region,
    )


def _pt(v):
    return State([float(v)], euclidean(1))


def test_region_exit_raises_the_region_error_of_the_loop():
    """x <- 1.5 x leaves [-2, 2] at t = 5 from 0.3, t = 2 from 1.2 and
    t = 10 from 0.05; the region check raises on the step after."""
    m = gradient_descent(_expanding(Box((-2.0,), (2.0,))), 0.5)
    pairs = [(_pt(0.3), _pt(-0.3)), (_pt(1.2), _pt(0.1)), (_pt(0.0), _pt(0.05))]
    want = _raised(lambda: _reference_reports(m, pairs, 40))
    assert (want[0], want[2]) == (RegionError, 6)
    assert _raised(lambda: pair_statistics(m, _stack(pairs), 40)) == want


def test_a_later_pair_failing_earlier_does_not_mask_an_earlier_pair():
    """x <- x + x^3 overflows at t = 7 from 1.5 and at t = 6 from 3.0; the loop
    finishes pair 1 before it starts pair 2, so it reports t = 7."""
    m = gradient_descent(_expanding(power=3), 1.0)
    pairs = [(_pt(0.0), _pt(0.01)), (_pt(1.5), _pt(-0.5)), (_pt(3.0), _pt(0.2))]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _raised(lambda: _reference_reports(m, pairs, 40))
        with pytest.raises(NumericsError) as info:
            pair_statistics(m, _stack(pairs), 40)
    assert want == (NumericsError,
                    "pair orbit left float range at step 7: state coordinates must be finite", 7)
    assert (type(info.value), str(info.value), info.value.step_index) == want
    assert isinstance(info.value.__cause__, ChartViolation)


def _tilt():
    """g = 3 - 4x: at rate 1/2 the mwu_lin factor 2 x_i - 1/2 turns negative
    once a coordinate falls to 1/4, and the poorer coordinate keeps falling."""
    return ObjectiveSpec(
        name="tilt", dimension=2,
        evaluate=lambda x: float(3.0 * x.sum() - 2.0 * x @ x),
        gradient=lambda x: 3.0 - 4.0 * x,
        hessian=lambda x: -4.0 * np.eye(2),
    )


def test_mwu_lin_rate_too_large_raises_the_step_size_error_of_the_lowest_failing_pair():
    m = mwu_linear(_tilt(), 0.5, (2,))
    chart = simplex_product(2)

    def pt(a):
        return State([a, 1.0 - a], chart)

    # Pair 0 (through 0.45) fails later than pair 1 (through 0.3), with a
    # different factor in the message; the uniform point never fails.
    pairs = [(pt(0.5), pt(0.45)), (pt(0.3), pt(0.5))]
    first = _raised(lambda: _reference_reports(m, pairs[:1], 30))
    second = _raised(lambda: _reference_reports(m, pairs[1:], 30))
    assert first[0] is second[0] is StepSizeError
    assert first[1] != second[1]
    assert _raised(lambda: pair_statistics(m, _stack(pairs), 30)) == first
    assert _raised(lambda: pair_statistics(m, _stack(pairs[1:]), 30)) == second
