"""Closed-form and series invariants, their defects, and the rank diagnostic."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conmot import dynamics, invariants
from conmot.cli import main
from conmot.dynamics import Orbit
from conmot.errors import ConmotError, RegionError, StepSizeError
from conmot.exact import BipartiteInvariant, PayoffData
from conmot.invariants import (
    constant_weight,
    coordinate_weight,
    dphi_rank,
    gaussian_bump_weight,
    invariance_defect,
    make_series_invariant,
    series_invariant,
)
from conmot.maps import (
    alternating_play, gradient_descent, mwu_exponential, mwu_linear, sphere_rgd, step_points,
)
from conmot.objectives import (
    Box, ObjectiveSpec, double_well, linear, quadratic, validate_step_size_gd,
)
from conmot.state import State, euclidean, simplex_product, sphere
from test_dynamics import roundtrip_cases

PAY = PayoffData.from_matrix([[1]])

DOUBLE_WELL_GD = gradient_descent(double_well(1), 0.1)
HALF = State([0.5], euclidean(1))
ONES = constant_weight()


def test_bipartite_invariant_reference_values():
    assert BipartiteInvariant(PAY, "0.1", "0.2")([60.0, -25.0]) == 31375.0
    assert BipartiteInvariant(PAY, "0.05", "0.02")([-14.0, -5.0]) == 2740.0
    assert BipartiteInvariant(PAY, "0.1", "0.2")([0.0, 0.0]) == 0.0


def test_bipartite_invariant_exact_arithmetic():
    phi = BipartiteInvariant(PAY, Fraction(1, 10), Fraction(1, 5))
    assert phi.exact([60, -25]) == Fraction(31375)
    assert phi.exact([Fraction(1, 3), Fraction(1, 7)]) == (
        Fraction(1, 9) * 10 - Fraction(1, 49) * 5 + Fraction(1, 21)
    )


def test_bipartite_invariant_accepts_states_and_checks_length():
    phi = BipartiteInvariant(PAY, "0.1", "0.2")
    s = State([60.0, -25.0], euclidean(2))
    assert phi(s) == 31375.0
    with pytest.raises(ConmotError):
        phi.exact([1.0, 2.0, 3.0])


def _reference_phi(matrix, eta1: Fraction, eta2: Fraction, xy) -> Fraction:
    """|X|^2/eta1 - |Y|^2/eta2 + X.T A Y summed in Fractions, term by term."""
    dx = len(matrix)
    x = [Fraction(v) for v in xy[:dx]]
    y = [Fraction(v) for v in xy[dx:]]
    cross = sum(x[i] * matrix[i][j] * y[j] for i in range(dx) for j in range(len(y)))
    return sum(v * v for v in x) / eta1 - sum(v * v for v in y) / eta2 + cross


def _reference_float(value: Fraction) -> float:
    """The correctly rounded float of value, +-inf beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


_RATIONALS = st.fractions(min_value=-8, max_value=8, max_denominator=12)
_STEP_SIZES = st.fractions(min_value=Fraction(1, 50), max_value=4, max_denominator=50)
# Ordinary, subnormal and near-overflow magnitudes, both signs.
_COORDINATES = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, 1.3e154, -1.3e154,
                     1e300, -1e300, 1.7976931348623157e308]),
)


@st.composite
def _quadratic_cases(draw):
    dx, dy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = [[draw(_RATIONALS) for _ in range(dy)] for _ in range(dx)]
    xy = [draw(_COORDINATES) for _ in range(dx + dy)]
    return matrix, draw(_STEP_SIZES), draw(_STEP_SIZES), xy


@settings(max_examples=300, deadline=None)
@given(_quadratic_cases())
@example(([[1]], Fraction(1, 3), Fraction(2, 7), [1e300, 0.0]))  # +inf
@example(([[1]], Fraction(1, 3), Fraction(2, 7), [0.0, -1e300]))  # -inf
@example(([[Fraction(1, 3)]], Fraction(1, 10), Fraction(1, 5), [5e-324, -5e-324]))
def test_bipartite_invariant_equals_the_fraction_reference_bit_for_bit(case):
    matrix, eta1, eta2, xy = case
    phi = BipartiteInvariant(PayoffData.from_matrix(matrix), eta1, eta2)
    want = _reference_phi(matrix, eta1, eta2, xy)
    assert phi.exact(xy) == want
    got = phi(np.array(xy))
    assert got == _reference_float(want)
    assert math.copysign(1.0, got) == math.copysign(1.0, _reference_float(want))


def test_weight_catalog():
    assert constant_weight(2.5)([9.0]) == 2.5
    assert coordinate_weight(1)([3.0, 7.0]) == 7.0
    g = gaussian_bump_weight([0.0], 1.0)
    assert g([0.0]) == 1.0
    assert g([1.0]) == pytest.approx(math.exp(-0.5))
    with pytest.raises(ValueError):
        coordinate_weight(-1)
    with pytest.raises(ValueError):
        gaussian_bump_weight([0.0], 0.0)


def test_series_converges_to_the_telescoped_well_gap():
    """Partial sums from the double-well saddle rise to f(0) - f(1) = 1/4."""
    values = {}
    for n in (4, 8, 16, 32, 64):
        rep = series_invariant(DOUBLE_WELL_GD, ONES, HALF, n)
        values[n] = rep.value
        assert not rep.divergent and not rep.one_sided
    assert values[4] == pytest.approx(0.114871, abs=1e-5)
    assert values[16] == pytest.approx(0.241527, abs=1e-5)
    assert abs(values[64] - 0.25) < 1e-6
    # deeper truncation only improves the estimate
    ordered = [values[n] for n in (4, 8, 16, 32, 64)]
    assert ordered == sorted(ordered)


def test_series_partial_sums_are_nondecreasing_for_unit_weight():
    rep = series_invariant(DOUBLE_WELL_GD, ONES, HALF, 32)
    sums = rep.partial_sums
    assert len(sums) == 2 * rep.truncation_n + 1
    assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))


def test_series_telescopes_to_the_orbit_endpoint_gap():
    rep = series_invariant(DOUBLE_WELL_GD, ONES, HALF, 12)
    n = rep.truncation_n
    orb = Orbit(DOUBLE_WELL_GD, HALF)
    f = double_well(1).evaluate
    endpoints = f(orb[-(n + 1)]) - f(orb[n])
    assert abs(rep.value - endpoints) <= 1e-12


def test_series_tail_estimate_is_the_last_increment():
    rep = series_invariant(DOUBLE_WELL_GD, ONES, HALF, 10)
    sums = rep.partial_sums
    assert rep.tail_estimate == pytest.approx(abs(sums[-1] - sums[-2]))


def test_series_at_a_fixed_point_is_zero_with_an_empty_trace():
    rep = series_invariant(DOUBLE_WELL_GD, ONES, State([1.0], euclidean(1)), 40)
    assert rep.value == 0.0
    assert rep.fixed_point is True
    assert rep.converged_early is True
    assert rep.partial_sums == ()
    assert rep.truncation_n == 0


def test_series_and_detect_fixed_point_share_one_threshold():
    """||T(x) - x|| = 0.1 * 5e-11 = 5e-12 is within dynamics.FIXED_POINT_TOL,
    so the series calls the point fixed exactly where detect_fixed_point does."""
    m = gradient_descent(quadratic(2), 0.1)
    x = State([5e-11, 0.0], euclidean(2))
    rep = series_invariant(m, ONES, x, 40)
    assert dynamics.detect_fixed_point(m, x)
    assert rep.fixed_point is True and rep.value == 0.0


def test_series_downgrades_to_one_sided_when_backward_exits_the_region():
    """From x=9 under x -> x/2 the preimage 18 leaves the ball of radius 10,
    so only the forward half of the series is computable."""
    m = gradient_descent(quadratic(1), 0.5)
    rep = series_invariant(m, ONES, State([9.0], euclidean(1)), 60)
    assert rep.one_sided is True
    assert rep.value == pytest.approx(40.5, abs=1e-9)
    assert any("backward" in note for note in rep.notes)


def test_blocked_side_notes_name_the_step_that_failed():
    """Each side's note gives the index the orbit could not compute."""
    m = gradient_descent(quadratic(1), 0.5)
    rep = series_invariant(m, ONES, State([9.0], euclidean(1)), 60)
    assert "backward step -1: backward step left the objective's declared region" in rep.notes
    # x -> 1.5 x leaves the box at step 4, so step 5 cannot be taken.
    hill = ObjectiveSpec(name="hill", dimension=1, evaluate=lambda z: -0.5 * float(z @ z),
                         gradient=lambda z: -z, hessian=lambda z: -np.eye(1),
                         region=Box(lower=(-2.0,), upper=(2.0,)))
    rep = series_invariant(gradient_descent(hill, 0.5), ONES, State([0.5], euclidean(1)), 8)
    assert rep.notes[-1] == "forward step 5: state lies outside the objective's declared region"
    assert rep.truncation_n == 4


def test_series_at_a_start_outside_the_region_raises_the_orbit_failure():
    m = gradient_descent(double_well(1), Fraction(1, 10))
    with pytest.raises(RegionError) as err:
        series_invariant(m, ONES, State([1.7], euclidean(1)), 8)
    assert str(err.value) == "state lies outside the objective's declared region"
    assert err.value.step_index == 1


def test_series_flags_divergence_on_a_two_cycle():
    """A crafted period-2 gradient field never lets the increments decay, so
    the construction only yields the trivial invariant and must say so."""
    eta = 0.1
    seesaw = ObjectiveSpec(
        name="seesaw",
        dimension=2,
        evaluate=lambda z: float(z[0] + z[1]),
        gradient=lambda z: np.array([(2.0 * z[0] - 1.0) / eta, 0.0]),
        hessian=lambda z: np.diag([2.0 / eta, 0.0]),
        region=Box(lower=(-2.0, -2.0), upper=(2.0, 2.0)),
    )
    m = gradient_descent(seesaw, eta)
    rep = series_invariant(m, ONES, State([0.2, 0.3], euclidean(2)), 40)
    assert rep.divergent is True
    assert math.isnan(rep.value)
    assert any("not settling" in note for note in rep.notes)


def test_series_rejects_hopeless_constructions():
    with pytest.raises(ConmotError):
        series_invariant(
            alternating_play(PAY, 0.1, 0.2), ONES,
            State([60.0, -25.0], euclidean(2)), 8,
        )
    unbounded = gradient_descent(linear([1.0]), 0.1)
    with pytest.raises(ConmotError):
        series_invariant(unbounded, ONES, State([0.0], euclidean(1)), 8)
    too_fast = gradient_descent(double_well(1), 0.4)  # bound is ~0.3478
    with pytest.raises(StepSizeError):
        series_invariant(too_fast, ONES, HALF, 8)


def test_series_refuses_a_negative_truncation_or_defect_horizon():
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        series_invariant(DOUBLE_WELL_GD, ONES, HALF, -3)
    with pytest.raises(ValueError, match="^defect_horizon must be nonnegative$"):
        series_invariant(DOUBLE_WELL_GD, ONES, HALF, 8, defect_horizon=-3)
    assert series_invariant(DOUBLE_WELL_GD, ONES, HALF, 8).per_step_defect == ()


def test_make_series_invariant_matches_the_report_value():
    phi = make_series_invariant(DOUBLE_WELL_GD, ONES, 24)
    rep = series_invariant(DOUBLE_WELL_GD, ONES, HALF, 24)
    assert phi(HALF) == rep.value


def test_invariance_defect_is_exactly_zero_on_the_certified_instance():
    phi = BipartiteInvariant(PAY, Fraction(1, 10), Fraction(1, 5))
    m = alternating_play(PAY, Fraction(1, 10), Fraction(1, 5))
    s = State([60.0, -25.0], euclidean(2))
    assert invariance_defect(phi, m, s, 1000) == 0.0


def test_invariance_defect_of_a_constant_function_is_zero():
    m = DOUBLE_WELL_GD
    assert invariance_defect(lambda s: 3.0, m, HALF, 50) == 0.0


def test_invariance_defect_sees_truncation_bias_at_depth_zero():
    phi0 = make_series_invariant(DOUBLE_WELL_GD, ONES, 0)
    assert invariance_defect(phi0, DOUBLE_WELL_GD, HALF, 3) > 1e-4


def test_invariance_defect_shrinks_with_truncation_depth():
    defects = [
        invariance_defect(
            make_series_invariant(DOUBLE_WELL_GD, ONES, n),
            DOUBLE_WELL_GD, HALF, 3,
        )
        for n in (4, 8, 16, 32, 64)
    ]
    assert all(a > b for a, b in zip(defects, defects[1:]))
    assert defects[-1] < 1e-6


def test_series_defect_horizon_populates_the_report():
    rep = series_invariant(DOUBLE_WELL_GD, ONES, HALF, 48, defect_horizon=4)
    assert len(rep.per_step_defect) == 4
    assert max(rep.per_step_defect) < 1e-4


def _well(x):
    return State([x], euclidean(1))


SHIFT_CASES = {
    "gd-0.25": (DOUBLE_WELL_GD, _well(0.25), 64, 50),
    "gd-0.6": (DOUBLE_WELL_GD, _well(0.6), 64, 50),
    "gd--0.7": (DOUBLE_WELL_GD, _well(-0.7), 64, 50),
    "mwu_exp": (
        mwu_exponential(quadratic(5), 0.1, (3, 2)),
        State([0.5, 0.3, 0.2, 0.6, 0.4], simplex_product(3, 2)),
        32,
        10,
    ),
    "rgd_sphere": (
        sphere_rgd(linear([1.0, -2.0, 0.5]), 0.1),
        State([1 / 3, 2 / 3, 2 / 3], sphere(3)),
        32,
        20,
    ),
}


def assert_same_up_to_rounding(got, want):
    """NaN in the same places, finite entries within 1e-9."""
    assert [math.isnan(v) for v in got] == [math.isnan(v) for v in want]
    assert all(abs(a - b) <= 1e-9 for a, b in zip(got, want) if not math.isnan(a))


@pytest.mark.parametrize("case", sorted(SHIFT_CASES))
def test_windowed_defects_match_a_fresh_series_at_every_shift(case):
    """The series at T^k x is the series at x shifted by k: defects read from
    the one orbit window agree with a fresh evaluation at each T^k x."""
    m, x, truncation, horizon = SHIFT_CASES[case]
    rep = series_invariant(m, ONES, x, truncation, defect_horizon=horizon)
    fresh = make_series_invariant(m, ONES, truncation)
    assert rep.value == fresh(x)
    want, walker = [], x
    for _ in range(horizon):
        walker = State(step_points(m, walker.coordinates), m.chart)
        want.append(abs(fresh(walker) - rep.value))
    assert len(rep.per_step_defect) == horizon
    assert_same_up_to_rounding(rep.per_step_defect, want)


@st.composite
def shift_cases(draw):
    """A roundtrip case whose series is defined (gd needs a bounded objective
    or a declared region), a weight that fits its chart, and a depth."""
    m, x = draw(roundtrip_cases())
    obj = m.objective
    assume(m.kind != "gd" or obj.bounded or obj.region is not None)
    d = obj.dimension
    weight = draw(st.sampled_from([
        constant_weight(draw(st.floats(-2.0, 2.0))),
        coordinate_weight(draw(st.integers(0, d - 1))),
        gaussian_bump_weight(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)),
                             draw(st.floats(0.1, 3.0))),
    ]))
    return m, x, weight, draw(st.integers(0, 12))


@settings(max_examples=40, deadline=None)
@given(shift_cases())
def test_the_series_at_the_next_state_is_the_series_shifted_by_one(case):
    """The law behind SHIFT_CASES on drawn maps of every float kind: the sum
    at T x, read from x's orbit window one index on, equals a fresh series at
    T x, to the same bar."""
    m, x, weight, truncation = case
    shifted = invariants.series_along_orbit(Orbit(m, x), weight, truncation, [1])
    tx = State(step_points(m, x.coordinates), m.chart)
    fresh = series_invariant(m, weight, tx, truncation).value
    assert_same_up_to_rounding(shifted, [fresh])


def test_a_series_builds_no_state_past_its_start(monkeypatch):
    """The orbit window reads coordinate rows, so a series builds no State,
    at any truncation or defect horizon."""
    m = gradient_descent(double_well(1), "0.1")
    x = State([0.5], euclidean(1))
    built = []
    post_init = State.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(State, "__post_init__", counted)
    counts = []
    for truncation, horizon in ((16, 10), (64, 50)):
        built.clear()
        series_invariant(m, ONES, x, truncation, defect_horizon=horizon)
        counts.append(len(built))
    assert counts == [0, 0]


@pytest.mark.parametrize("horizon", [0, 50])
def test_a_defect_horizon_costs_no_extra_inverse_solves(monkeypatch, horizon):
    """One orbit window per state: at most N + 1 backward steps at depth N,
    and no series evaluated inside another."""
    solves = []
    series_calls = []
    inverse = dynamics.inverse_step
    top = invariants.series_invariant

    def counted_inverse(*args, **kwargs):
        solves.append(1)
        return inverse(*args, **kwargs)

    def counted_series(*args, **kwargs):
        series_calls.append(1)
        return top(*args, **kwargs)

    monkeypatch.setattr(dynamics, "inverse_step", counted_inverse)
    monkeypatch.setattr(invariants, "series_invariant", counted_series)
    for x in (0.25, 0.6, -0.7):
        solves.clear()
        series_calls.clear()
        invariants.series_invariant(
            DOUBLE_WELL_GD, ONES, _well(x), 64, defect_horizon=horizon
        )
        assert 0 < len(solves) <= 64 + 1
        assert len(series_calls) == 1


def _hand_assembled_h(payoff: PayoffData, eta1: float, eta2: float) -> np.ndarray:
    """H = [[2/eta1 I, A], [A.T, -2/eta2 I]] built entry by entry in floats."""
    a = payoff.matrix
    dx, dy = payoff.dimension_x, payoff.dimension_y
    h = np.zeros((dx + dy, dx + dy))
    h[:dx, :dx] = (2.0 / eta1) * np.eye(dx)
    h[:dx, dx:] = a
    h[dx:, :dx] = a.T
    h[dx:, dx:] = (-2.0 / eta2) * np.eye(dy)
    return h


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
    st.floats(1e-6, 10.0),
    st.floats(1e-6, 10.0),
)
def test_dphi_rank_reads_the_hand_assembled_matrix_from_the_integer_form(dx, dy, data, e1, e2):
    matrix = [[data.draw(_RATIONALS) for _ in range(dy)] for _ in range(dx)]
    payoff = PayoffData.from_matrix(matrix)
    h, rank = dphi_rank(BipartiteInvariant(payoff, e1, e2))
    ref = _hand_assembled_h(payoff, e1, e2)
    assert h.dtype == ref.dtype and h.shape == ref.shape
    assert np.array_equal(h, ref)
    sv = np.linalg.svd(ref, compute_uv=False)
    assert rank == int(np.sum(sv > 1e-10 * sv[0]))


def test_dphi_rank_reference_instance(monkeypatch):
    """dphi_rank reads the H of the closed form it is given, and certifies no second one."""
    phi = BipartiteInvariant(PAY, 0.1, 0.2)
    calls = []
    monkeypatch.setattr(BipartiteInvariant, "_certified", lambda self: calls.append(self))
    h, rank = dphi_rank(phi)
    assert calls == []
    assert rank == 2
    np.testing.assert_allclose(h, [[20.0, 1.0], [1.0, -10.0]])


def test_dphi_rank_zero_payoff_keeps_full_rank():
    h, rank = dphi_rank(BipartiteInvariant(PayoffData.from_matrix([[0]]), 0.3, 0.7))
    assert rank == 2
    assert h[0, 1] == 0.0


def test_dphi_rank_rectangular_payoff():
    rng = np.random.default_rng(21)
    pay = PayoffData.from_matrix(rng.uniform(-1, 1, size=(3, 2)))
    _, rank = dphi_rank(BipartiteInvariant(pay, 0.2, 0.4))
    assert rank >= 2


def test_mwu_series_runs_on_the_simplex():
    m = mwu_exponential(quadratic(3), 0.1, (3,))
    s = State([0.5, 0.3, 0.2], simplex_product(3))
    rep = series_invariant(m, ONES, s, 30)
    assert math.isfinite(rep.value)
    assert rep.truncation_n > 0


THIRDS = State([0.5, 0.3, 0.2], simplex_product(3))
UNVERIFIED = "step size could not be verified against a curvature bound"


@pytest.mark.parametrize("map_instance, start, noted", [
    (sphere_rgd(linear([1.0, -2.0, 0.5]), 0.1), State([1 / 3, 2 / 3, 2 / 3], sphere(3)), True),
    (mwu_exponential(quadratic(3), 10, (3,)), THIRDS, True),
    (mwu_linear(quadratic(3), 0.1, (3,)), THIRDS, True),
    (DOUBLE_WELL_GD, HALF, False),
], ids=["rgd_sphere", "mwu_exp", "mwu_lin", "gd"])
def test_a_series_report_says_when_its_step_size_is_unchecked(map_instance, start, noted):
    """Only gd has a curvature bound to check its step size against; every
    other series map's report says that its step size went unchecked."""
    rep = series_invariant(map_instance, ONES, start, 8)
    assert (UNVERIFIED in rep.notes) is noted


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: validate_step_size_gd accepts "
                   "eta < 2/(d*L), a descent bound; above 1/(d*L) gd need not be one-to-one, "
                   "and at eta = 0.3 T(1.3) has a second preimage below 1.101")
def test_gd_refuses_a_step_size_at_which_it_is_not_one_to_one(tmp_path):
    """T(0) = 0 < T(1.3) = 1.0309 < T(1.101), so T, being continuous, takes
    the value T(1.3) again in (0, 1.101): that point has two preimages, its
    backward orbit is not unique, and the step size must be refused."""
    well = gradient_descent(double_well(1), 0.3)
    (t_0,), (t_a,), (t_b,) = step_points(well, np.array([[0.0], [1.3], [1.101]]))
    assert t_0 == 0.0 < t_a < t_b and t_a == pytest.approx(1.0309)
    assert validate_step_size_gd(double_well(1), 0.3).accepted is False
    for start in ("1.3", "1.101"):
        config = tmp_path / f"{start}.json"
        config.write_text(json.dumps({
            "map": {"kind": "gd", "objective": {"name": "double_well", "dimension": 1},
                    "step_size": "0.3"},
            "initial_states": [[start]],
            "invariant": {"kind": "series", "truncation": 8},
        }))
        assert main(["--config", str(config), "--out", str(tmp_path / start), "invariant"]) == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a series whose terms rise before "
                   "they fall is called divergent after 32 stale rings, though gd on the "
                   "double well is a descent map and its series converges")
def test_a_convergent_double_well_series_is_not_called_divergent():
    """Starts near the repelling point 0 and near the minimum at 1, where one
    side's terms grow first; the telescoped value is f(0) - f(1) = 0.25."""
    reports = {x: series_invariant(DOUBLE_WELL_GD, ONES, State([x], euclidean(1)), 64)
               for x in (0.02, 0.96, 0.99)}
    assert not any(r.divergent for r in reports.values())
    assert abs(reports[0.99].value - 0.25) < 1e-3
