"""Inverse steps, bidirectional orbits, and fixed-point detection."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conmot import dynamics
from conmot.dynamics import Orbit, detect_fixed_point, inverse_step
from conmot.errors import ChartViolation, InversionError, RegionError, StepSizeError
from conmot.exact import PayoffData
from conmot.invariants import constant_weight, series_invariant
from conmot.maps import (
    _raw_step,
    alternating_play,
    gradient_descent,
    mwu_exponential,
    mwu_linear,
    rgd_sphere_step,
    sphere_rgd,
    step_jacobian,
    step_points,
)
from conmot.objectives import (
    bilinear, bump, double_well, linear, quadratic, region_contains,
)
from conmot.state import (
    State,
    _chart_residual,
    euclidean,
    renormalize,
    sample_chart,
    simplex_product,
    sphere,
    tangent_frame,
)


def _round_trip_error(m, s: State) -> float:
    """||T^{-1}(T(s)) - s||, both steps on coordinate rows."""
    return float(np.linalg.norm(inverse_step(m, step_points(m, s.coordinates)) - s.coordinates))


def test_gd_inverse_worked_example():
    m = gradient_descent(quadratic(1), 0.1)
    out = inverse_step(m, State([1.8], euclidean(1)).coordinates)
    assert out[0] == pytest.approx(2.0, abs=1e-12)


def test_alt_play_inverse_worked_example():
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    out = inverse_step(m, State([57.5, -13.5], euclidean(2)).coordinates)
    np.testing.assert_allclose(out, [60.0, -25.0], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_gd_roundtrip_on_the_double_well_region(x0):
    m = gradient_descent(double_well(1), 0.1)
    s = State([x0], euclidean(1))
    assert _round_trip_error(m, s) <= 1e-10


def test_roundtrip_across_all_map_families():
    rng = np.random.default_rng(42)
    families = [
        (gradient_descent(double_well(2), 0.1),
         lambda: State(rng.uniform(-1.5, 1.5, 2), euclidean(2))),
        (mwu_exponential(quadratic(5), 0.05, (3, 2)),
         lambda: sample_chart(simplex_product(3, 2), rng)),
        (mwu_linear(quadratic(5), 0.05, (3, 2)),
         lambda: sample_chart(simplex_product(3, 2), rng)),
        (alternating_play(PayoffData.from_matrix([[0.5, -0.25]]), 0.1, 0.2),
         lambda: State(5.0 * rng.normal(size=3), euclidean(3))),
        (sphere_rgd(bump(3), 0.1), lambda: sample_chart(sphere(3), rng)),
    ]
    for m, draw in families:
        for _ in range(30):
            s = draw()
            assert _round_trip_error(m, s) <= 1e-10, m.kind


@st.composite
def roundtrip_cases(draw):
    """A map of an iterative kind on a catalogue objective and a point of its
    chart. The step size is a drawn fraction of a bound that keeps the map
    one-to-one: gd needs eta * ||H|| < 1, where ||H|| <= d * L; the simplex
    and sphere kinds also move with the gradient, whose norm stays within 1
    there."""
    kind = draw(st.sampled_from(["gd", "mwu_exp", "mwu_lin", "rgd_sphere"]))
    blocks = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    d = sum(blocks) if kind.startswith("mwu") else draw(st.integers(1, 4))
    name = draw(st.sampled_from(["quadratic", "double_well", "bump", "linear", "bilinear"]
                                [: 4 + (d > 1)]))
    obj = {
        "quadratic": lambda: quadratic(d),
        "double_well": lambda: double_well(d),
        "bump": lambda: bump(d),
        "linear": lambda: linear(np.linspace(-1.0, 1.0, d) / np.sqrt(d)),
        "bilinear": lambda: bilinear(PayoffData.from_matrix([np.linspace(-0.5, 0.5, d - 1)])),
    }[name]()
    curvature = d * obj.hessian_entry_bound + (kind != "gd")
    eta = draw(st.floats(0.01, 0.9)) / max(curvature, 1.0)
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    if kind == "gd":
        m = gradient_descent(obj, eta)
        scale = {"quadratic": 9.9 / np.sqrt(d), "double_well": 1.5}.get(name, 3.0)
        return m, State(scale * u, m.chart)
    if kind == "rgd_sphere":
        assume(np.linalg.norm(u) > 0.1)
        m = sphere_rgd(obj, eta)
        return m, State(renormalize(u, m.chart), m.chart)
    m = (mwu_exponential if kind == "mwu_exp" else mwu_linear)(obj, eta, blocks)
    return m, State(renormalize(0.05 + np.abs(u), m.chart), m.chart)


@settings(max_examples=300, deadline=None)
@given(roundtrip_cases())
def test_forward_then_inverse_returns_to_the_start_on_every_iterative_kind(case):
    m, s = case
    assert _round_trip_error(m, s) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(roundtrip_cases().filter(lambda case: case[0].kind != "gd"))
def test_a_newton_step_is_the_least_squares_step(case):
    """The first Newton step of T^{-1}(T(s)), a square solve in the frame at
    T(y), lands where lstsq's step lands. T maps onto its chart, so the
    columns of J F lie in that frame's span, and the two steps differ by
    roundings: of the step itself, of the part of r normal to the chart, and
    of the retraction. The bound, 1e-13 (||c|| + ||r||) + 1e-15, is about ten
    times the worst of 1500 drawn cases; the step sizes keep J F well
    conditioned."""
    m, s = case
    target = step_points(m, s.coordinates)
    eta = m.float_step_sizes[0]
    y = rgd_sphere_step(m.objective, -eta, target) if m.kind == "rgd_sphere" else target
    r = _raw_step(m, y) - target
    frame = tangent_frame(m.chart, y)
    least = np.linalg.lstsq(step_jacobian(m, y) @ frame, -r)[0]
    expected = dynamics._retract(m.chart, y + frame @ least)
    # The line search takes the full step, and the solve runs at all.
    assume(np.linalg.norm(r) > dynamics.NEWTON_TOLERANCE and expected is not None)
    assume(np.linalg.norm(_raw_step(m, expected) - target) < 0.5 * np.linalg.norm(r))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "NEWTON_MAX_ITERATIONS", 1)
        with pytest.raises(InversionError) as err:
            inverse_step(m, target)
    bound = 1e-13 * (np.linalg.norm(least) + np.linalg.norm(r)) + 1e-15
    assert np.linalg.norm(err.value.last_iterate - expected) <= bound


def test_gd_inverse_of_a_step_from_the_box_edge_returns_to_the_edge():
    """Newton converges one rounding past x = 1.5 here; the box's nearest
    point steps to the target within the tolerance and is the preimage."""
    m = gradient_descent(double_well(1), Fraction(4307790947919605, 2**55))
    s = State([1.5], euclidean(1))
    assert _round_trip_error(m, s) <= 1e-10


def test_gd_round_trip_from_region_boundaries():
    """Starts on a face of the double well's box and on the quadratic's
    bounding sphere, with step sizes drawn below the one-to-one bound
    eta * d * (Hessian entry bound) < 1."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        m = gradient_descent(double_well(d), rng.uniform(0.01, 0.9) / (5.75 * d))
        u = rng.uniform(-1.5, 1.5, d)
        u[rng.integers(d)] = rng.choice([-1.5, 1.5])
        s = State(u, m.chart)
        assert _round_trip_error(m, s) <= 1e-10
    for _ in range(300):
        d = int(rng.integers(1, 5))
        m = gradient_descent(quadratic(d), rng.uniform(0.01, 0.9) / d)
        u = rng.normal(size=d)
        s = State(10.0 * u / np.linalg.norm(u), m.chart)
        if not region_contains(m.objective.region, s.coordinates):
            continue  # rounded a hair past the sphere: not a start of the map
        assert _round_trip_error(m, s) <= 1e-10


def test_gd_inverse_fails_loudly_outside_the_region():
    """The preimage of a point near the region edge lies outside it."""
    m = gradient_descent(quadratic(1), 0.5)
    with pytest.raises(RegionError):
        inverse_step(m, np.array([9.0]))  # preimage 18 > radius 10


INVERSION_FAILURES = {
    "gd": (gradient_descent(double_well(2), 0.1), State([0.3, -0.6], euclidean(2)), "gd"),
    "mwu_exp": (mwu_exponential(quadratic(2), 0.05, (2,)), State([0.4, 0.6], simplex_product(2)),
                "mwu"),
    "rgd_sphere": (sphere_rgd(linear([1.0, -2.0, 0.5]), 0.1),
                   State([1 / 3, 2 / 3, 2 / 3], sphere(3)), "sphere"),
}


@pytest.mark.parametrize("kind", sorted(INVERSION_FAILURES))
def test_inversion_error_carries_diagnostics(kind, monkeypatch):
    m, x, name = INVERSION_FAILURES[kind]
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITERATIONS", 0)
    with pytest.raises(InversionError) as err:
        inverse_step(m, x.coordinates)
    assert str(err.value) == f"{name} inversion did not reach 1.0e-12 in 0 iterations"
    assert err.value.last_iterate.shape == x.coordinates.shape
    assert err.value.residual > 1e-12
    # An orbit attaches the index of the backward step that failed.
    with pytest.raises(InversionError) as err:
        Orbit(m, x).segment(0, 3)
    assert err.value.step_index == -1


def test_orbit_with_no_steps_contains_only_the_origin():
    m = gradient_descent(double_well(1), 0.1)
    s = State([0.5], euclidean(1))
    orb = Orbit(m, s)
    assert list(orb.segment(0, 0)) == [0]
    assert orb[0] is s.coordinates
    assert orb.rows == {0: s.coordinates}


def test_orbit_forward_tail_reaches_the_basin_minimizer():
    orb = Orbit(gradient_descent(double_well(1), 0.1), State([0.5], euclidean(1)))
    assert abs(orb[orb.segment(200)[-1]][0] - 1.0) <= 1e-8


def test_orbit_backward_tail_climbs_to_the_local_maximum():
    orb = Orbit(gradient_descent(double_well(1), 0.1), State([0.5], euclidean(1)))
    assert abs(orb[orb.segment(0, 200)[0]][0] - 0.0) <= 1e-6


def test_orbit_truncates_at_fixed_points_and_flags_it():
    orb = Orbit(gradient_descent(double_well(1), 0.1), State([1.0], euclidean(1)))
    window = orb.segment(50)
    # A side cut short of what was asked stopped at a fixed point.
    assert window[-1] < 50
    # Past the cut the orbit stays at the fixed point.
    assert orb[50][0] == pytest.approx(1.0)


def test_orbit_indices_cover_the_requested_window():
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    orb = Orbit(m, State([60.0, -25.0], euclidean(2)))
    assert orb.segment(5, 3) == range(-3, 6)
    np.testing.assert_allclose(orb[1], [57.5, -13.5])


def test_orbit_consistency_forward_of_backward_is_identity():
    dw = double_well(2)
    m = gradient_descent(dw, 0.1)
    rng = np.random.default_rng(3)
    orb = Orbit(m, State(rng.uniform(-1.2, 1.2, size=2), euclidean(2)))
    assert orb.segment(0, 10) == range(-10, 1)
    for k in range(-10, 0):
        fwd = step_points(m, orb[k])
        assert float(np.linalg.norm(fwd - orb[k + 1])) <= 1e-9


def test_orbit_backward_failure_reports_the_step_index():
    m = gradient_descent(quadratic(1), 0.5)
    # 6 -> 12 leaves the ball of radius 10 on the first backward step
    with pytest.raises(RegionError) as err:
        Orbit(m, State([6.0], euclidean(1))).segment(0, 5)
    assert str(err.value) == "backward step left the objective's declared region"
    assert err.value.step_index == -1


def test_orbit_forward_failure_reports_the_step_index():
    # x -> x (1 - 1.5 g) on the simplex: a factor turns negative at the start.
    m = mwu_linear(quadratic(3), 1.5, (3,))
    with pytest.raises(StepSizeError) as err:
        Orbit(m, State([0.9, 0.05, 0.05], simplex_product(3))).segment(4)
    assert str(err.value) == "mwu_lin factor -0.35 is not positive; reduce the learning rate"
    assert err.value.step_index == 1


def test_orbit_forward_steps_leave_float_noise_only():
    """Each raw update from a stored row misses the chart by roundings only."""
    m = mwu_exponential(quadratic(4), 0.01, (2, 2))
    orb = Orbit(m, State([0.4, 0.6, 0.3, 0.7], simplex_product(2, 2)))
    assert orb.segment(25) == range(0, 26)
    assert max(_chart_residual(_raw_step(m, orb[k]), m.chart) for k in range(25)) < 1e-14


ORBIT_CASES = {
    "gd": (gradient_descent(double_well(2), 0.1), State([0.3, -0.6], euclidean(2))),
    "mwu_exp": (
        mwu_exponential(quadratic(5), 0.1, (3, 2)),
        State([0.5, 0.3, 0.2, 0.6, 0.4], simplex_product(3, 2)),
    ),
    "rgd_sphere": (
        sphere_rgd(linear([1.0, -2.0, 0.5]), 0.1), State([1 / 3, 2 / 3, 2 / 3], sphere(3))
    ),
    "alt_play": (
        alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2),
        State([60.0, -25.0], euclidean(2)),
    ),
}


@pytest.mark.parametrize("case", ["mwu_exp", "rgd_sphere"])
def test_a_step_and_an_inverse_each_compute_one_chart_residual(case, monkeypatch):
    """The one residual of a forward or backward step is the chart check of
    its projected points; projecting and retracting compute none."""
    m, x = ORBIT_CASES[case]
    charts = []

    def counted(coords, chart):
        charts.append(chart)
        return _chart_residual(coords, chart)

    monkeypatch.setattr("conmot.state._chart_residual", counted)
    forward = step_points(m, x.coordinates)
    assert charts == [m.chart]
    inverse_step(m, forward)
    assert charts == [m.chart, m.chart]


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_reads_equal_a_direct_walk_bit_for_bit(case):
    m, x = ORBIT_CASES[case]
    orb = Orbit(m, x)
    for n in (3, -2, 6, -4, 1):  # out of order, both sides
        orb[n]
    fwd, back = [x.coordinates], [x.coordinates]
    for _ in range(6):
        fwd.append(step_points(m, fwd[-1]))
    for _ in range(4):
        back.append(inverse_step(m, back[-1]))
    assert orb[0] is x.coordinates
    for k in range(7):
        assert orb[k].tobytes() == fwd[k].tobytes()
    for k in range(5):
        assert orb[-k].tobytes() == back[k].tobytes()
    stored = dict(orb.rows)
    assert orb.segment(6, 4) == range(-4, 7)  # read from the stored rows, not stepped again
    assert all(orb[k] is stored[k] for k in range(-4, 7)) and orb.rows == stored


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_rows_are_read_only(case):
    m, x = ORBIT_CASES[case]
    orb = Orbit(m, x)
    for n in (0, 2, -1):
        before = orb[n].tobytes()
        with pytest.raises(ValueError):
            orb[n][0] = 7.0
        assert orb[n].dtype == np.float64 and orb[n].tobytes() == before


def test_a_failed_side_reraises_without_solving_again(monkeypatch):
    solves = []
    inverse = dynamics.inverse_step

    def counted_inverse(*args, **kwargs):
        solves.append(1)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(dynamics, "inverse_step", counted_inverse)
    # x -> x/2: the preimages of 3 are 6, then 12, outside the ball of radius 10.
    orb = Orbit(gradient_descent(quadratic(1), 0.5), State([3.0], euclidean(1)))
    with pytest.raises(RegionError) as first:
        orb[-5]
    assert len(solves) == 2
    for n in (-2, -3, -5):
        with pytest.raises(RegionError) as again:
            orb[n]
        assert again.value is first.value
        assert again.value.step_index == -2  # the index it could not compute
    assert len(solves) == 2
    assert orb[-1][0] == 6.0
    assert orb[2][0] == 0.75  # the forward side is untouched


def test_a_stored_forward_failure_keeps_its_step_index():
    orb = Orbit(mwu_linear(quadratic(3), 1.5, (3,)), State([0.9, 0.05, 0.05], simplex_product(3)))
    with pytest.raises(StepSizeError) as first:
        orb[3]
    for n in (1, 2, 5):
        with pytest.raises(StepSizeError) as again:
            orb[n]
        assert again.value is first.value and again.value.step_index == 1
    assert (orb.first, orb.last) == (0, 0)


def test_detect_fixed_point_examples():
    m = gradient_descent(double_well(1), 0.1)
    assert detect_fixed_point(m, State([1.0], euclidean(1)))
    assert detect_fixed_point(m, State([0.0], euclidean(1)))
    # |T(0.5) - 0.5| = 0.1 * |0.125 - 0.5| = 0.0375, far above tolerance
    assert not detect_fixed_point(m, State([0.5], euclidean(1)))


def test_the_orbit_decides_fixed_points_at_the_threshold_detect_fixed_point_reads():
    """Near the minimum of the double well |T(x) - x| is about 0.2 |x - 1|, so
    the starts straddle FIXED_POINT_TOL; the orbit's one test decides where a
    segment stops on either side, and detect_fixed_point is that test, so a
    failed step is tagged with its index either way."""
    m = gradient_descent(double_well(1), 0.1)
    for x, stop in ((1.0, 0), (1.0 - 4e-10, 0), (0.0, 0), (1.0 - 6e-10, 1), (0.5, 5)):
        s = State([x], euclidean(1))
        orb = Orbit(m, s)
        assert orb.fixed_at(0) is detect_fixed_point(m, s) is (stop == 0)
        assert orb.segment(5) == range(0, stop + 1)
        assert [orb.fixed_at(k) for k in range(stop + 1)] == [False] * stop + [stop < 5]
    orb = Orbit(m, State([0.5], euclidean(1)))
    assert orb.segment(0, 3) == range(-3, 1) and not orb.fixed_at(-3)
    outside = State([2.0], euclidean(1))
    with pytest.raises(RegionError) as tagged:
        Orbit(m, outside).fixed_at(0)
    with pytest.raises(RegionError) as also_tagged:
        detect_fixed_point(m, outside)
    assert (tagged.value.step_index, also_tagged.value.step_index) == (1, 1)
    assert str(tagged.value) == str(also_tagged.value)


def test_detect_fixed_point_mwu_uniform_constant_gradient():
    m = mwu_exponential(linear([2.0, 2.0, 2.0]), 0.5, (3,))
    uniform = State([1 / 3, 1 / 3, 1 / 3], simplex_product(3))
    assert detect_fixed_point(m, uniform)


STATE_EDGES = {
    "Orbit": lambda m, x: Orbit(m, x),
    "detect_fixed_point": lambda m, x: detect_fixed_point(m, x),
    "series_invariant": lambda m, x: series_invariant(m, constant_weight(), x, 4),
}


@pytest.mark.parametrize("edge", sorted(STATE_EDGES))
def test_state_edges_reject_chart_mismatch(edge):
    m = gradient_descent(quadratic(2), 0.1)
    with pytest.raises(ChartViolation, match="^state chart does not match map chart$"):
        STATE_EDGES[edge](m, State([1.0, 0.0], simplex_product(2)))
