"""Inverse steps, bidirectional orbits, and fixed-point detection."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conmot import dynamics
from conmot.dynamics import (
    FixedPointSet,
    InverseConfig,
    Orbit,
    detect_fixed_point,
    inverse_step,
)
from conmot.errors import InversionError, RegionError, StepSizeError
from conmot.maps import (
    alternating_play,
    gradient_descent,
    mwu_exponential,
    mwu_linear,
    sphere_rgd,
    step,
    step_with_defect,
)
from conmot.objectives import (
    PayoffData, bilinear, bump, double_well, linear, quadratic, region_contains,
)
from conmot.state import (
    State,
    bipartite_pair,
    euclidean,
    renormalize,
    sample_chart,
    simplex_product,
    sphere,
)


def test_gd_inverse_worked_example():
    m = gradient_descent(quadratic(1), 0.1)
    out = inverse_step(m, State([1.8], euclidean(1)))
    assert out.coordinates[0] == pytest.approx(2.0, abs=1e-12)


def test_alt_play_inverse_worked_example():
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    out = inverse_step(m, State([57.5, -13.5], bipartite_pair(1, 1)))
    np.testing.assert_allclose(out.coordinates, [60.0, -25.0], atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_gd_roundtrip_on_the_double_well_region(x0):
    m = gradient_descent(double_well(1), 0.1)
    s = State([x0], euclidean(1))
    assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10


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
         lambda: sample_chart(bipartite_pair(1, 2), rng, scale=5.0)),
        (sphere_rgd(bump(3), 0.1), lambda: sample_chart(sphere(3), rng)),
    ]
    for m, draw in families:
        for _ in range(30):
            s = draw()
            assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10, m.kind


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
        return m, State(renormalize(u, m.chart)[0], m.chart)
    m = (mwu_exponential if kind == "mwu_exp" else mwu_linear)(obj, eta, blocks)
    return m, State(renormalize(0.05 + np.abs(u), m.chart)[0], m.chart)


@settings(max_examples=300, deadline=None)
@given(roundtrip_cases())
def test_forward_then_inverse_returns_to_the_start_on_every_iterative_kind(case):
    m, s = case
    assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10


@pytest.mark.parametrize("kind", ["gd", "mwu_lin", "rgd_sphere"])
def test_an_objective_without_a_hessian_inverts_by_finite_differences(kind):
    obj = dataclasses.replace(double_well(3), hessian=None)
    m = {"gd": lambda: gradient_descent(obj, 0.1), "mwu_lin": lambda: mwu_linear(obj, 0.2, (2, 1)),
         "rgd_sphere": lambda: sphere_rgd(obj, 0.1)}[kind]()
    rng = np.random.default_rng(17)
    for _ in range(20):
        if kind == "gd":
            s = State(rng.uniform(-1.4, 1.4, 3), m.chart)
        else:
            s = sample_chart(m.chart, rng)
        assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10


def test_gd_inverse_of_a_step_from_the_box_edge_returns_to_the_edge():
    """Newton converges one rounding past x = 1.5 here; the box's nearest
    point steps to the target within the tolerance and is the preimage."""
    m = gradient_descent(double_well(1), Fraction(4307790947919605, 2**55))
    s = State([1.5], euclidean(1))
    assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10


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
        assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10
    for _ in range(300):
        d = int(rng.integers(1, 5))
        m = gradient_descent(quadratic(d), rng.uniform(0.01, 0.9) / d)
        u = rng.normal(size=d)
        s = State(10.0 * u / np.linalg.norm(u), m.chart)
        if not region_contains(m.objective.region, s.coordinates):
            continue  # rounded a hair past the sphere: not a start of the map
        assert inverse_step(m, step(m, s)).distance_to(s) <= 1e-10


def test_gd_inverse_fails_loudly_outside_the_region():
    """The preimage of a point near the region edge lies outside it."""
    m = gradient_descent(quadratic(1), 0.5)
    with pytest.raises(RegionError):
        inverse_step(m, State([9.0], euclidean(1)))  # preimage 18 > radius 10


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
    with pytest.raises(InversionError) as err:
        inverse_step(m, x, InverseConfig(max_iterations=0))
    assert str(err.value) == f"{name} inversion did not reach 1.0e-12 in 0 iterations"
    assert err.value.last_iterate.shape == x.coordinates.shape
    assert err.value.residual > 1e-12
    # An orbit attaches the index of the backward step that failed.
    monkeypatch.setattr(dynamics, "_DEFAULT_CFG", InverseConfig(max_iterations=0))
    with pytest.raises(InversionError) as err:
        Orbit(m, x).segment(0, 3)
    assert err.value.step_index == -1


def test_orbit_with_no_steps_contains_only_the_origin():
    m = gradient_descent(double_well(1), 0.1)
    s = State([0.5], euclidean(1))
    orb = Orbit(m, s)
    assert list(orb.segment(0, 0)) == [0]
    assert orb[0] is s
    assert orb.states == {0: s}


def test_orbit_forward_tail_reaches_the_basin_minimizer():
    orb = Orbit(gradient_descent(double_well(1), 0.1), State([0.5], euclidean(1)))
    assert abs(orb[orb.segment(200)[-1]].coordinates[0] - 1.0) <= 1e-8


def test_orbit_backward_tail_climbs_to_the_local_maximum():
    orb = Orbit(gradient_descent(double_well(1), 0.1), State([0.5], euclidean(1)))
    assert abs(orb[orb.segment(0, 200)[0]].coordinates[0] - 0.0) <= 1e-6


def test_orbit_truncates_at_fixed_points_and_flags_it():
    orb = Orbit(gradient_descent(double_well(1), 0.1), State([1.0], euclidean(1)))
    window = orb.segment(50)
    # A side cut short of what was asked stopped at a fixed point.
    assert window[-1] < 50
    # Past the cut the orbit stays at the fixed point.
    assert orb[50].coordinates[0] == pytest.approx(1.0)


def test_orbit_indices_cover_the_requested_window():
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    orb = Orbit(m, State([60.0, -25.0], bipartite_pair(1, 1)))
    assert orb.segment(5, 3) == range(-3, 6)
    np.testing.assert_allclose(orb[1].coordinates, [57.5, -13.5])


def test_orbit_consistency_forward_of_backward_is_identity():
    dw = double_well(2)
    m = gradient_descent(dw, 0.1)
    rng = np.random.default_rng(3)
    orb = Orbit(m, State(rng.uniform(-1.2, 1.2, size=2), euclidean(2)))
    assert orb.segment(0, 10) == range(-10, 1)
    for k in range(-10, 0):
        fwd = step(m, orb[k])
        assert fwd.distance_to(orb[k + 1]) <= 1e-9


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


def test_orbit_forward_defects_are_recorded():
    m = mwu_exponential(quadratic(4), 0.01, (2, 2))
    orb = Orbit(m, State([0.4, 0.6, 0.3, 0.7], simplex_product(2, 2)))
    assert orb.segment(25) == range(0, 26)
    assert sorted(orb.defects) == list(range(1, 26))
    assert max(orb.defects.values()) < 1e-14


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
        State([60.0, -25.0], bipartite_pair(1, 1)),
    ),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_reads_equal_a_direct_walk_bit_for_bit(case):
    m, x = ORBIT_CASES[case]
    orb = Orbit(m, x)
    for n in (3, -2, 6, -4, 1):  # out of order, both sides
        orb[n]
    fwd, back, defects = [x], [x], []
    for _ in range(6):
        nxt, defect = step_with_defect(m, fwd[-1])
        fwd.append(nxt)
        defects.append(defect)
    for _ in range(4):
        back.append(inverse_step(m, back[-1]))
    assert orb[0] is x
    for k in range(7):
        assert orb[k].coordinates.tobytes() == fwd[k].coordinates.tobytes()
    for k in range(5):
        assert orb[-k].coordinates.tobytes() == back[k].coordinates.tobytes()
    assert [orb.defects[k] for k in range(1, 7)] == defects
    stored = dict(orb.states)
    assert orb.segment(6, 4) == range(-4, 7)  # read from the stored states, not stepped again
    assert all(orb[k] is stored[k] for k in range(-4, 7)) and orb.states == stored


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
    assert orb[-1].coordinates[0] == 6.0
    assert orb[2].coordinates[0] == 0.75  # the forward side is untouched


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
    assert not detect_fixed_point(m, State([0.5], euclidean(1)), 1e-9)


def test_detect_fixed_point_mwu_uniform_constant_gradient():
    m = mwu_exponential(linear([2.0, 2.0, 2.0]), 0.5, (3,))
    uniform = State([1 / 3, 1 / 3, 1 / 3], simplex_product(3))
    assert detect_fixed_point(m, uniform)


def test_fixed_point_set_filters_candidates():
    m = gradient_descent(double_well(1), 0.1)
    candidates = [State([v], euclidean(1)) for v in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    fps = FixedPointSet.from_candidates(m, candidates)
    assert len(fps) == 3
    assert fps.contains(State([1.0], euclidean(1)))
    assert not fps.contains(State([0.5], euclidean(1)))
    assert fps.contains(State([0.5], euclidean(1)), slack=0.6)


def test_inverse_step_rejects_chart_mismatch():
    from conmot.errors import ChartViolation

    m = gradient_descent(quadratic(2), 0.1)
    with pytest.raises(ChartViolation):
        inverse_step(m, State([1.0, 0.0], simplex_product(2)))
