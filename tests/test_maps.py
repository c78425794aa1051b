"""Forward update rules: worked one-step values, fixed points, error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conmot.errors import ChartViolation, RegionError, StepSizeError
from conmot.exact import BipartiteInvariant, PayoffData
from conmot.maps import (
    MAP_KINDS,
    MapInstance,
    _raw_step,
    alternating_play,
    descent_check,
    gradient_descent,
    mwu_exponential,
    mwu_linear,
    sphere_rgd,
    step_jacobian,
    step_points,
)
from conmot.objectives import bilinear, double_well, linear, quadratic, bump
from conmot.state import State, euclidean, sample_chart, simplex_product, sphere


def _step(m, s: State) -> np.ndarray:
    """T(s) as a coordinate row, through the one forward step."""
    return step_points(m, s.coordinates)[0]


def test_gd_contracts_the_quadratic():
    m = gradient_descent(quadratic(1), 0.1)
    out = _step(m, State([2.0], euclidean(1)))
    assert out[0] == pytest.approx(1.8)


def test_gd_two_dimensional_example():
    m = gradient_descent(quadratic(2), 0.1)
    out = _step(m, State([2.0, 0.0], euclidean(2)))
    np.testing.assert_allclose(out, [1.8, 0.0])


def test_gd_double_well_stationary_and_moving_points():
    m = gradient_descent(double_well(1), 0.1)
    minimizer = _step(m, State([1.0], euclidean(1)))
    assert minimizer[0] == pytest.approx(1.0)
    moved = _step(m, State([0.5], euclidean(1)))
    # 0.5 - 0.1 * (0.125 - 0.5)
    assert moved[0] == pytest.approx(0.5375)


def test_gd_refuses_points_outside_the_declared_region():
    m = gradient_descent(double_well(1), 0.1)
    with pytest.raises(RegionError):
        _step(m, State([2.0], euclidean(1)))


def test_descent_check_values():
    m = gradient_descent(quadratic(1), 0.1)
    assert descent_check(m, State([2.0], euclidean(1))) == pytest.approx(0.38)
    assert descent_check(m, State([0.0], euclidean(1))) == 0.0
    dw = double_well(1)
    mdw = gradient_descent(dw, 0.1)
    assert descent_check(mdw, State([0.5], euclidean(1))) > 0.0


def test_mwu_exp_worked_example():
    """Gradient (1, 0) at rate ln 2 reweights (1/2, 1/2) by (1/2, 1)."""
    m = mwu_exponential(linear([1.0, 0.0]), math.log(2.0), (2,))
    out = _step(m, State([0.5, 0.5], simplex_product(2)))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-15)


def test_mwu_lin_worked_example():
    m = mwu_linear(linear([1.0, 0.0]), 0.5, (2,))
    out = _step(m, State([0.5, 0.5], simplex_product(2)))
    np.testing.assert_allclose(out, [1 / 3, 2 / 3], atol=1e-15)


@pytest.mark.parametrize("ctor", [mwu_exponential, mwu_linear])
def test_mwu_constant_gradient_within_a_block_is_fixed(ctor):
    m = ctor(linear([3.0, 3.0, 5.0, 5.0]), 0.1, (2, 2))
    s = State([0.2, 0.8, 0.6, 0.4], simplex_product(2, 2))
    assert float(np.linalg.norm(_step(m, s) - s.coordinates)) == 0.0


@pytest.mark.parametrize("ctor", [mwu_exponential, mwu_linear])
def test_mwu_vertices_are_fixed(ctor):
    m = ctor(quadratic(2), 0.25, (2,))
    vertex = State([1.0, 0.0], simplex_product(2))
    out = _step(m, vertex)
    np.testing.assert_array_equal(out, [1.0, 0.0])


def test_mwu_lin_rejects_rate_that_kills_a_factor():
    """1 - eps * g must stay positive on the support."""
    m = mwu_linear(linear([3.0, 0.0]), 0.5, (2,))
    with pytest.raises(StepSizeError, match="factor"):
        _step(m, State([0.5, 0.5], simplex_product(2)))


def test_mwu_needs_one_rate_per_block_when_not_scalar():
    with pytest.raises(StepSizeError):
        mwu_exponential(quadratic(5), (0.1, 0.1, 0.1), (3, 2))


def test_alt_play_worked_example():
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    out = _step(m, State([60.0, -25.0], euclidean(2)))
    np.testing.assert_allclose(out, [57.5, -13.5])


def test_alt_play_zero_y_moves_only_y():
    """With Y = 0 the X update degenerates and Y reacts to the unchanged X."""
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    out = _step(m, State([4.0, 0.0], euclidean(2)))
    np.testing.assert_allclose(out, [4.0, 0.8])


def test_alt_play_origin_is_fixed():
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    out = _step(m, State([0.0, 0.0], euclidean(2)))
    np.testing.assert_array_equal(out, [0.0, 0.0])


def test_alt_play_and_bilinear_gd_share_one_euclidean_chart():
    """The state is X then Y on euclidean(dx + dy); only the payoff splits it,
    so one State serves alternating play and gd on the bilinear form."""
    p = PayoffData.from_matrix([[1, -2, 0.5], [0, 3, 1]])
    alt, gd = alternating_play(p, 0.1, 0.2), gradient_descent(bilinear(p), 0.1)
    assert alt.chart == gd.chart == euclidean(5)
    s = State([1.0, -1.0, 0.5, 2.0, 0.25], alt.chart)
    assert _step(alt, s).shape == _step(gd, s).shape == (5,)


def test_alt_play_strict_sequencing_not_simultaneous():
    """Y must react to the already-updated X: with A=[1] from (1, 1),
    X' = 1.1 and Y' = 1 + 0.2 * 1.1, not 1 + 0.2 * 1."""
    m = alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2)
    out = _step(m, State([1.0, 1.0], euclidean(2)))
    np.testing.assert_allclose(out, [1.1, 1.22])


def test_rgd_worked_example():
    m = sphere_rgd(linear([1.0, 0.0]), 0.1)
    out = _step(m, State([0.0, 1.0], sphere(2)))
    np.testing.assert_allclose(
        out, np.array([-0.1, 1.0]) / math.hypot(0.1, 1.0)
    )
    assert out[0] == pytest.approx(-0.09950372, abs=1e-8)
    assert out[1] == pytest.approx(0.99503719, abs=1e-8)


def test_rgd_radial_gradient_is_fixed():
    """When the ambient gradient is parallel to x the tangent part vanishes."""
    m = sphere_rgd(linear([0.6, 0.8]), 0.1)
    s = State([0.6, 0.8], sphere(2))
    assert float(np.linalg.norm(_step(m, s) - s.coordinates)) <= 1e-16


def test_rgd_descends_under_a_validated_rate():
    obj = bump(3)
    m = sphere_rgd(obj, 0.1)
    rng = np.random.default_rng(8)
    from conmot.state import sample_chart

    for _ in range(50):
        s = sample_chart(sphere(3), rng)
        assert descent_check(m, s) >= -1e-15


def test_descent_check_rejects_chart_mismatch():
    m = gradient_descent(quadratic(2), 0.1)
    with pytest.raises(ChartViolation, match="^state chart does not match map chart$"):
        descent_check(m, State([1.0, 0.0], simplex_product(2)))


FACTORIES = {
    "gd": lambda: gradient_descent(quadratic(2), 0.1),
    "mwu_exp": lambda: mwu_exponential(quadratic(3), 0.1, (3,)),
    "mwu_lin": lambda: mwu_linear(quadratic(3), 0.1, (3,)),
    "alt_play": lambda: alternating_play(PayoffData.from_matrix([[1]]), 0.1, 0.2),
    "rgd_sphere": lambda: sphere_rgd(bump(3), 0.1),
}


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_a_map_without_its_objective_or_payoff_is_refused_at_construction(kind):
    built = FACTORIES[kind]()
    assert built.kind == kind
    needs = "closed form" if kind == "alt_play" else "objective"
    with pytest.raises(ValueError, match=f"^an? {kind} map needs its {needs}$"):
        MapInstance(kind, built.step_sizes)
    # The other field does not stand in for the missing one.
    other = ({"closed_form": BipartiteInvariant(PayoffData.from_matrix([[1]]), 0.1, 0.2)}
             if needs == "objective" else {"objective": quadratic(2)})
    with pytest.raises(ValueError, match=f"needs its {needs}$"):
        MapInstance(kind, built.step_sizes, **other)


CHARTS = {"gd": euclidean(2), "mwu_exp": simplex_product(3), "mwu_lin": simplex_product(3),
          "alt_play": euclidean(2), "rgd_sphere": sphere(3)}


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_the_map_derives_its_chart_from_its_kind(kind):
    built = FACTORIES[kind]()
    assert built.chart == CHARTS[kind]
    fields = {"objective": built.objective, "closed_form": built.closed_form,
              "blocks": built.blocks}
    assert MapInstance(kind, built.step_sizes, **fields) == built
    # Floats convert exactly, as the factories' arguments do.
    assert MapInstance(kind, built.float_step_sizes, **fields) == built


def test_an_mwu_map_derives_its_product_of_simplices():
    built = mwu_exponential(quadratic(4), (0.1, 0.2), [2, 2])
    assert built.chart == simplex_product(2, 2) and built.blocks == (2, 2)
    direct = MapInstance("mwu_exp", (0.1, 0.2), objective=quadratic(4), blocks=(2, 2))
    assert direct.chart == built.chart and direct.step_sizes == built.step_sizes


def test_a_map_takes_no_chart():
    with pytest.raises(TypeError, match="chart"):
        MapInstance("gd", (0.1,), objective=quadratic(2), chart=sphere(2))
    # The old positional form, a chart before the step sizes, does not build either:
    # gd renormalised onto the sphere, mwu on R^3, and a second block never written.
    for kind, chart, obj in (("gd", sphere(2), quadratic(2)),
                             ("mwu_exp", euclidean(3), quadratic(3)),
                             ("mwu_exp", simplex_product(2, 2), quadratic(4))):
        with pytest.raises(TypeError):
            MapInstance(kind, chart, (0.1,), objective=obj)


def test_mwu_blocks_must_cover_the_objective_with_one_rate_each():
    mismatch = r"^objective dimension 3 does not match blocks \(2{}\)$"
    with pytest.raises(ChartViolation, match=mismatch.format(", 2")):
        MapInstance("mwu_exp", (0.1, 0.1), objective=quadratic(3), blocks=(2, 2))
    with pytest.raises(ChartViolation, match=mismatch.format(",")):
        mwu_linear(quadratic(3), 0.1, (2,))
    with pytest.raises(ChartViolation, match="^chart blocks must be positive"):
        MapInstance("mwu_exp", (0.1,), objective=quadratic(3))
    for rates in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(StepSizeError, match="^need one learning rate per agent block$"):
            MapInstance("mwu_exp", rates, objective=quadratic(4), blocks=(2, 2))
        with pytest.raises(StepSizeError, match="^need one learning rate per agent block$"):
            mwu_exponential(quadratic(4), list(rates), (2, 2))
    with pytest.raises(ValueError, match="^a gd map takes no blocks$"):
        MapInstance("gd", (0.1,), objective=quadratic(2), blocks=(2,))


def test_step_points_reports_float_noise_only():
    m = mwu_exponential(quadratic(3), 0.05, (3,))
    s = State([0.2, 0.3, 0.5], simplex_product(3))
    out, defect = step_points(m, s.coordinates)
    assert 0.0 <= defect < 1e-14
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_map_constructors_reject_nonpositive_rates():
    with pytest.raises(StepSizeError):
        gradient_descent(quadratic(1), 0.0)
    with pytest.raises(StepSizeError):
        alternating_play(PayoffData.from_matrix([[1]]), 0.1, -0.2)


def test_an_alt_play_map_steps_with_the_step_sizes_of_its_closed_form():
    phi = BipartiteInvariant(PayoffData.from_matrix([[1]]), "0.1", "0.2")
    m = alternating_play(phi.payoff, "0.1", "0.2")
    assert m.step_sizes == (phi.eta1, phi.eta2) == (m.closed_form.eta1, m.closed_form.eta2)
    assert MapInstance("alt_play", ("0.1", "0.2"), closed_form=phi).closed_form is phi
    for rates in (("0.1", "0.3"), ("0.2", "0.1"), (0.1, 0.2), ("0.1",), ("0.1", "0.2", "0.2")):
        with pytest.raises(ValueError, match="^an alt_play map steps with the step sizes of "
                                             "its closed form$"):
            MapInstance("alt_play", rates, closed_form=phi)


def test_step_sizes_are_stored_exactly():
    from fractions import Fraction

    m = alternating_play(PayoffData.from_matrix([[1]]), "0.1", Fraction(1, 5))
    assert m.step_sizes == (Fraction(1, 10), Fraction(1, 5))
    assert m.float_step_sizes == (0.1, 0.2)


# ---------------------------------------------------------------------------
# array kernels: a (B, d) array is B single points, bit for bit


def _catalogue(name, dim):
    if name == "quadratic":
        return quadratic(dim)
    if name == "double_well":
        return double_well(dim)
    if name == "bump":
        return bump(dim)
    if name == "linear":
        return linear(np.linspace(-1.0, 1.5, dim))
    payoff = PayoffData.from_matrix(np.arange(1.0, 1.0 + dim * (dim + 1)).reshape(dim, dim + 1) / 7)
    return bilinear(payoff)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["quadratic", "double_well", "bump", "linear", "bilinear"]),
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(0, 2**31),
)
def test_catalogue_gradients_act_row_by_row_bit_for_bit(name, dim, rows, seed):
    obj = _catalogue(name, dim)
    pts = np.random.default_rng(seed).normal(scale=2.0, size=(rows, obj.dimension))
    batch = obj.gradient(pts)
    assert batch.shape == pts.shape
    for row, p in zip(batch, pts):
        assert row.tobytes() == obj.gradient(p).tobytes()
    stacked = obj.gradient(np.stack([pts, pts[::-1]]))
    assert stacked[0].tobytes() == batch.tobytes()


def _kernel_map(kind, dim):
    if kind == "gd":
        return gradient_descent(double_well(dim), 0.1)
    if kind == "mwu_exp":
        return mwu_exponential(quadratic(dim + 2), (0.3, 0.1), (dim, 2))
    if kind == "mwu_lin":
        return mwu_linear(quadratic(dim + 2), 0.2, (dim, 2))
    if kind == "alt_play":
        return alternating_play(PayoffData.from_matrix(np.ones((dim, 2)) / 3), 0.1, 0.2)
    return sphere_rgd(linear(np.linspace(-1.0, 2.0, dim + 1)), 0.1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["gd", "mwu_exp", "mwu_lin", "alt_play", "rgd_sphere"]),
    st.integers(1, 4),
    st.integers(1, 9),
    st.integers(0, 2**31),
)
def test_step_points_rows_equal_the_one_row_call_bit_for_bit(kind, dim, rows, seed):
    m = _kernel_map(kind, dim)
    rng = np.random.default_rng(seed)
    if m.chart.kind == "euclidean":
        states = [State(rng.uniform(-1.4, 1.4, m.chart.dimension), m.chart) for _ in range(rows)]
    else:
        states = [sample_chart(m.chart, rng) for _ in range(rows)]
    coords = np.stack([s.coordinates for s in states])
    out, defects = step_points(m, coords)
    for row, defect, s in zip(out, np.broadcast_to(defects, len(states)), states):
        alone, alone_defect = step_points(m, s.coordinates)
        assert row.tobytes() == alone.tobytes()
        assert defect == alone_defect


def test_step_points_raises_when_any_point_fails():
    m = gradient_descent(double_well(1), 0.1)
    with pytest.raises(RegionError):
        step_points(m, np.array([[0.5], [2.0], [0.1]]))
    mwu = mwu_linear(quadratic(2), 1.5, (2,))  # factor 1 - 1.5 x fails only at x = 0.9
    with pytest.raises(StepSizeError):
        step_points(mwu, np.array([[0.5, 0.5], [0.9, 0.1]]))


def test_float_step_sizes_are_converted_once():
    m = mwu_exponential(quadratic(3), "0.1", (3,))
    assert m.float_step_sizes is m.float_step_sizes


# ---------------------------------------------------------------------------
# step Jacobians


def _jacobian_map(kind, obj):
    if kind == "gd":
        return gradient_descent(obj, 0.1)
    if kind == "rgd_sphere":
        return sphere_rgd(obj, 0.1)
    ctor = mwu_exponential if kind == "mwu_exp" else mwu_linear
    return ctor(obj, (0.3, 0.2), (2, obj.dimension - 2))


@pytest.mark.parametrize("name", ["quadratic", "double_well", "bump", "linear", "bilinear"])
@pytest.mark.parametrize("kind", ["gd", "mwu_exp", "mwu_lin", "rgd_sphere"])
def test_step_jacobian_matches_central_differences_of_the_rule(kind, name):
    m = _jacobian_map(kind, _catalogue(name, 3))
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(5):
        if m.chart.kind == "euclidean":
            y = rng.uniform(-1.4, 1.4, m.chart.dimension)
        else:
            y = sample_chart(m.chart, rng).coordinates
        eye = np.eye(len(y))
        central = np.stack([(_raw_step(m, y + h * e) - _raw_step(m, y - h * e)) / (2 * h)
                            for e in eye], axis=1)
        np.testing.assert_allclose(step_jacobian(m, y), central, atol=1e-8)
