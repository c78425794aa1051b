"""Objective catalog: analytic derivatives, the payoff matrix, step-size checks."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conmot.exact import PayoffData
from conmot.objectives import (
    Ball,
    Box,
    bilinear,
    bump,
    double_well,
    linear,
    quadratic,
    region_contains,
    validate_step_size_gd,
    validate_step_size_manifold,
)
from conmot.rationals import as_fraction
from region_sampling import sample_region

CATALOG = [quadratic(2), double_well(2), bump(2), linear([1.0, -2.0])]


def _fd_gradient(f, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("obj", CATALOG, ids=lambda o: o.name)
def test_gradient_matches_central_differences(obj):
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = sample_region(obj.region, rng, obj.dimension)
        fd = _fd_gradient(obj.evaluate, x)
        scale = 1.0 + np.linalg.norm(fd)
        assert np.linalg.norm(obj.gradient(x) - fd) / scale < 1e-6


@pytest.mark.parametrize("obj", CATALOG, ids=lambda o: o.name)
def test_hessian_matches_differences_of_the_gradient(obj):
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(25):
        x = sample_region(obj.region, rng, obj.dimension)
        d = obj.dimension
        fd = np.empty((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[:, j] = (obj.gradient(x + e) - obj.gradient(x - e)) / (2 * h)
        scale = 1.0 + np.abs(fd).max()
        assert np.abs(obj.hessian(x) - fd).max() / scale < 1e-5


@pytest.mark.parametrize("obj", CATALOG, ids=lambda o: o.name)
def test_declared_curvature_bound_dominates_sampled_entries(obj):
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        x = sample_region(obj.region, rng, obj.dimension)
        worst = max(worst, float(np.abs(obj.hessian(x)).max()))
    assert worst <= obj.hessian_entry_bound + 1e-12


def test_double_well_curvature_bound_value():
    # |3 x^2 - 1| peaks at the box corner 1.5: 3 * 2.25 - 1.
    assert double_well(1).hessian_entry_bound == pytest.approx(5.75)


def test_region_membership_and_sampling():
    box = Box(lower=(-1.0, -1.0), upper=(1.0, 1.0))
    ball = Ball(center=(0.0, 0.0), radius=2.0)
    assert region_contains(box, np.array([0.5, -0.5]))
    assert not region_contains(box, np.array([1.5, 0.0]))
    assert region_contains(ball, np.array([1.0, 1.0]))
    assert not region_contains(ball, np.array([2.0, 1.0]))
    rng = np.random.default_rng(3)
    for region in (box, ball, None):
        for _ in range(50):
            assert region_contains(region, sample_region(region, rng, 2))


_PAYOFF_ENTRIES = {
    "lists": st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                       st.fractions()),
    "float64": st.floats(allow_nan=False, allow_infinity=False),
    "int64": st.integers(-(2**63), 2**63 - 1) | st.integers(2**53, 2**63 - 1),  # past float's 2^53
    "object": st.fractions(),
}
_PAYOFF_ENTRIES["tuples"] = _PAYOFF_ENTRIES["lists"]


@st.composite
def _payoff_inputs(draw):
    """(matrix as passed, its entries as nested Python lists)."""
    form = draw(st.sampled_from(sorted(_PAYOFF_ENTRIES)))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = [[draw(_PAYOFF_ENTRIES[form]) for _ in range(cols)] for _ in range(rows)]
    if form == "lists":
        return values, values
    if form == "tuples":
        return tuple(map(tuple, values)), values
    dtype = {"float64": np.float64, "int64": np.int64, "object": object}[form]
    return np.array(values, dtype=dtype), values


@settings(max_examples=200, deadline=None)
@given(_payoff_inputs())
def test_payoff_reads_every_entry_exactly(case):
    matrix, values = case
    p = PayoffData(matrix)
    expected = tuple(tuple(as_fraction(v) for v in row) for row in values)
    assert p.exact == expected
    assert all(type(v) is Fraction for row in p.exact for v in row)
    assert PayoffData.from_matrix(matrix).exact == expected
    assert p.matrix.dtype == np.float64 and not p.matrix.flags.writeable
    np.testing.assert_array_equal(p.matrix, [[float(v) for v in row] for row in expected])
    assert (p.dimension_x, p.dimension_y) == (len(values), len(values[0]))


def test_payoff_from_matrix_and_exact_entries():
    p = PayoffData.from_matrix([["0.1", 2]])
    assert p.exact[0][0] == Fraction(1, 10)  # decimal strings stay exact
    assert p.matrix[0][1] == 2.0


@pytest.mark.parametrize("matrix", [
    [[1, 2], [3]],
    ([1, 2], (3,)),
    [np.array([1, 2]), np.array([3])],
    [],
    [[]],
    [[1, [2]]],
    np.zeros((2, 2, 2)),
    [1, 2],
    3,
], ids=["ragged", "ragged-tuples", "ragged-numpy-rows", "empty", "empty-row", "nested-entry",
        "numpy-3d", "1d", "scalar"])
def test_payoff_refuses_what_is_not_one_matrix(matrix):
    with pytest.raises(ValueError, match="non-empty 2-d matrix with rows of one length"):
        PayoffData(matrix)


def test_payoff_reads_numpy_blocks_exactly():
    big = np.arange(6).reshape(2, 3) * (2**60 + 1)  # int64 entries beyond 2^53
    p = PayoffData.from_matrix(big)
    assert p.exact[1][2] == 5 * (2**60 + 1)
    np.testing.assert_array_equal(p.matrix, big.astype(float))


def test_gd_validator_quadratic_worked_example():
    v = validate_step_size_gd(quadratic(2), 0.9)
    assert v.accepted is True
    assert v.bound == pytest.approx(1.0)
    assert v.margin == pytest.approx(0.1)
    assert validate_step_size_gd(quadratic(2), 1.0).accepted is False


def test_gd_validator_double_well_example():
    v = validate_step_size_gd(double_well(1), 0.1)
    assert v.accepted is True
    assert v.bound == pytest.approx(2.0 / 5.75)


def test_gd_validator_flat_objective_accepts_everything():
    v = validate_step_size_gd(linear([1.0, 0.0]), 100.0)
    assert v.accepted is True
    assert v.bound == np.inf


def test_an_objective_without_a_hessian_is_refused_at_construction():
    """The Newton inverses differentiate every step through the Hessian, so
    an objective without one is refused before any map is built."""
    from conmot.objectives import ObjectiveSpec

    parts = dict(name="flat", dimension=1, evaluate=lambda x: 0.0,
                 gradient=lambda x: np.zeros_like(x))
    with pytest.raises(TypeError, match="hessian"):
        ObjectiveSpec(**parts)
    with pytest.raises(TypeError, match="^objective hessian must be callable$"):
        ObjectiveSpec(**parts, hessian=None)
    with pytest.raises(TypeError, match="^objective hessian must be callable$"):
        dataclasses.replace(quadratic(2), hessian=np.eye(2))


def test_gd_validator_unverifiable_is_not_a_rejection():
    from conmot.objectives import ObjectiveSpec

    blind = ObjectiveSpec(
        name="blind", dimension=1,
        evaluate=lambda x: float(np.sin(x[0])),
        gradient=lambda x: np.cos(x),
        hessian=lambda x: np.array([[-np.sin(x[0])]]),
    )
    v = validate_step_size_gd(blind, 0.5)
    assert v.accepted is None
    assert v.detail == "no curvature bound declared"
    assert (v.bound, v.margin, v.curvature_bound) == (None, None, None)


def test_manifold_validator_boundary_cases():
    assert validate_step_size_manifold(0.4, 2.0).accepted is True
    assert validate_step_size_manifold(0.5, 2.0).accepted is False
    v = validate_step_size_manifold(0.1)
    assert v.accepted is None
    assert v.detail == "no pullback Lipschitz bound supplied"
    flat = validate_step_size_manifold(100.0, 0.0)
    assert (flat.accepted, flat.bound, flat.detail) == (
        True, np.inf, "flat pullbacks, every step size passes")
    with pytest.raises(ValueError, match="lipschitz_bound must be nonnegative"):
        validate_step_size_manifold(0.1, -1.0)


def test_nonpositive_step_sizes_are_rejected_outright():
    assert validate_step_size_gd(quadratic(1), 0.0).accepted is False
    assert validate_step_size_manifold(-0.1, 1.0).accepted is False


def test_bilinear_objective_evaluates_the_pairing():
    p = PayoffData.from_matrix([[2.0]])
    obj = bilinear(p)
    z = np.array([3.0, 4.0])
    assert obj.evaluate(z) == pytest.approx(24.0)
    np.testing.assert_allclose(obj.gradient(z), [8.0, 6.0])
