"""Charts, state validation, renormalization, and chart sampling."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conmot.errors import ChartViolation
from conmot.state import (
    CHART_KINDS,
    State,
    euclidean,
    renormalize,
    sample_chart,
    simplex_product,
    sphere,
    tangent_frame,
)


def test_chart_dimensions_and_block_slices():
    c = simplex_product(3, 2)
    assert c.dimension == 5
    assert c.block_slices() == (slice(0, 3), slice(3, 5))
    assert euclidean(6).dimension == 6
    assert euclidean(3).blocks == (3,)


def test_there_are_three_chart_kinds():
    assert CHART_KINDS == ("euclidean", "simplex-product", "sphere")


def test_chart_rejects_bad_blocks():
    with pytest.raises(ChartViolation):
        simplex_product()
    with pytest.raises(ChartViolation):
        simplex_product(2, 0)


def test_state_rejects_wrong_dimension_and_nonfinite():
    with pytest.raises(ChartViolation):
        State([1.0, 2.0], euclidean(3))
    with pytest.raises(ChartViolation):
        State([np.nan, 0.0], euclidean(2))


def test_state_coordinates_are_readonly():
    s = State([1.0, 2.0], euclidean(2))
    with pytest.raises(ValueError):
        s.coordinates[0] = 5.0


def test_simplex_state_requires_unit_block_sums():
    c = simplex_product(2)
    State([0.25, 0.75], c)
    with pytest.raises(ChartViolation):
        State([0.25, 0.70], c)


def test_simplex_state_clamps_float_noise_negatives():
    """A -1e-14 coordinate from an update is noise, not a chart exit."""
    c = simplex_product(2)
    s = State([-1e-14, 1.0 + 1e-14], c)
    assert s.coordinates[0] == 0.0


def test_sphere_state_requires_unit_norm():
    c = sphere(2)
    State([0.6, 0.8], c)
    with pytest.raises(ChartViolation):
        State([1.0, 1.0], c)


def test_renormalize_reports_the_removed_defect():
    c = simplex_product(2)
    coords, defect = renormalize(np.array([0.5, 0.6]), c)
    assert coords == pytest.approx([0.5 / 1.1, 0.6 / 1.1])
    assert defect == pytest.approx(0.1)

    coords, defect = renormalize(np.array([3.0, 4.0]), sphere(2))
    assert np.linalg.norm(coords) == pytest.approx(1.0, abs=1e-15)
    assert defect == pytest.approx(4.0)

    coords, defect = renormalize(np.array([7.0, -2.0]), euclidean(2))
    assert defect == 0.0
    assert coords == pytest.approx([7.0, -2.0])


def test_renormalize_refuses_unrecoverable_inputs():
    with pytest.raises(ChartViolation):
        renormalize(np.array([0.0, 0.0]), sphere(2))
    with pytest.raises(ChartViolation):
        renormalize(np.array([-0.5, 1.5]), simplex_product(2))


def test_sample_chart_lands_on_each_chart():
    rng = np.random.default_rng(0)
    for chart in (euclidean(4), simplex_product(3, 2), sphere(3)):
        for _ in range(20):
            s = sample_chart(chart, rng)
            assert s.chart == chart  # State construction re-validated it


def test_distance_to():
    a = State([0.0, 0.0], euclidean(2))
    b = State([3.0, 4.0], euclidean(2))
    assert a.distance_to(b) == pytest.approx(5.0)


# Frames are built in closed form, so their defects are a few roundings.
FRAME_TOL = 1e-14


def _worst(a: np.ndarray) -> float:
    return np.abs(a).max(initial=0.0)


def _assert_orthonormal_columns(frame: np.ndarray) -> None:
    assert _worst(frame.T @ frame - np.eye(frame.shape[1])) <= FRAME_TOL


@st.composite
def sphere_points(draw):
    """A unit vector in R^d, d from 2 to 8: a drawn direction, one on the
    hyperplane y_0 = 0, or one of the poles +e_0 and -e_0, where the
    Householder vector would cancel with the other sign choice."""
    d = draw(st.integers(2, 8))
    case = draw(st.sampled_from(["drawn", "y0 = 0", "+e0", "-e0"]))
    if case.endswith("e0"):
        y = np.zeros(d)
        y[0] = 1.0 if case == "+e0" else -1.0
        return y
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    if case == "y0 = 0":
        u[0] = 0.0
    assume(np.linalg.norm(u) > 0.1)
    return u / np.linalg.norm(u)


@settings(max_examples=200, deadline=None)
@given(sphere_points())
@example(np.eye(2)[0])
@example(-np.eye(8)[0])
@example(np.array([0.0, 0.6, 0.8]))
@example(np.array([-0.0, 0.0, 1.0]))
def test_the_sphere_frame_is_an_orthonormal_basis_orthogonal_to_the_point(y):
    frame = tangent_frame(sphere(len(y)), y)
    assert frame.shape == (len(y), len(y) - 1)
    _assert_orthonormal_columns(frame)
    assert _worst(frame.T @ y) <= FRAME_TOL


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_the_simplex_frame_is_an_orthonormal_basis_of_block_sum_zero_vectors(blocks):
    chart = simplex_product(*blocks)
    frame = tangent_frame(chart, np.ones(chart.dimension) / chart.dimension)
    assert frame.shape == (chart.dimension, chart.dimension - len(blocks))
    _assert_orthonormal_columns(frame)
    for sl in chart.block_slices():
        assert _worst(frame[sl].sum(0)) <= FRAME_TOL
    assert tangent_frame(chart, np.zeros(chart.dimension)) is frame  # built once, read-only
    assert not frame.flags.writeable


def test_the_flat_frames_are_the_identity():
    frame = tangent_frame(euclidean(3), np.zeros(3))
    assert np.array_equal(frame, np.eye(3)) and not frame.flags.writeable
