"""Exactness guarantees of the rational conversion helpers."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conmot.rationals import as_float, as_fraction, ratio_to_float


def test_float_input_converts_to_its_exact_binary_value():
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(0.1) == Fraction(0.1)  # the binary value, not 1/10
    assert as_fraction(0.1) != Fraction(1, 10)


def test_decimal_string_is_taken_at_face_value():
    assert as_fraction("0.1") == Fraction(1, 10)
    assert as_fraction("-3/7") == Fraction(-3, 7)
    assert as_fraction(Decimal("2.25")) == Fraction(9, 4)


@pytest.mark.parametrize("text", ["1e99999999", "-1e-99999999", "1e309", "0.001e312", "1e-325"])
def test_decimal_exponents_beyond_float64_are_rejected_before_expansion(text):
    with pytest.raises(ValueError, match="outside the float64 range"):
        as_fraction(text)


def test_decimal_exponents_within_float64_are_taken_at_face_value():
    assert as_fraction("0.0001e312") == 10**308
    assert as_fraction("12.5e-325") == Fraction(125, 10**326)


def test_int_and_fraction_pass_through():
    assert as_fraction(7) == Fraction(7)
    f = Fraction(22, 7)
    assert as_fraction(f) is f


def test_bool_and_nonfinite_inputs_are_rejected():
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(ValueError):
        as_fraction(math.inf)
    with pytest.raises(ValueError):
        as_fraction(math.nan)


def test_ratio_to_float_basics():
    assert ratio_to_float(1, 2) == 0.5
    assert ratio_to_float(-3, 4) == -0.75
    assert ratio_to_float(0, 123456789) == 0.0
    with pytest.raises(ZeroDivisionError):
        ratio_to_float(1, 0)


def test_ratio_to_float_handles_huge_integers():
    """Magnitudes far past the float range saturate instead of raising."""
    big = 7 ** 3000
    assert ratio_to_float(big, 1) == math.inf
    assert ratio_to_float(-big, 1) == -math.inf
    assert ratio_to_float(1, big) == 0.0
    # A huge ratio near 1 still comes out exact.
    assert ratio_to_float(big * 3, big * 2) == 1.5


@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)
def test_ratio_to_float_matches_fraction_rounding_closely(num, den):
    assert ratio_to_float(num, den) == float(Fraction(num, den))


@st.composite
def near_halfway_ratios(draw):
    """num, den with num/den within a tiny offset (possibly zero) of the
    midpoint between two adjacent normal floats m 2^e and (m + 1) 2^e, both
    integers scaled by one large cofactor, so the bits that decide the
    rounding lie far below the leading 64 of either."""
    m = draw(st.integers(2**52, 2**53 - 1))
    e = draw(st.integers(-1074, 970))
    shift = draw(st.integers(1, 300))
    offset = draw(st.integers(-2, 2))
    q = Fraction(((2 * m + 1) << shift) + offset, 1 << shift) * Fraction(2) ** (e - 1)
    cofactor = draw(st.integers(2**64, 2**512))
    sign = draw(st.sampled_from([1, -1]))
    return sign * q.numerator * cofactor, q.denominator * cofactor


@given(near_halfway_ratios())
def test_ratio_to_float_rounds_near_halfway_quotients_correctly(ratio):
    num, den = ratio
    assert ratio_to_float(num, den) == float(Fraction(num, den))


def test_as_float_rounds_like_float_and_saturates_beyond_the_range():
    assert as_float(Fraction(1, 3)) == float(Fraction(1, 3))
    assert as_float(Fraction(10**400, 3)) == math.inf
    assert as_float(Fraction(-(10**400), 7)) == -math.inf


def test_ratio_to_float_rounds_correctly_where_a_leading_window_does_not():
    # Halfway cases decided by bits far below the leading 64 of each integer.
    big = 3**200
    num = (2**53 + 1) * big * 2**70 + 1
    den = big * 2**70
    assert ratio_to_float(num, den) == float(Fraction(num, den)) == 2.0**53 + 2
    assert ratio_to_float(-num, den) == -(2.0**53 + 2)
    assert ratio_to_float(1, 3 * 2**1074) == 0.0
    assert ratio_to_float(2, 3 * 2**1074) == 5e-324

