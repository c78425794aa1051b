"""Small helpers for exact rational bookkeeping.

Floats are dyadic rationals, so Fraction(float) is exact; decimal strings and
Decimal values are parsed exactly as written. Every exact-to-float read goes
through one rule: the correctly rounded quotient (Python's int / int), with
+-inf for a magnitude beyond the float range, so a rational gives the same
float whether it is held reduced (as_float) or as an unreduced integer pair
(ratio_to_float).
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

__all__ = ["as_fraction", "as_float", "ratio_to_float"]

# A decimal string with an exponent: integer digits, fraction digits, exponent.
_EXPONENT_FORM = re.compile(r"\s*[-+]?([\d_]*)\.?([\d_]*)e([-+]?[\d_]+)\s*", re.IGNORECASE)


def _check_exponent(text: str) -> None:
    """Raise ValueError for a decimal string whose magnitude lies outside the
    float64 range, before Fraction expands its exponent into an exact integer
    (which takes time that grows faster than the exponent)."""
    match = _EXPONENT_FORM.fullmatch(text)
    if match is None:
        return
    whole, frac, exp = (g.replace("_", "") for g in match.groups())
    significant = (whole + frac).lstrip("0")
    # 10**lead <= |value| < 10**(lead + 1); a zero is judged by its exponent.
    lead = int(exp) + (len(significant) - len(frac) - 1 if significant else 0)
    if not -325 < lead < 309:
        raise ValueError("decimal exponent outside the float64 range")


def as_fraction(value) -> Fraction:
    """Exact Fraction from int, float, Fraction, Decimal, or numeric string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("cannot convert a non-finite float to a rational")
        return Fraction(value)
    if isinstance(value, str):
        _check_exponent(value)
    if isinstance(value, (str, Decimal)):
        return Fraction(value)
    # numpy scalars and anything else float-like
    return Fraction(float(value))


def as_float(value: Fraction) -> float:
    """float(value), correctly rounded; magnitudes beyond the float range
    give +-inf instead of raising."""
    return ratio_to_float(value.numerator, value.denominator)


def ratio_to_float(num: int, den: int) -> float:
    """num/den correctly rounded, without reducing the fraction first;
    magnitudes beyond the float range give +-inf. A zero den raises."""
    num, den = int(num), int(den)
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf
