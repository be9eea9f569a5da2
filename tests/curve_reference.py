"""Exact reference for the trade-off curve, in Fraction and isqrt only.

With K = 1/b_rand and m = |Y| - 1 the curve is

    c_B(c_A) = K * (1/c_A - 2m * sqrt(1 - 1/c_A)),

strictly decreasing on [1, K], and its crossing is the c_A where c_B = 1.
Every comparison of a curve quantity with a rational is decided by squaring
(``sign_plus_root``), so no rounding enters it.  The reference crossing is
found from an isqrt approximation and then moved, one float at a time, until
the exact comparisons put it within half an ulp.
"""

from __future__ import annotations

import math
from fractions import Fraction


def sign_plus_root(a: Fraction, b: Fraction, radicand: Fraction) -> int:
    """The sign of a + b*sqrt(radicand) for radicand >= 0, by squaring."""
    sign_a = (a > 0) - (a < 0)
    sign_b = ((b > 0) - (b < 0)) * (radicand > 0)
    if sign_a * sign_b >= 0:
        return sign_a or sign_b
    diff = a * a - b * b * radicand  # the larger square wins
    return sign_a if diff > 0 else sign_b if diff < 0 else 0


def curve_sign(c_a, b_rand: Fraction, m: int, h) -> int:
    """The sign of c_B(c_a) - h: b_rand*(c_B - h) = 1/c_a - h*b_rand - 2m*sqrt(1 - 1/c_a)."""
    inv = 1 / Fraction(c_a)
    return sign_plus_root(inv - Fraction(h) * b_rand, Fraction(-2 * m), 1 - inv)


def crossing_sign(b_rand: Fraction, m: int, h) -> int:
    """The sign of crossing - h, where c_B(crossing) = 1.

    c_B falls strictly from c_B(1) = K > 1, so the crossing lies right of h
    exactly when h < 1 or c_B(h) > 1."""
    return 1 if h < 1 else curve_sign(h, b_rand, m, 1)


def within_half_ulp(value: float, sign_minus) -> bool:
    """Whether the number whose comparison with h is sign_minus(h) lies
    between the halfway points around ``value``, ends included."""
    below = (Fraction(math.nextafter(value, -math.inf)) + Fraction(value)) / 2
    above = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return sign_minus(below) >= 0 >= sign_minus(above)


def crossing(b_rand: Fraction, m: int) -> float:
    """The correctly rounded crossing.  The first guess takes the stable root
    s = (1 - b)/(m + sqrt(m^2 + 1 - b)) of s^2 + 2ms - (1 - b) = 0, with the
    square root from isqrt to 2^-bits, and c_A = 1/(1 - s^2)."""
    bits = 128 + 4 * (b_rand.denominator.bit_length() + m.bit_length())
    radicand = m * m + 1 - b_rand
    num, den = radicand.numerator, radicand.denominator
    s = (1 - b_rand) / (m + Fraction(math.isqrt(num * den << 2 * bits), den << bits))
    value = float(1 / (1 - s * s))

    def sign_minus(h):
        return crossing_sign(b_rand, m, h)

    while not within_half_ulp(value, sign_minus):
        value = math.nextafter(value, math.inf if sign_minus(value) > 0 else -math.inf)
    return value
