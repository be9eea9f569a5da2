"""Reference solver for the security constant, in Fraction arithmetic.

The bisection of ``bounds.solve_fixed_point`` with every quantity a
``Fraction``: the same bracket, midpoints and stop rule, with the stop test
made at every halving.  The solver under test must give the same result,
field for field, and refuse the same inputs with the same message.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from sfebounds.bounds import (
    SOLVER_MAX_ITERATIONS,
    FixedPointResult,
    InsecureTaskError,
    Rational,
)


def solve_fixed_point(b_rand_value: Rational, y_size: int) -> FixedPointResult:
    if y_size < 1:
        raise ValueError(f"y_size must be at least 1, got {y_size}")
    br = Fraction(b_rand_value)
    if br <= 0:
        raise ValueError("b_rand must be positive")
    if br >= 1:
        raise InsecureTaskError(f"baseline {br}: nothing to bound")

    m = y_size - 1
    lo, hi = Fraction(0), Fraction(1)
    for iterations in range(1, SOLVER_MAX_ITERATIONS + 1):
        mid = (lo + hi) / 2
        u = 1 - mid * mid
        r_mid = br - u * (u - 2 * m * mid)
        if r_mid <= 0:
            lo = mid
        if r_mid >= 0:
            hi = mid
        s = float(mid)
        below = (Fraction(math.nextafter(s, 0)) + Fraction(s)) / 2
        above = (Fraction(s) + Fraction(math.nextafter(s, 1))) / 2
        if below <= lo and hi <= above:
            break

    u = 1.0 - s * s
    if u == 0.0:
        raise ValueError(
            f"s = sqrt(1 - 1/c) rounds to 1.0 for b_rand = {float(br)!r}, |Y| = {y_size}; "
            "c = 1/(1 - s^2) is beyond a float"
        )
    epsilon = s * s / u
    if epsilon < sys.float_info.min:
        raise ValueError(
            f"c - 1 = s^2/(1 - s^2) with s = {s!r} is below the smallest normal float"
        )
    return FixedPointResult(
        c=1.0 / u,
        s=s,
        epsilon=epsilon,
        residual=float(r_mid),
        iterations=iterations,
    )
