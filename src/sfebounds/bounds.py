"""Cheating trade-off curve, security-constant fixed point, and curve emission.

For a task with baselines a_rand = 1/|Y| and b_rand < 1, any protocol obeys
a trade-off between the two parties' cheating probabilities; the constant
c > 1 solving

    c = (1/b_rand) * (1/c - 2*(|Y|-1)*sqrt(1 - 1/c))

guarantees that at least one party can cheat with probability >= c times
their baseline.  The root is found in the transformed variable
s = sqrt(1 - 1/c).  With u = 1 - s^2 and m = |Y| - 1 the equation becomes
r(s) = 0 for the residual scaled by the baseline,

    r(s) = b_rand - u*(u - 2*m*s),

which lies between b_rand - 1 and b_rand + 2*m on [0, 1] however large
1/b_rand is.

r has exactly one root in [0, 1], with r < 0 left of it and r > 0 right of
it.  The ends have opposite signs: r(0) = b_rand - 1 < 0 and r(1) = b_rand > 0.
Write v = u - 2*m*s; u and v are strictly decreasing on [0, 1].  While
v > 0, u and v are both positive, so u*v falls and r rises strictly.  Once
v <= 0, it stays so, u*v <= 0 and r >= b_rand > 0.

Solving in s keeps the extreme regime well conditioned: excesses c - 1 down
to ~1e-19 map to s ~ 1e-10, comfortably representable, while c itself
rounds to 1.0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, Optional, TextIO, Union

from .tasks import SfeTask, b_rand

Rational = Union[Fraction, int, float]

SOLVER_MAX_ITERATIONS = 1076  # proven bound on the halvings, see solve_fixed_point


class InsecureTaskError(ValueError):
    """The single-query baseline is already 1: nothing left to bound."""


@dataclass(frozen=True)
class FixedPointResult:
    """Root of the security-constant equation.

    ``s`` is the transformed root sqrt(1 - 1/c), correctly rounded;
    ``epsilon`` is the excess c - 1 computed as s^2/(1 - s^2) so tiny
    excesses survive rounding.  ``residual`` is the scaled residual r
    evaluated exactly (rational arithmetic) at the solver's last midpoint,
    then rounded to a float; being bounded on [0, 1], it cannot overflow.
    """

    c: float
    s: float
    epsilon: float
    residual: float
    iterations: int
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class BoundReport:
    """Evaluated trade-off for one task: baselines, constant, and bounds."""

    name: str
    y_size: int
    b_rand: Fraction
    a_rand: Fraction
    c: float
    epsilon: float
    alice_bound: float  # c / |Y|
    bob_bound: float  # c * b_rand
    fixed_point: FixedPointResult = field(repr=False)


@dataclass(frozen=True)
class CurvePoint:
    c_a: float
    c_b: float


def cb_from_ca(c_a: float, b_rand_value: Rational, y_size: int) -> float:
    """Lower bound on the receiver's gap factor c_B at sender gap c_A."""
    if c_a < 1:
        raise ValueError("c_a must be at least 1")
    if y_size < 1:
        raise ValueError("y_size must be positive")
    k = float(1 / Fraction(b_rand_value))
    inv = 1.0 / c_a
    return k * (inv - 2.0 * (y_size - 1) * math.sqrt(1.0 - inv))


def solve_fixed_point(b_rand_value: Rational, y_size: int) -> FixedPointResult:
    """Solve the security-constant equation for given baseline and |Y|.

    Bisection of r on [0, 1] in exact rational arithmetic, so no sign
    decision is corrupted by rounding.  The bracket [lo, hi] keeps
    r(lo) <= 0 <= r(hi).  Each step replaces one end by the midpoint.  The
    loop stops once the bracket lies inside the rounding interval of
    s = float(midpoint): the closed interval between the halfway points to
    the float neighbours of s, cut at 0 and 1.  That holds as soon as
    float(lo) == float(hi), and also when an end of the bracket is itself a
    halfway point that rounds away from the root.

    Correct rounding.  The root lies in the bracket, strictly inside it
    unless r is exactly 0 at the midpoint.  At the stop the bracket lies in
    the rounding interval of s, so the root lies strictly between the two
    halfway points around s and rounds to s; an exact root at the midpoint
    rounds to s by definition.

    Termination.  Every float in [0, 1] is a multiple of 2^-1074, so every
    halfway point between two of them is a multiple of 2^-1075.  The k-th
    midpoint is an odd multiple of 2^-k, and the bracket after it has width
    2^-k with the midpoint as one end.  For k >= 1076 the midpoint is no
    halfway point and no halfway point lies strictly inside the bracket, so
    the bracket lies in the rounding interval of the midpoint's float.  The
    loop therefore ends within SOLVER_MAX_ITERATIONS = 1076 halvings; the
    warning for running out of them is a guard only.

    ``c`` and ``epsilon`` come from the float s.  ValueError when a float
    cannot carry them: 1 - s*s rounds to 0 (only |Y| = 1 with b_rand
    below about 2^-106), or epsilon is not a normal float (for instance
    inner product beyond n = 510).
    """
    if y_size < 1:
        raise ValueError("y_size must be positive")
    br = Fraction(b_rand_value)
    if br >= 1:
        raise InsecureTaskError("baseline is 1: completely insecure, no constant to solve")
    if br <= 0:
        raise ValueError("b_rand must be positive")

    m = y_size - 1
    warnings: list[str] = []
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
    else:
        warnings.append("root not isolated to one float within the iteration budget")

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
        warnings=tuple(warnings),
    )


def bound_report(task: SfeTask) -> BoundReport:
    """Baselines, solved constant, and the two multiplicative bounds.

    Raises InsecureTaskError when the receiver baseline is already 1.
    """
    br = b_rand(task)
    if br >= 1:
        raise InsecureTaskError(f"{task.name}: completely insecure (baseline {br})")
    fp = solve_fixed_point(br, task.y_size)
    return BoundReport(
        name=task.name,
        y_size=task.y_size,
        b_rand=br,
        a_rand=Fraction(1, task.y_size),
        c=fp.c,
        epsilon=fp.epsilon,
        alice_bound=fp.c / task.y_size,
        bob_bound=fp.c * float(br),
        fixed_point=fp,
    )


def ca_crossing(b_rand_value: Rational, y_size: int, target: float = 1.0) -> float:
    """The c_A at which the trade-off curve c_B(c_A) falls to ``target``.

    Float bisection on the strictly decreasing curve over [1, 1/b_rand].
    """
    br = Fraction(b_rand_value)
    if not 0 < br < 1:
        raise ValueError("b_rand must lie in (0, 1)")
    lo, hi = 1.0, float(1 / br)
    if cb_from_ca(lo, br, y_size) < target:
        raise ValueError(f"curve starts below target {target}")
    if cb_from_ca(hi, br, y_size) >= target:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if cb_from_ca(mid, br, y_size) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def emit_curve(
    b_rand_value: Rational,
    y_size: int,
    samples: int = 200,
    ca_min: float = 1.0,
    ca_max: Optional[float] = None,
    clip_below_one: bool = False,
) -> list[CurvePoint]:
    """Evenly spaced samples of the trade-off curve.

    ``ca_max`` defaults to the point where c_B reaches 1, matching how the
    curves are plotted.  With ``clip_below_one`` samples whose c_B drops
    below 1 are dropped (the plots show only c_B >= 1).
    """
    br = Fraction(b_rand_value)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if ca_max is None:
        ca_max = ca_crossing(br, y_size)
    if not 1.0 <= ca_min < ca_max:
        raise ValueError(f"bad c_a range [{ca_min}, {ca_max}]")
    if ca_max > float(1 / br) * (1 + 1e-12):
        raise ValueError(f"ca_max {ca_max} beyond 1/b_rand = {float(1 / br)}")
    step = (ca_max - ca_min) / (samples - 1)
    points = []
    for i in range(samples):
        c_a = ca_min + i * step
        c_b = cb_from_ca(c_a, br, y_size)
        if clip_below_one and c_b < 1.0 - 1e-12:
            continue
        points.append(CurvePoint(c_a=c_a, c_b=c_b))
    return points


def write_curve_csv(points: Iterable[CurvePoint], out: TextIO) -> None:
    """CSV with header c_A,c_B; shortest round-trip decimals, LF endings."""
    out.write("c_A,c_B\n")
    for pt in points:
        out.write(f"{pt.c_a!r},{pt.c_b!r}\n")


def present(value: float, digits: int = 4) -> str:
    """Round half away from zero to ``digits`` decimals, for display."""
    quantum = Decimal(1).scaleb(-digits)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
