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

The trade-off curve is c_B(c_A) = K*(1/c_A - 2m*sqrt(1 - 1/c_A)), K = 1/b_rand.
At a float c_A, c_B and the c_B = 1 crossing are quotients
(a + b*sqrt(R))/(c + d*sqrt(R)) of ints with a positive denominator, which
one kernel, _rounded_ratio, rounds correctly.  A perfect square R takes one
int true division, which Python rounds correctly.  Otherwise
k = isqrt(R*4^t) gives k < 2^t*sqrt(R) < k + 1; once the denominator is
positive at both ends, the quotient is monotone between them, and if both
ends round to the same float, so does the value.  Each pass adds 64 to t.
The loop ends: if b*c == a*d the quotient is a constant rational; otherwise
it is irrational (a rational q would give (b - q*d)*sqrt(R) = q*c - a with
b != q*d), so it is neither a float nor a halfway point, lies inside its
rounding interval, and both ends converge into that interval.

Each curve row prints the correctly rounded c_B at its printed c_A.  The
default last row is the crossing: c_A rounded to a float and c_B = 1.0, the
curve's value at the exact crossing.  The value at the rounded c_A would say
little: near c_A = 1 the curve falls by about K*(1 + 2m^2) per unit of c_A,
1e49 per ulp for 1-of-200 OT.
"""

from __future__ import annotations

import itertools
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


def _rounded_ratio(a: int, b: int, c: int, d: int, radicand: int) -> float:
    """The float nearest (a + b*sqrt(R))/(c + d*sqrt(R)), for ints, R >= 0 and
    a positive denominator; the module docstring proves rounding and termination."""
    root = math.isqrt(radicand)
    if root * root == radicand:
        return (a + b * root) / (c + d * root)
    for t in itertools.count(64, 64):
        k = math.isqrt(radicand << 2 * t)
        (n0, d0), (n1, d1) = [((a << t) + b * y, (c << t) + d * y) for y in (k, k + 1)]
        if d0 > 0 and d1 > 0 and n0 / d0 == n1 / d1:
            return n0 / d0


def _c_b(c_a: float, n: int, d: int, m: int) -> float:
    """c_B at c_A = p/q for b_rand = n/d: d*(q - 2m*sqrt((p - q)*p))/(n*p)."""
    p, q = c_a.as_integer_ratio()
    return _rounded_ratio(d * q, -2 * m * d, n * p, 0, (p - q) * p)


def cb_from_ca(c_a: float, b_rand_value: Rational, y_size: int) -> float:
    """Lower bound on the receiver's gap factor c_B at sender gap c_A, correctly rounded."""
    if c_a < 1:
        raise ValueError("c_a must be at least 1")
    if y_size < 1:
        raise ValueError("y_size must be positive")
    n, d = Fraction(b_rand_value).as_integer_ratio()
    if n <= 0:
        raise ValueError("b_rand must be positive")
    return _c_b(c_a, n, d, y_size - 1)


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
    """The c_A at which the trade-off curve c_B(c_A) falls to ``target``, correctly rounded.

    With x = 1/c_A, t = sqrt(1 - x) and beta = b_rand*target = N/D, the
    equation is t^2 + 2mt - (1 - beta) = 0, so t = sqrt(m^2 + 1 - beta) - m,
    x = beta + 2mt and c_A = D/(N - 2m^2 D + 2m sqrt(D(D(m^2 + 1) - N))).  A
    target below the curve's value at c_A = 1/b_rand gives 1/b_rand.
    """
    br, m = Fraction(b_rand_value), y_size - 1
    if not 0 < br < 1:
        raise ValueError("b_rand must lie in (0, 1)")
    if m < 0:
        raise ValueError("y_size must be positive")
    beta = br * Fraction(target)
    if beta > 1:
        raise ValueError(f"curve starts below target {target}")
    if beta < br and 4 * m * m * (1 - br) < (br - beta) ** 2:
        return float(1 / br)
    n, d = beta.as_integer_ratio()
    return _rounded_ratio(d, 0, n - 2 * m * m * d, 2 * m, d * (d * (m * m + 1) - n))


def emit_curve(
    b_rand_value: Rational,
    y_size: int,
    samples: int = 200,
    ca_min: float = 1.0,
    ca_max: Optional[float] = None,
    clip_below_one: bool = False,
) -> list[CurvePoint]:
    """Evenly spaced samples of the trade-off curve.

    ``ca_max`` defaults to the c_B = 1 crossing, matching how the curves are
    plotted.  With ``clip_below_one`` samples whose c_B is below 1 are dropped
    (the plots show only c_B >= 1).  OverflowError when 1/b_rand is beyond a
    float, ValueError when the float c_A grid does not strictly increase.
    """
    br = Fraction(b_rand_value)
    if br >= 1:
        raise InsecureTaskError(f"baseline {br}: no trade-off curve to emit")
    if br <= 0:
        raise ValueError("b_rand must be positive")
    if 1 / br > sys.float_info.max:
        raise OverflowError(
            "1/b_rand is beyond the float range; the trade-off curve is computed in floats"
        )
    if samples < 2:
        raise ValueError("need at least 2 samples")
    at_crossing = ca_max is None
    if at_crossing:
        ca_max = ca_crossing(br, y_size)
    if not 1.0 <= ca_min <= ca_max:
        raise ValueError(f"bad c_a range [{ca_min}, {ca_max}]")
    if ca_max > float(1 / br):
        raise ValueError(f"ca_max {ca_max} beyond 1/b_rand = {float(1 / br)}")
    step = (ca_max - ca_min) / (samples - 1)
    grid = [ca_min + i * step for i in range(samples - 1)] + [ca_max]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"--samples {samples} is too many for the c_A range [{ca_min!r}, {ca_max!r}]: "
            "the float grid does not strictly increase"
        )
    n, d = br.as_integer_ratio()
    rows = grid[:-1] if at_crossing else grid
    points = [CurvePoint(c_a, _c_b(c_a, n, d, y_size - 1)) for c_a in rows]
    if at_crossing:
        points.append(CurvePoint(ca_max, 1.0))
    if clip_below_one:
        points = [p for p in points if p.c_b >= 1.0]
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
