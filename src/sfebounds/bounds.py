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

The equation, like the curve below, depends on only two inputs, b_rand and
|Y|.  Every entry point checks them in one place, _baseline: ValueError
unless |Y| is an integer >= 1 and b_rand > 0, then InsecureTaskError
unless b_rand < 1.

Solving in s keeps the extreme regime well conditioned: excesses c - 1 down
to ~1e-19 map to s ~ 1e-10, comfortably representable, while c itself
rounds to 1.0.

The solver bisects on dyadic integers.  With b_rand = N/D, a point
s = M/2^k and U = 4^k - M^2,

    r(M/2^k) = (N*16^k - D*U*(U - 2*m*M*2^k)) / (D*16^k),

so each sign decision is the sign of one int, and s and the residual are
int true divisions, which Python rounds correctly.

The trade-off curve is c_B(c_A) = K*(1/c_A - 2m*sqrt(1 - 1/c_A)), K = 1/b_rand.
At a float c_A, c_B and the c_B = 1 crossing are quotients (a + b*sqrt(R))/c
of ints with c > 0, which one kernel, _rounded_ratio, rounds correctly.
Each pass takes one k = isqrt(R*4^t).  If k*k == R*4^t, R is a perfect
square, sqrt(R) = k/2^t, and the quotient is exactly (a*2^t + b*k)/(c*2^t),
one int true division, which Python rounds correctly.  Otherwise
k < 2^t*sqrt(R) < k + 1, and the quotient lies between the ends
(a*2^t + b*k)/(c*2^t) and (a*2^t + b*k + b)/(c*2^t); if both ends round to
the same float, so does the quotient.  Each pass adds 64 to t.
The loop ends: if b == 0 both ends are a/c and the first pass returns it;
otherwise sqrt(R) and so the quotient are irrational, neither a float nor
a halfway point, so the quotient lies inside its rounding interval, and
the ends, |b|/(c*2^t) apart, converge into that interval.

A curve row at c_A = p/q with b_rand = N/D is the kernel's quotient with
a = D*q, b = -2m*D, c = N*p and R = (p - q)*p; ca_crossing rationalizes
the crossing into the same form.

Each curve row prints the correctly rounded c_B at its printed c_A.  The
default last row is the crossing: c_A rounded to a float and c_B = 1.0, the
curve's value at the exact crossing.  The value at the rounded c_A would say
little: near c_A = 1 the curve falls by about K*(1 + 2m^2) per unit of c_A,
1e49 per ulp for 1-of-200 OT.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, TextIO, Union

from .tasks import COUNT_RANGES, SfeTask, _integer, a_rand, b_rand

Rational = Union[Fraction, int, float]

SOLVER_MAX_ITERATIONS = 1076  # proven bound on the halvings, see solve_fixed_point


class InsecureTaskError(ValueError):
    """The single-query baseline is already 1: nothing left to bound."""


class FixedPointResult(NamedTuple):
    """Root of the security-constant equation.

    ``s`` is the transformed root sqrt(1 - 1/c), correctly rounded;
    ``epsilon`` is the excess c - 1 computed as s^2/(1 - s^2) so tiny
    excesses survive rounding.  ``residual`` is the scaled residual r
    evaluated exactly (an int over D*16^k) at the solver's last midpoint,
    then rounded to a float; being bounded on [0, 1], it cannot overflow.
    """

    c: float
    s: float
    epsilon: float
    residual: float
    iterations: int


class BoundReport(NamedTuple):
    """Evaluated trade-off for one task: baselines, constant, and bounds."""

    name: str
    y_size: int
    b_rand: Fraction
    a_rand: Fraction
    c: float
    epsilon: float
    alice_bound: float  # c / |Y|
    bob_bound: float  # c * b_rand
    fixed_point: FixedPointResult  # left out of the repr

    def __repr__(self) -> str:
        shown = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({shown})"


class CurvePoint(NamedTuple):
    c_a: float
    c_b: float


def _rounded_ratio(a: int, b: int, c: int, radicand: int) -> float:
    """The float nearest (a + b*sqrt(R))/c, for ints, R >= 0 and c > 0; the
    module docstring proves rounding and termination.  An end of magnitude
    2^1024 - 2^970 or more overflows: OverflowError once both ends lie
    beyond that edge on one side."""
    t = 64
    while True:
        scaled = radicand << 2 * t
        k = math.isqrt(scaled)
        num, den = (a << t) + b * k, c << t
        try:
            value = num / den
            if k * k == scaled or value == (num + b) / den:
                return value
        except OverflowError:
            edge = (2**1024 - 2**970) * den
            if k * k == scaled or min(num, num + b) >= edge or max(num, num + b) <= -edge:
                raise
        t += 64


def _c_b_rows(c_as: Iterable[float], n: int, d: int, m: int) -> list[float]:
    """c_B at each c_A = p/q for b_rand = n/d: d*(q - 2m*sqrt((p - q)*p))/(n*p),
    correctly rounded.  OverflowError naming the row when c_B is beyond the
    float range."""
    b = -2 * m * d
    values = []
    try:
        for c_a in c_as:
            p, q = c_a.as_integer_ratio()
            values.append(_rounded_ratio(d * q, b, n * p, (p - q) * p))
    except OverflowError:
        raise OverflowError(
            f"c_B at c_A = {c_a!r} is beyond the float range "
            f"(magnitude above {sys.float_info.max!r})"
        ) from None
    return values


def _baseline(b_rand_value: Rational, y_size: int) -> tuple[int, int, int]:
    """(N, D, m) for b_rand = N/D in lowest terms and m = |Y| - 1, Python
    ints: the one check of the two inputs every entry point below takes.
    ValueError unless |Y| is an integer of at least 1 by ``tasks._integer``
    and b_rand > 0, then InsecureTaskError unless b_rand < 1."""
    y_size = _integer("y_size", y_size, 1)
    br = Fraction(b_rand_value)
    if br <= 0:
        raise ValueError("b_rand must be positive")
    if br >= 1:
        raise InsecureTaskError(f"baseline {br}: nothing to bound")
    return (*br.as_integer_ratio(), y_size - 1)


def cb_from_ca(c_a: float, b_rand_value: Rational, y_size: int) -> float:
    """Lower bound on the receiver's gap factor c_B at sender gap c_A, correctly rounded."""
    if isinstance(c_a, float) and not math.isfinite(c_a):
        raise ValueError(f"c_a must be finite, got {c_a!r}")
    if c_a < 1:
        raise ValueError("c_a must be at least 1")
    return _c_b_rows([c_a], *_baseline(b_rand_value, y_size))[0]


def solve_fixed_point(b_rand_value: Rational, y_size: int) -> FixedPointResult:
    """Solve the security-constant equation for given baseline and |Y|.

    Bisection of r on [0, 1] in exact integer arithmetic (the module
    docstring gives the dyadic form), so no sign decision is corrupted by
    rounding.  After k halvings the bracket is [lo, hi]/2^k for ints lo and
    hi and keeps r(lo/2^k) <= 0 <= r(hi/2^k); the k-th midpoint is mid/2^k
    with mid the sum of the previous ends, and it replaces one end.  The
    loop stops once the bracket lies inside the rounding interval of
    s = mid/2^k rounded to a float: the closed interval between the halfway
    points to the float neighbours of s, cut at 0 and 1.  That holds as
    soon as both ends round to the same float, and also when an end of the
    bracket is itself a halfway point that rounds away from the root.  Each
    float is p/q with q a power of two, so the test compares ints
    cross-multiplied.

    Skipped tests.  The bracket has width 2^-k unless r is exactly 0 at the
    midpoint.  While mid < 2^52 and k <= 1073, s <= 2^(52-k), a normal
    float; every float gap at or below it is at most 2^(-1-k) and the one
    above it 2^-k, so the rounding interval is at most 0.75 * 2^-k wide and
    cannot hold the bracket.  The loop skips the test there.

    Correct rounding.  The root lies in the bracket, strictly inside it
    unless r is exactly 0 at the midpoint.  At the stop the bracket lies in
    the rounding interval of s, so the root lies strictly between the two
    halfway points around s and rounds to s; an exact root at the midpoint
    rounds to s by definition.  s is the int true division mid / 2^k,
    which Python rounds correctly.

    Termination.  Every float in [0, 1] is a multiple of 2^-1074, so every
    halfway point between two of them is a multiple of 2^-1075.  The k-th
    midpoint is an odd multiple of 2^-k, and the bracket after it has width
    2^-k with the midpoint as one end.  For k >= 1076 the midpoint is no
    halfway point and no halfway point lies strictly inside the bracket, so
    the bracket lies in the rounding interval of the midpoint's float.  The
    loop therefore ends within SOLVER_MAX_ITERATIONS = 1076 halvings.

    ``c`` and ``epsilon`` come from the float s.  ValueError when a float
    cannot carry them: 1 - s*s rounds to 0 (only |Y| = 1 with b_rand
    below about 2^-106), or epsilon is not a normal float (for instance
    inner product beyond n = 510).
    """
    n, d, m = _baseline(b_rand_value, y_size)
    lo, hi = 0, 1
    for k in range(1, SOLVER_MAX_ITERATIONS + 1):
        mid = lo + hi
        u = (1 << 2 * k) - mid * mid
        r_num = (n << 4 * k) - d * u * (u - (2 * m * mid << k))
        lo, hi = 2 * lo, 2 * hi
        if r_num <= 0:
            lo = mid
        if r_num >= 0:
            hi = mid
        if lo != hi and mid.bit_length() <= 52 and k <= 1073:
            continue  # the rounding interval is narrower than the bracket
        s = mid / (1 << k)
        (p0, q0), (p1, q1), (p2, q2) = (
            x.as_integer_ratio() for x in (math.nextafter(s, 0), s, math.nextafter(s, 1))
        )
        # the halfway points are below/(2*q0*q1) and above/(2*q1*q2)
        below, above = p0 * q1 + p1 * q0, p1 * q2 + p2 * q1
        if below << k <= 2 * lo * q0 * q1 and 2 * hi * q1 * q2 <= above << k:
            break

    u = 1.0 - s * s
    if u == 0.0:
        raise ValueError(
            f"s = sqrt(1 - 1/c) rounds to 1.0 for b_rand = {n / d!r}, |Y| = {y_size}; "
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
        residual=r_num / (d << 4 * k),
        iterations=k,
    )


def bound_report(task: SfeTask) -> BoundReport:
    """Baselines, solved constant, and the two multiplicative bounds.

    Raises the solver's InsecureTaskError when the receiver baseline is already 1.
    """
    br = b_rand(task)
    fp = solve_fixed_point(br, task.y_size)
    return BoundReport(
        name=task.name,
        y_size=task.y_size,
        b_rand=br,
        a_rand=a_rand(task),
        c=fp.c,
        epsilon=fp.epsilon,
        alice_bound=fp.c / task.y_size,
        bob_bound=fp.c * float(br),
        fixed_point=fp,
    )


def ca_crossing(b_rand_value: Rational, y_size: int) -> float:
    """The c_A at which the trade-off curve c_B(c_A) falls to 1, correctly rounded.

    With x = 1/c_A, t = sqrt(1 - x) and b_rand = N/D, the equation is
    t^2 + 2mt - (1 - b_rand) = 0, so t = sqrt(m^2 + 1 - b_rand) - m,
    x = b_rand + 2mt and c_A = D/(N - 2m^2 D + 2m sqrt(R)), R = D(D(m^2 + 1) - N).
    For m = 0 that is D/N.  For m >= 1 the kernel takes it rationalized,
    D(2m^2 D - N + 2m sqrt(R))/(4m^2 D^2 - N^2), since
    (N - 2m^2 D)^2 - 4m^2 R = N^2 - 4m^2 D^2; the denominator is positive
    because N < D.
    """
    n, d, m = _baseline(b_rand_value, y_size)
    if m == 0:
        return _rounded_ratio(d, 0, n, 0)
    return _rounded_ratio(
        d * (2 * m * m * d - n), 2 * m * d, 4 * m * m * d * d - n * n, d * (d * (m * m + 1) - n)
    )


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
    (the plots show only c_B >= 1).  ``samples`` goes through
    ``tasks._integer`` over its ``COUNT_RANGES`` range, 2 to 5*10^6, which
    bounds the grid's memory.  OverflowError when 1/b_rand or a row's c_B
    is beyond a float, ValueError when the c_A range is empty or the float
    c_A grid does not strictly increase.
    """
    n, d, m = _baseline(b_rand_value, y_size)
    if Fraction(d, n) > sys.float_info.max:  # exact: d / n raises instead of comparing
        raise OverflowError(
            "1/b_rand is beyond the float range; the trade-off curve is computed in floats"
        )
    samples = _integer("samples", samples, *COUNT_RANGES["samples"])
    at_crossing = ca_max is None
    if at_crossing:
        ca_max = ca_crossing(b_rand_value, y_size)
    if not 1.0 <= ca_min < ca_max:
        raise ValueError(f"the c_A range [{ca_min!r}, {ca_max!r}] is empty or starts below 1.0")
    if ca_max > d / n:
        raise ValueError(f"ca_max={ca_max} is beyond 1/b_rand = {d / n}")
    step = (ca_max - ca_min) / (samples - 1)
    grid = [ca_min + i * step for i in range(samples - 1)] + [ca_max]
    if any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"samples={samples} is too many for the c_A range [{ca_min!r}, {ca_max!r}]: "
            "the float grid does not strictly increase"
        )
    rows = grid[:-1] if at_crossing else grid
    make_point = functools.partial(tuple.__new__, CurvePoint)
    points = list(map(make_point, zip(rows, _c_b_rows(rows, n, d, m))))
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


def present(value: float) -> str:
    """Round half away from zero to 4 decimals, for display."""
    return str(Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))
