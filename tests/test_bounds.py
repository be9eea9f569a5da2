import hashlib
import io
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curve_reference as ref
import solver_reference
from sfebounds import bounds, tasks
from sfebounds.bounds import (
    CurvePoint,
    InsecureTaskError,
    bound_report,
    ca_crossing,
    cb_from_ca,
    emit_curve,
    present,
    solve_fixed_point,
    write_curve_csv,
)
from sfebounds.tasks import make_family

# (b_rand, y_size) per family instance, with the pinned 4-digit constants
SPECIAL_CASES = [
    ("1-of-2 bit OT", Fraction(1, 2), 2, 1.0484),
    ("1-of-3 bit OT", Fraction(1, 4), 3, 1.0326),
    ("1-of-2 trit OT", Fraction(1, 3), 2, 1.0850),
    ("2-of-3 bit OT", Fraction(1, 2), 3, 1.0145),
    ("2-of-4 bit OT", Fraction(1, 4), 6, 1.0056),
    ("3-of-4 bit OT", Fraction(1, 2), 4, 1.0067),
    ("xot n=1", Fraction(1, 2), 3, 1.0145),
    ("xot n=2", Fraction(1, 4), 3, 1.0326),
    ("equality n=3", Fraction(2, 3), 3, 1.0065),
    ("inner product n=3", Fraction(1, 4), 7, 1.0039),
    ("millionaire n=10", Fraction(1, 5), 9, 1.0025),
]


def solve_directly_in_c(b_rand, y_size):
    """Independent route: bisect the fixed-point equation in c itself."""
    k = 1.0 / float(b_rand)
    m = y_size - 1

    def h(c):
        return c - k * (1.0 / c - 2.0 * m * math.sqrt(max(0.0, 1.0 - 1.0 / c)))

    lo, hi = 1.0, k
    assert h(lo) < 0 < h(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if h(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# the largest m with sqrt(8)*m <= 1 + 2^1024 - 2^970: c_B = 1 - sqrt(8)*m at
# c_A = 2 and b_rand = 1/2 lies just inside the float range
EDGE_M = math.isqrt((1 + ref.FLOAT_EDGE) ** 2 // 8)


class TestCbFromCa:
    def test_left_endpoint_exact(self):
        assert cb_from_ca(1.0, Fraction(1, 2), 2) == 2.0
        assert cb_from_ca(1.0, Fraction(2, 3), 3) == 1.5
        assert cb_from_ca(1.0, Fraction(1, 4), 6) == 4.0
        assert cb_from_ca(1.0, Fraction(1, 2), 3) == 2.0  # three-input xor variant

    def test_right_endpoint_near_one(self):
        assert cb_from_ca(1.0533, Fraction(1, 2), 2) == pytest.approx(1.0, abs=2e-3)

    def test_fixed_point_property(self):
        for name, br, y_size, _ in SPECIAL_CASES:
            fp = solve_fixed_point(br, y_size)
            assert cb_from_ca(fp.c, br, y_size) == pytest.approx(fp.c, abs=1e-10), name

    def test_strictly_decreasing(self):
        for name, br, y_size, _ in SPECIAL_CASES:
            hi = float(1 / br)
            grid = [1.0 + (hi - 1.0) * i / 50 for i in range(51)]
            values = [cb_from_ca(c_a, br, y_size) for c_a in grid]
            assert all(a > b for a, b in zip(values, values[1:])), name

    def test_rejects_ca_below_one(self):
        with pytest.raises(ValueError):
            cb_from_ca(0.99, Fraction(1, 2), 2)

    @pytest.mark.parametrize("c_a", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_ca(self, c_a):
        with pytest.raises(ValueError, match=f"^c_a must be finite, got {c_a!r}$"):
            cb_from_ca(c_a, Fraction(1, 2), 2)

    def test_cb_beyond_a_float_names_the_row(self):
        with pytest.raises(OverflowError, match=r"^c_B at c_A = 1\.5 is beyond the float range"):
            cb_from_ca(1.5, Fraction(1, 2**1100), 2)

    def test_cb_next_to_the_float_range_edge_rounds_to_the_largest_float(self):
        # at c_A = 2 and b_rand = 1/2, c_B = 1 - sqrt(8)*m lies just above
        # -(2^1024 - 2^970), where int division starts to overflow; the
        # first pass's far end lies beyond it, and its near end does not
        m = EDGE_M
        assert 0 < (1 + ref.FLOAT_EDGE) ** 2 - 8 * m * m < 16 * m
        k = math.isqrt(2 << 128)
        num, den = (2 << 64) - 4 * m * k, 2 << 64
        assert num / den == -sys.float_info.max
        with pytest.raises(OverflowError):
            (num - 4 * m) / den
        assert cb_from_ca(2.0, Fraction(1, 2), m + 1) == -sys.float_info.max
        with pytest.raises(OverflowError, match=r"^c_B at c_A = 2\.0 is beyond the float range"):
            cb_from_ca(2.0, Fraction(1, 2), m + 2)


class TestSolveFixedPoint:
    def test_pinned_constants(self):
        for name, br, y_size, expected in SPECIAL_CASES:
            fp = solve_fixed_point(br, y_size)
            assert fp.c == pytest.approx(expected, abs=5e-4), name
            assert fp.iterations <= bounds.SOLVER_MAX_ITERATIONS, name

    def test_extreme_scale_excess(self):
        fp = solve_fixed_point(Fraction(2, 10**9), 10**9 - 1)
        assert fp.epsilon == pytest.approx(2.5e-19, rel=0.1)
        assert fp.c == 1.0  # the excess is far below float resolution around 1

    def test_transform_consistency(self):
        for name, br, y_size, _ in SPECIAL_CASES:
            fp = solve_fixed_point(br, y_size)
            recomputed = 1.0 / (1.0 - fp.s * fp.s)
            assert abs(recomputed - fp.c) <= 4 * math.ulp(fp.c), name
            assert fp.epsilon > 0
            assert abs(fp.residual) <= 1e-14
            assert fp.iterations <= 200

    def test_agrees_with_direct_c_bisection(self):
        for name, br, y_size, _ in SPECIAL_CASES:
            fp = solve_fixed_point(br, y_size)
            if fp.epsilon < 1e-6:
                continue
            direct = solve_directly_in_c(br, y_size)
            assert fp.c == pytest.approx(direct, rel=1e-9), name

    def test_root_is_inside_open_interval(self):
        for name, br, y_size, _ in SPECIAL_CASES:
            fp = solve_fixed_point(br, y_size)
            assert 1.0 < fp.c < float(1 / br), name
            assert 0.0 < fp.s < 1.0

    def test_single_input_receiver(self):
        # with |Y| = 1 the square-root term drops and c = sqrt(1/b_rand)
        fp = solve_fixed_point(Fraction(1, 4), 1)
        assert fp.c == pytest.approx(2.0, abs=1e-12)

    def test_tiny_baselines(self):
        # 500-digit decimal bisection of r gives eps = 6.0247996627572103e-182
        fp = solve_fixed_point(Fraction(2, 2**300), 2**300 - 1)  # inner product n=300
        assert fp.epsilon == pytest.approx(6.02479966275721e-182, rel=1e-14)
        # inner product n=510, the last one whose c - 1 is a normal float
        assert solve_fixed_point(Fraction(2, 2**510), 2**510 - 1).epsilon >= sys.float_info.min
        for n in (200, 1500):  # 1-of-n bit OT; 1/b_rand beyond a float at n=1500
            fp = solve_fixed_point(Fraction(1, 2 ** (n - 1)), n)
            assert fp.iterations < 100
            assert abs(fp.residual) < 1e-15

    def test_halfway_end_of_the_bracket_ends_the_loop(self):
        # equality n=5: after 58 halvings the bracket lies in the rounding
        # interval of s, but one end is a halfway point rounding away from s;
        # waiting for float(lo) == float(hi) would take 60
        assert solve_fixed_point(Fraction(2, 5), 5).iterations == 58

    def test_refuses_what_a_float_cannot_carry(self):
        with pytest.raises(ValueError, match="rounds to 1.0"):
            solve_fixed_point(Fraction(1, 2**110), 1)
        for n in (511, 540, 1100):  # inner product: eps subnormal, then s below every float
            with pytest.raises(ValueError, match="smallest normal float"):
                solve_fixed_point(Fraction(2, 2**n), 2**n - 1)

    def test_degenerate_baselines_rejected(self):
        with pytest.raises(InsecureTaskError):
            solve_fixed_point(Fraction(1), 2)
        with pytest.raises(InsecureTaskError):
            solve_fixed_point(Fraction(3, 2), 2)
        with pytest.raises(ValueError):
            solve_fixed_point(Fraction(0), 2)
        with pytest.raises(ValueError):
            solve_fixed_point(Fraction(-1, 2), 2)


def scaled_residual(b_rand, y_size, s):
    """r(s) = b_rand - u(u - 2ms), u = 1 - s^2, m = |Y| - 1, exactly."""
    u = 1 - s * s
    return b_rand - u * (u - 2 * (y_size - 1) * s)


def rounding_interval(s):
    """The halfway points between the float s and its float neighbours."""
    return (
        (Fraction(math.nextafter(s, -1)) + Fraction(s)) / 2,
        (Fraction(s) + Fraction(math.nextafter(s, 2))) / 2,
    )


# (b_rand, |Y|) from the closed forms of the six families, up to scales where
# the solver refuses, plus arbitrary baselines
FAMILY_PAIRS = st.one_of(
    # ot
    st.builds(lambda w, n: (Fraction(1, w ** (n - 1)), n), st.integers(2, 6), st.integers(2, 1600)),
    # knot
    st.integers(2, 40).flatmap(
        lambda n: st.builds(
            lambda w, k: (Fraction(1, w ** (n - k)), math.comb(n, k)),
            st.integers(2, 6),
            st.integers(1, n - 1),
        )
    ),
    st.builds(lambda n: (Fraction(1, 2**n), 3), st.integers(1, 1600)),  # xot
    st.builds(lambda n: (Fraction(2, n), n), st.integers(3, 10**160)),  # eq
    st.builds(lambda n: (Fraction(2, 2**n), 2**n - 1), st.integers(2, 1200)),  # ip
    st.builds(lambda n: (Fraction(2, n), n - 1), st.integers(3, 10**160)),  # mp
)
ARBITRARY_PAIRS = st.tuples(
    st.floats(0, 1, exclude_min=True, exclude_max=True).map(Fraction),
    st.integers(1, 10**6),
)
HALF_BELOW_ONE = rounding_interval(1.0)[0]


class TestSolverProofs:
    """The proofs in the bounds docstrings, checked in exact arithmetic."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(2, 10**60).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
        st.integers(1, 10**6) | st.integers(1, 2**1100),
    )
    def test_crossing_rationalization(self, fraction, m):
        n, d = fraction
        radicand = d * (d * (m * m + 1) - n)
        assert (n - 2 * m * m * d) ** 2 - 4 * m * m * radicand == n * n - 4 * m * m * d * d
        assert 4 * m * m * d * d - n * n > 0
        assert 2 * m * m * d - n > 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(FAMILY_PAIRS | ARBITRARY_PAIRS)
    @example((Fraction(2, 2**300), 2**300 - 1))
    @example((Fraction(2, 2**540), 2**540 - 1))
    @example((Fraction(1, 2**110), 1))
    @example((Fraction(1, 2**1499), 1500))
    @example((Fraction(1, 4096), 3))
    def test_s_is_correctly_rounded(self, pair):
        b_rand, y_size = pair
        try:
            fp = solve_fixed_point(b_rand, y_size)
        except ValueError:
            # a refusal is right only if s rounds to 1.0 or the root is below
            # 2^-510, where c - 1 = s^2/(1 - s^2) is at most about 2^-1020
            assert scaled_residual(b_rand, y_size, HALF_BELOW_ONE) <= 0 or (
                scaled_residual(b_rand, y_size, Fraction(1, 2**510)) > 0
            )
            return
        below, above = rounding_interval(fp.s)
        r_below = scaled_residual(b_rand, y_size, below)
        r_above = scaled_residual(b_rand, y_size, above)
        assert r_below <= 0 <= r_above
        assert float(r_below) <= fp.residual <= float(r_above)  # r at the last midpoint
        assert fp.iterations <= bounds.SOLVER_MAX_ITERATIONS
        assert fp.epsilon >= sys.float_info.min

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(FAMILY_PAIRS | ARBITRARY_PAIRS)
    def test_one_sign_change_on_the_unit_interval(self, pair):
        b_rand, y_size = pair
        try:
            fp = solve_fixed_point(b_rand, y_size)
        except ValueError:
            return
        below, above = rounding_interval(fp.s)
        root = Fraction(fp.s)
        grid = {Fraction(i, 256) for i in range(257)}
        grid |= {root * (1 + Fraction(sign, 2**j)) for sign in (-1, 1) for j in range(1, 64)}
        grid |= {below, above}
        for t in grid:
            if 0 <= t < below:
                assert scaled_residual(b_rand, y_size, t) < 0, t
            elif above < t <= 1:
                assert scaled_residual(b_rand, y_size, t) > 0, t


def solver_outcome(solve, b_rand_value, y_size):
    """The solver's result with every field, or the type and message of its refusal."""
    try:
        return repr(solve(b_rand_value, y_size))
    except ValueError as exc:
        return type(exc), str(exc)


def family_pair(family, **params):
    task = make_family(family, **params)
    return tasks.b_rand(task), task.y_size


# b_rand = N/D with D up to 10^60, or a power of two down to 2^-1000
RANDOM_BASELINES = st.one_of(
    st.integers(2, 10**60).flatmap(
        lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))
    ),
    st.integers(1, 1000).map(lambda e: Fraction(1, 2**e)),
)


class TestAgainstFractionReference:
    """The dyadic-integer solver against its Fraction form in solver_reference."""

    @pytest.mark.parametrize(
        "pair",
        [
            family_pair("ip", n=510),  # solves, epsilon just above the normal range
            family_pair("ip", n=511),  # refused: epsilon below the smallest normal float
            family_pair("mp", n=10**9),
            family_pair("ot", alphabet=2, n=200),
            (Fraction(1, 2**110), 1),  # refused: 1 - s*s rounds to 0
        ],
        ids=["ip 510", "ip 511", "mp 10^9", "ot 2,200", "|Y|=1 b_rand=2^-110"],
    )
    def test_named_extremes(self, pair):
        expected = solver_outcome(solver_reference.solve_fixed_point, *pair)
        assert solver_outcome(solve_fixed_point, *pair) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(RANDOM_BASELINES, st.integers(1, 10**6))
    @example(Fraction(9, 16), 1)  # r = 0 at the first midpoint, 1/2
    @example(Fraction(105, 256), 2)  # r = 0 at the second midpoint, 1/4
    @example(1 - Fraction(1, 2**1040), 10**6)  # a subnormal root: the test runs from k = 1074
    @example(Fraction(1), 2)
    @example(Fraction(3, 2), 2)
    @example(Fraction(0), 2)
    @example(Fraction(-1, 2), 2)
    @example(Fraction(1, 2), 0)
    def test_same_result_or_refusal(self, b_rand_value, y_size):
        expected = solver_outcome(solver_reference.solve_fixed_point, b_rand_value, y_size)
        assert solver_outcome(solve_fixed_point, b_rand_value, y_size) == expected


class TestBoundReport:
    def test_pinned_bound_pairs(self):
        cases = [
            (make_family("ot", alphabet=2, n=3), 0.2581, 0.3442),
            (make_family("knot", alphabet=2, n=4, k=2), 0.2514, 0.1676),
            (make_family("mp", n=10), 0.2005, 0.1114),
        ]
        for task, bob, alice in cases:
            report = bound_report(task)
            assert report.bob_bound == pytest.approx(bob, abs=1e-3)
            assert report.alice_bound == pytest.approx(alice, abs=1e-3)

    def test_report_invariants(self):
        for family, params in [
            ("ot", dict(alphabet=2, n=2)),
            ("xot", dict(n=2)),
            ("eq", dict(n=4)),
            ("ip", dict(n=3)),
            ("mp", dict(n=6)),
        ]:
            report = bound_report(make_family(family, **params))
            assert report.c >= 1
            assert report.alice_bound >= float(report.a_rand)
            assert report.bob_bound >= float(report.b_rand)
            assert report.bob_bound <= 1

    def test_repr_leaves_out_the_fixed_point(self):
        report = bound_report(make_family("ot", alphabet=2, n=2))
        assert repr(report) == (
            "BoundReport(name='1-of-2 OT (alphabet 2)', y_size=2, b_rand=Fraction(1, 2), "
            "a_rand=Fraction(1, 2), c=1.048384205847353, epsilon=0.048384205847352986, "
            "alice_bound=0.5241921029236765, bob_bound=0.5241921029236765)"
        )
        assert report.fixed_point == solve_fixed_point(Fraction(1, 2), 2)
        assert report._asdict()["fixed_point"] is report.fixed_point
        with pytest.raises(AttributeError):
            report.c = 2.0

    def test_insecure_task_flagged_without_solving(self):
        with pytest.raises(InsecureTaskError):
            bound_report(make_family("eq", n=2))

    def test_bruteforce_fallback_for_table_tasks(self):
        from sfebounds.tasks import SfeTask

        # this explicit table coincides with 1-of-2 bit OT, so the report
        # must match that family's numbers without family metadata
        task = SfeTask("ad hoc", 4, 2, 2, table=((0, 0), (0, 1), (1, 0), (1, 1)))
        report = bound_report(task)
        assert report.b_rand == Fraction(1, 2)
        assert report.c == pytest.approx(1.0484, abs=5e-4)


class TestCurves:
    def test_endpoints_and_shape(self):
        points = emit_curve(Fraction(1, 2), 2, samples=200)
        assert len(points) == 200
        assert points[0].c_a == 1.0
        assert points[0].c_b == 2.0
        assert points[-1] == CurvePoint(ca_crossing(Fraction(1, 2), 2), 1.0)
        assert all(a.c_b > b.c_b for a, b in zip(points, points[1:]))
        assert all(type(point) is CurvePoint for point in points)
        assert [(point.c_a, point.c_b) for point in points] == [tuple(point) for point in points]

    def test_points_are_immutable_values(self):
        point = CurvePoint(1.0, 2.0)
        assert (point.c_a, point.c_b) == (1.0, 2.0)
        assert repr(point) == "CurvePoint(c_a=1.0, c_b=2.0)"
        assert point == CurvePoint(c_a=1.0, c_b=2.0) != CurvePoint(1.0, 3.0)
        assert hash(point) == hash(CurvePoint(1.0, 2.0))
        with pytest.raises(AttributeError):
            point.c_b = 3.0

    def test_crossing_matches_frozen_value(self):
        assert ca_crossing(Fraction(1, 2), 2) == 1.0531972647421808
        assert ca_crossing(Fraction(1, 2**199), 200) == 1.0000063129320416  # ot 2,200

    def test_clip_drops_sub_one_samples(self):
        full = emit_curve(Fraction(1, 2), 2, samples=50, ca_max=1.06)
        clipped = emit_curve(Fraction(1, 2), 2, samples=50, ca_max=1.06, clip_below_one=True)
        assert len(clipped) < len(full)
        assert all(p.c_b >= 1.0 for p in clipped)
        assert [p for p in full if p.c_b >= 1.0] == clipped
        # one float past the crossing c_B is 1 - 1.3e-15: below 1, so dropped
        crossing = ca_crossing(Fraction(1, 2), 2)
        past = emit_curve(Fraction(1, 2), 2, samples=2, ca_min=1.0, ca_max=math.nextafter(crossing, 2))
        assert 1 - 1e-12 < past[-1].c_b < 1.0
        clipped = emit_curve(
            Fraction(1, 2), 2, samples=2, ca_min=1.0, ca_max=past[-1].c_a, clip_below_one=True
        )
        assert clipped == past[:1]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            emit_curve(Fraction(1, 2), 2, samples=1)
        with pytest.raises(ValueError):
            emit_curve(Fraction(1, 2), 2, ca_min=1.05, ca_max=1.01)
        with pytest.raises(ValueError):
            emit_curve(Fraction(1, 2), 2, ca_max=2.5)  # beyond 1/b_rand
        assert emit_curve(Fraction(1, 2), 2, samples=2, ca_max=2.0)[-1].c_a == 2.0
        with pytest.raises(ValueError, match=r"--samples 200 .* \[1\.0, 1\.0000000000000024\]"):
            emit_curve(Fraction(2, 10**7), 10**7 - 1)  # mp 10^7: 12 floats above 1.0
        with pytest.raises(InsecureTaskError):
            emit_curve(Fraction(1), 2)
        with pytest.raises(OverflowError, match="1/b_rand is beyond the float range"):
            emit_curve(Fraction(1, 2**1099), 1100)  # ot 2,1100

    @pytest.mark.parametrize(
        "fn,b_rand_value,y_size,message",
        [
            (cb_from_ca, Fraction(1, 2), 0, "y_size must be positive"),
            (cb_from_ca, Fraction(0), 2, "b_rand must be positive"),
            (cb_from_ca, Fraction(-1, 2), 2, "b_rand must be positive"),
            (ca_crossing, Fraction(1, 2), 0, "y_size must be positive"),
            (ca_crossing, Fraction(0), 2, "b_rand must lie in (0, 1)"),
            (ca_crossing, Fraction(-1, 2), 2, "b_rand must lie in (0, 1)"),
            (emit_curve, Fraction(1, 2), 0, "y_size must be positive"),
            (emit_curve, Fraction(0), 2, "b_rand must be positive"),
            (emit_curve, Fraction(-1, 2), 2, "b_rand must be positive"),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_sizes_and_baselines_refused(self, fn, b_rand_value, y_size, message):
        args = (1.5,) if fn is cb_from_ca else ()  # its c_a comes first
        with pytest.raises(ValueError) as refused:
            fn(*args, b_rand_value, y_size)
        assert str(refused.value) == message

    @pytest.mark.parametrize("y_size", [0, -3])
    def test_nonpositive_y_size_refused_with_explicit_ca_max(self, y_size):
        # an explicit ca_max skips ca_crossing, which also refuses it
        with pytest.raises(ValueError, match="^y_size must be positive$"):
            emit_curve(Fraction(1, 2), y_size, samples=3, ca_max=1.5)

    def test_csv_format_and_round_trip(self):
        points = emit_curve(Fraction(1, 4), 3, samples=5)
        buffer = io.StringIO()
        write_curve_csv(points, buffer)
        text = buffer.getvalue()
        lines = text.split("\n")
        assert lines[0] == "c_A,c_B"
        assert text.endswith("\n") and "\r" not in text
        for line, point in zip(lines[1:], points):
            ca, cb = line.split(",")
            assert float(ca) == point.c_a and float(cb) == point.c_b

    def test_fixed_point_sits_on_curve(self):
        fp = solve_fixed_point(Fraction(1, 4), 7)  # inner product n=3
        assert fp.c == pytest.approx(1.0039, abs=5e-4)
        assert cb_from_ca(fp.c, Fraction(1, 4), 7) == pytest.approx(fp.c, abs=1e-10)


# (b_rand, |Y|) from the closed forms of the six families, from n = 2 up to
# the largest n `curve` accepts: 1/b_rand must be a float
CURVE_PAIRS = st.one_of(
    st.integers(2, 6).flatmap(  # ot
        lambda w: st.builds(
            lambda n: (Fraction(1, w ** (n - 1)), n), st.integers(2, 1 + int(1023 / math.log2(w)))
        )
    ),
    st.integers(2, 40).flatmap(  # knot
        lambda n: st.builds(
            lambda w, k: (Fraction(1, w ** (n - k)), math.comb(n, k)),
            st.integers(2, 6),
            st.integers(1, n - 1),
        )
    ),
    st.builds(lambda n: (Fraction(1, 2**n), 3), st.integers(2, 1023)),  # xot
    st.builds(lambda n: (Fraction(2, n), n), st.integers(3, 10**160)),  # eq
    st.builds(lambda n: (Fraction(2, 2**n), 2**n - 1), st.integers(2, 1024)),  # ip
    st.builds(lambda n: (Fraction(2, n), n - 1), st.integers(3, 10**160)),  # mp
)
ULP_AT_ONE = 2.0**-52


class TestCurveIsExact:
    """Crossing and rows against the exact reference in curve_reference."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(CURVE_PAIRS | ARBITRARY_PAIRS.filter(lambda p: 1 / p[0] <= sys.float_info.max))
    @example((Fraction(1, 2), 2))
    @example((Fraction(1, 2**199), 200))
    @example((Fraction(2, 2**1024), 2**1024 - 1))
    @example((Fraction(1, 3), 1))  # m = 0: D/N
    @example((Fraction(2**53 - 1, 2**53), 2))
    def test_crossing_is_correctly_rounded(self, pair):
        b_rand, y_size = pair
        crossing = ca_crossing(b_rand, y_size)
        assert crossing == ref.crossing(b_rand, y_size - 1)
        assert ref.within_half_ulp(crossing, lambda h: ref.crossing_sign(b_rand, y_size - 1, h))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(CURVE_PAIRS, st.integers(2, 200))
    @example((Fraction(1, 2), 2), 200)  # ot 2,2
    @example((Fraction(1, 2**199), 200), 200)  # ot 2,200
    @example((Fraction(1, 2**1023), 1024), 200)  # ot 2,1024
    @example((Fraction(2, 10**6), 10**6 - 1), 200)  # mp 10^6
    @example((Fraction(2, 10**7), 10**7 - 1), 200)  # mp 10^7: refused
    @example((Fraction(2, 10**7), 10**7 - 1), 10)
    @example((Fraction(2, 10**9), 10**9 - 1), 2)  # mp 10^9: refused
    def test_default_curve_is_correctly_rounded(self, pair, samples):
        b_rand, y_size = pair
        m = y_size - 1
        crossing = ca_crossing(b_rand, y_size)
        room = (crossing - 1) / ULP_AT_ONE  # floats above 1.0 up to the crossing, which is below 4/3
        try:
            points = emit_curve(b_rand, y_size, samples=samples)
        except ValueError as exc:
            assert f"--samples {samples}" in str(exc) and f"[1.0, {crossing!r}]" in str(exc)
            assert room < 3 * (samples - 1)  # a step of 2 ulps or more always increases
            return
        assert room >= samples - 1
        assert len(points) == samples
        assert points[0] == CurvePoint(1.0, float(1 / b_rand))
        assert points[-1] == CurvePoint(crossing, 1.0)
        for left, right in zip(points, points[1:]):
            assert left.c_a < right.c_a and left.c_b > right.c_b
        for point in points[:-1]:
            assert ref.within_half_ulp(point.c_b, lambda h: ref.curve_sign(point.c_a, b_rand, m, h))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.integers(-(2**200), 2**200),
        st.integers(-(2**200), 2**200),
        st.integers(1, 2**200),
        st.integers(0, 2**300) | st.integers(0, 2**150).map(lambda r: r * r),
    )
    @example(2**53 + 3, 0, 1, 0)  # a halfway point, rounded to even
    @example(2**53 + 3, -5, 1, 0)  # the end at sqrt(R) + 2^-t lies below it
    @example(-(2**60) - 5, 2, 4, 1)
    @example(2, -4 * EDGE_M, 2, 2)  # one end of the first pass overflows
    @example(2, -4 * EDGE_M - 4, 2, 2)  # both do
    def test_kernel_is_correctly_rounded(self, a, b, c, radicand):
        try:
            value = bounds._rounded_ratio(a, b, c, radicand)
        except OverflowError:  # beyond the largest float plus half an ulp
            edge = Fraction(ref.FLOAT_EDGE)
            assert ref.sign_plus_root(a - edge * c, b, radicand) >= 0 or (
                ref.sign_plus_root(a + edge * c, b, radicand) <= 0
            )
            return
        assert ref.within_half_ulp(
            value, lambda h: ref.sign_plus_root(a - h * c, b, Fraction(radicand))
        )
        root = math.isqrt(radicand)
        if root * root == radicand:  # a rational: ties go to even, as in int / int
            assert value == (a + b * root) / c


# c_A = 1.01 with m = 1 and b_rand chosen so that c_B lies about 2^-400 from
# the halfway point above 1.5: the first pass cannot decide the row
FALLBACK_CA, FALLBACK_M = 1.01, 1


def fallback_b_rand():
    p, q = FALLBACK_CA.as_integer_ratio()
    halfway = (Fraction(1.5) + Fraction(math.nextafter(1.5, 2))) / 2
    f = Fraction(q, p) - 2 * FALLBACK_M * Fraction(math.isqrt((p - q) * p << 800), p << 400)
    return Fraction(f / halfway).limit_denominator(2**300)


def test_row_left_open_by_the_first_pass_is_correctly_rounded():
    br = fallback_b_rand()
    n, d = br.as_integer_ratio()
    p, q = FALLBACK_CA.as_integer_ratio()
    b = -2 * FALLBACK_M * d
    k = math.isqrt((p - q) * p << 128)
    num, den = (d * q << 64) + b * k, n * p << 64
    assert num / den != (num + b) / den  # the t = 64 ends round apart
    value = cb_from_ca(FALLBACK_CA, br, FALLBACK_M + 1)
    assert ref.within_half_ulp(value, lambda h: ref.curve_sign(FALLBACK_CA, br, FALLBACK_M, h))


# Default and varied curves of family tasks, written as CSV; the digest pins
# every byte, refusals included
CURVE_PIN_TASKS = (
    *(("ot", {"alphabet": w, "n": n}) for w, n in (
        (2, 2), (2, 3), (2, 5), (2, 17), (2, 40), (2, 200), (2, 1000), (3, 3), (4, 4), (7, 3))),
    *(("knot", {"alphabet": w, "n": n, "k": k}) for w, n, k in (
        (3, 5, 2), (2, 6, 1), (4, 4, 2), (2, 30, 5), (2, 12, 3), (5, 6, 4))),
    *(("xot", {"n": n}) for n in (1, 2, 3, 5, 12, 20, 300)),
    *(("eq", {"n": n}) for n in (3, 5, 12, 60, 2000, 10**6, 10**30)),
    *(("ip", {"n": n}) for n in (2, 3, 4, 6, 12, 100)),
    *(("mp", {"n": n}) for n in (3, 10, 100, 10**4, 10**6)),
)
CURVE_PIN_VARIANTS = (
    {},
    {"samples": 7},
    {"samples": 50, "ca_max": 1.04, "clip_below_one": True},
    {"samples": 3, "ca_min": 1.01, "ca_max": 1.3},
)
CURVE_PIN_DIGEST = "ac83d31a76b614069515a2ca6f962710ee9bd4fc142da47d2422d3a934356a54"


def test_family_curves_print_the_recorded_bytes():
    out = io.StringIO()
    for family, params in CURVE_PIN_TASKS:
        task = make_family(family, **params)
        for variant in CURVE_PIN_VARIANTS:
            out.write(f"{family} {params} {variant}\n")
            try:
                write_curve_csv(emit_curve(tasks.b_rand(task), task.y_size, **variant), out)
            except ValueError as exc:
                out.write(f"ValueError: {exc}\n")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CURVE_PIN_DIGEST


class TestPresentation:
    def test_half_away_from_zero(self):
        assert present(0.25815) == "0.2582"
        assert present(-0.00005) == "-0.0001"
        assert present(1.04838) == "1.0484"
        assert present(0.5) == "0.5000"
