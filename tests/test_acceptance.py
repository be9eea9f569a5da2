"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``; the
per-test verdicts in ``pytest -v`` carry the same information).
"""

import math
import time
from fractions import Fraction

import numpy as np

from sfebounds import bounds, dierolling, measurements, tasks

FAMILY_INSTANCES = [
    ("ot", dict(alphabet=2, n=2)),
    ("ot", dict(alphabet=2, n=3)),
    ("ot", dict(alphabet=3, n=2)),
    ("ot", dict(alphabet=2, n=4)),
    ("knot", dict(alphabet=2, n=3, k=2)),
    ("knot", dict(alphabet=2, n=4, k=2)),
    ("knot", dict(alphabet=2, n=4, k=3)),
    ("xot", dict(n=1)),
    ("xot", dict(n=2)),
    ("eq", dict(n=3)),
    ("eq", dict(n=5)),
    ("ip", dict(n=2)),
    ("ip", dict(n=3)),
    ("mp", dict(n=4)),
    ("mp", dict(n=10)),
]

# parameter sweeps covering every family's plotted trade-off range
CURVE_TRACES = (
    [("ot", dict(alphabet=2, n=n)) for n in range(2, 7)]
    + [("ot", dict(alphabet=3, n=n)) for n in range(2, 7)]
    + [("knot", dict(alphabet=2, n=n, k=2)) for n in range(3, 7)]
    + [("knot", dict(alphabet=2, n=2 * h, k=h)) for h in (1, 2, 3)]
    + [("xot", dict(n=n)) for n in range(1, 6)]
    + [("eq", dict(n=n)) for n in range(3, 7)]
    + [("ip", dict(n=n)) for n in range(2, 5)]
    + [("mp", dict(n=n)) for n in range(3, 7)]
)


def verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_fixed_point_constants():
    cases = [
        (Fraction(1, 2), 2, 1.0484),  # 1-of-2 bit OT
        (Fraction(1, 4), 3, 1.0326),  # 1-of-3 bit OT
        (Fraction(1, 3), 2, 1.0850),  # 1-of-2 trit OT
        (Fraction(1, 2), 3, 1.0145),  # 2-of-3 bit OT
        (Fraction(1, 4), 6, 1.0056),  # 2-of-4 bit OT
        (Fraction(1, 2), 4, 1.0067),  # 3-of-4 bit OT
        (Fraction(1, 2), 3, 1.0145),  # XOR OT, 1-bit strings
        (Fraction(1, 4), 3, 1.0326),  # XOR OT, 2-bit strings
        (Fraction(2, 3), 3, 1.0065),  # equality n=3
        (Fraction(1, 4), 7, 1.0039),  # inner product n=3
        (Fraction(1, 5), 9, 1.0025),  # millionaire n=10
    ]
    start = time.perf_counter()
    worst = 0.0
    for br, y_size, expected in cases:
        c = bounds.solve_fixed_point(br, y_size).c
        worst = max(worst, abs(c - expected))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst <= 5e-4 and elapsed < 1.0,
        f"{len(cases)} constants, worst |error| {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_02_extreme_scale_root():
    start = time.perf_counter()
    fp = bounds.solve_fixed_point(Fraction(2, 10**9), 10**9 - 1)
    elapsed = time.perf_counter() - start
    target = 2.5e-19
    ok = abs(fp.epsilon - target) <= 0.1 * target and elapsed < 0.1
    verdict(2, ok, f"epsilon {fp.epsilon:.6e} vs {target:.1e}, {elapsed:.4f}s")


def test_criterion_03_derived_cheat_bounds():
    cases = [
        (tasks.make_family("ot", alphabet=2, n=3), 0.2581, 0.3442),
        (tasks.make_family("knot", alphabet=2, n=4, k=2), 0.2514, 0.1676),
        (tasks.make_family("knot", alphabet=2, n=3, k=2), 0.5073, 0.3382),
        (tasks.make_family("eq", n=3), 0.671, 0.3355),
        (tasks.make_family("ip", n=3), 0.251, 0.1434),
        (tasks.make_family("mp", n=10), 0.2005, 0.1114),
    ]
    worst = 0.0
    for task, bob, alice in cases:
        report = bounds.bound_report(task)
        worst = max(worst, abs(report.bob_bound - bob), abs(report.alice_bound - alice))
    verdict(3, worst <= 1e-3, f"{len(cases)} pairs, worst |error| {worst:.2e}")


def test_criterion_04_baseline_equivalence():
    families_seen = set()
    mismatches = []
    for family, params in FAMILY_INSTANCES:
        task = tasks.make_family(family, **params)
        assert task.x_size * task.y_size <= 10**6
        families_seen.add(family)
        if tasks.b_rand_bruteforce(task) != tasks.b_rand_closed_form(task):
            mismatches.append(task.name)
    ok = not mismatches and len(FAMILY_INSTANCES) >= 12 and len(families_seen) == 6
    verdict(
        4,
        ok,
        f"{len(FAMILY_INSTANCES)} instances over {len(families_seen)} families, "
        f"mismatches: {mismatches or 'none'}",
    )


def test_criterion_05_gentle_campaign():
    start = time.perf_counter()
    records = measurements.run_campaign(measurements.gentle_instance, 1000, seed=1, max_dim=8)
    elapsed = time.perf_counter() - start
    violations = [
        r for r in records if not (r["holds"] and r["achieved"] <= r["bound"] + 1e-8)
    ]
    dims = {r["dims"] for r in records}
    ok = not violations and dims == set(range(2, 9)) and elapsed < 30.0
    verdict(5, ok, f"1000 instances, dims {sorted(dims)}, {len(violations)} violations, {elapsed:.2f}s")


def test_criterion_06_sequential_campaign():
    records = measurements.run_campaign(measurements.sequential_instance, 500, seed=2, max_dim=6)
    violations = [
        r for r in records if not (r["holds"] and r["achieved"] >= r["bound"] - 1e-8)
    ]
    ns = {r["n"] for r in records}
    dims = {r["dims"] for r in records}
    ok = not violations and max(ns) <= 4 and max(dims) <= 6
    verdict(6, ok, f"500 instances, n {sorted(ns)}, dims {sorted(dims)}, {len(violations)} violations")


def test_criterion_07_combined_strategy_campaign():
    records = measurements.run_campaign(measurements.learning_instance, 500, seed=3, max_dim=6)
    bad_complete = [r for r in records if r["completeness_defect"] > 1e-10]
    bad_psd = [r for r in records if r["min_eigenvalue"] < -1e-10]
    bad_bound = [r for r in records if r["achieved"] < r["bound"] - 1e-8]
    bad_cs = [r for r in records if r["cauchy_schwarz_gap"] < -1e-12]
    ok = not (bad_complete or bad_psd or bad_bound or bad_cs)
    verdict(
        7,
        ok,
        f"500 encodings; completeness>{1e-10:.0e}: {len(bad_complete)}, "
        f"psd: {len(bad_psd)}, bound: {len(bad_bound)}, cauchy-schwarz: {len(bad_cs)}",
    )


def test_criterion_08_protocol_completeness():
    trials = 10**6
    worst_tv = 0.0
    for family, params in [("eq", dict(n=3)), ("ot", dict(alphabet=2, n=2)), ("mp", dict(n=4))]:
        task = tasks.make_family(family, **params)
        stats = dierolling.run_honest(task, trials, seed=0)
        assert stats.abort_count == 0
        worst_tv = max(worst_tv, stats.tv_distance_from_uniform)
        # both parties compute their outcome from their own view of (b, y)
        ys, bs = dierolling._draw_trials(task, trials, seed=0)
        alice_outcome = (bs + ys) % task.y_size
        bob_outcome = (bs + ys) % task.y_size  # honest receiver reveals y itself
        assert np.array_equal(alice_outcome, bob_outcome)
    verdict(8, worst_tv < 0.01, f"3 families x {trials} trials, 0 aborts, worst TV {worst_tv:.5f}")


def test_criterion_09_reduction_identities():
    trials = 10**6
    failures = []

    def check(label, rate, expected):
        se = math.sqrt(expected * (1 - expected) / trials) if 0 < expected < 1 else 0.0
        if abs(rate - expected) > max(3 * se, 1e-12):
            failures.append(f"{label}: {rate:.6f} vs {expected:.6f}")

    ot3 = tasks.make_family("ot", alphabet=2, n=3)
    eq3 = tasks.make_family("eq", n=3)
    check("bob honest-entry", dierolling.run_cheating_bob(ot3, "honest", trials, seed=0).forcing_rate, 1 / 3)
    check("bob two-entry set", dierolling.run_cheating_bob(eq3, {0, 1}, trials, seed=1).forcing_rate, 2 / 3)
    check("bob full", dierolling.run_cheating_bob(eq3, "full", trials, seed=2).forcing_rate, 1.0)
    check("alice blind", dierolling.run_cheating_alice(eq3, trials, seed=3).forcing_rate, 1 / 3)
    verdict(9, not failures, f"4 rates at {trials} trials, failures: {failures or 'none'}")


def test_criterion_10_curve_fidelity():
    failures = []
    for family, params in CURVE_TRACES:
        task = tasks.make_family(family, **params)
        br = tasks.b_rand_closed_form(task)
        points = bounds.emit_curve(br, task.y_size, samples=200)
        start_exact = points[0].c_a == 1.0 and points[0].c_b == float(1 / br)
        decreasing = all(a.c_b > b.c_b for a, b in zip(points, points[1:]))

        # independent root solve for the c_B = 1 crossing
        lo, hi = 1.0, float(1 / br)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if bounds.cb_from_ca(mid, br, task.y_size) >= 1.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        consistent = abs(points[-1].c_a - crossing) <= 1e-6

        if not (start_exact and decreasing and consistent):
            failures.append(task.name)
    verdict(10, not failures, f"{len(CURVE_TRACES)} traces, failures: {failures or 'none'}")
