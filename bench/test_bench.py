"""Tests of the benchmark itself: references, checkers and short passes.

    python3 -m pytest bench -q

The checker tests feed each checker one right output (made by the program)
and one deliberately wrong one.  The pass tests run bench/run.py for one
pass of every workload, which takes about a minute and a half.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import libworker  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sfebounds import bounds, dierolling, measurements, tasks  # noqa: E402

SMALL = [
    ("ot", {"alphabet": 2, "n": 3}),
    ("ot", {"alphabet": 3, "n": 4}),
    ("knot", {"alphabet": 2, "n": 6, "k": 2}),
    ("knot", {"alphabet": 3, "n": 4, "k": 3}),
    ("xot", {"n": 3}),
    ("eq", {"n": 7}),
    ("ip", {"n": 5}),
    ("mp", {"n": 9}),
]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family,params", SMALL)
def test_closed_forms_match_brute_force(family, params):
    table = reference.family_table(family, params)
    assert table.shape == reference.family_sizes(family, params)[:2]
    assert reference.b_rand_table(table) == reference.b_rand_closed(family, params)


@pytest.mark.parametrize("family,params", SMALL)
def test_family_tables_match_definitions(family, params):
    ours = reference.family_table(family, params)
    theirs = np.asarray(tasks.make_family(family, **params).table)
    assert np.array_equal(ours, theirs)


def test_permuted_table_keeps_the_baseline():
    base = workloads.file_base_table()
    b_rand = reference.b_rand_table(base)
    for seed in range(3):
        table = reference.permuted_table(base, workloads.FILE_B, np.random.default_rng(seed))
        assert not np.array_equal(table, base)
        assert reference.b_rand_table(table) == b_rand


def test_security_constant_solves_its_equation():
    for b_rand, y_size in [(Fraction(1, 2), 2), (Fraction(1, 4), 3), (Fraction(2, 10**9), 10**9 - 1)]:
        c, eps = reference.security_constant(b_rand, y_size)
        with localcontext() as ctx:
            ctx.prec = reference.DIGITS
            k = Decimal(b_rand.denominator) / Decimal(b_rand.numerator)

            def h(x):
                return k * (1 / x - 2 * (y_size - 1) * (1 - 1 / x).sqrt()) - x

            # the root sits inside a relative bracket of 1e-70
            assert h(c * (1 - Decimal(10) ** -70)) > 0 > h(c * (1 + Decimal(10) ** -70))
            assert eps == c - 1 > 0
    # acceptance value: c - 1 ~ 2.5e-19 for the millionaire task at n = 10^9
    assert abs(float(reference.security_constant(Fraction(2, 10**9), 10**9 - 1)[1]) / 2.5e-19 - 1) < 0.1


def test_curve_crossing_puts_cb_at_one():
    b_rand, y_size = Fraction(1, 4), 3
    a = reference.curve_crossing(b_rand, y_size)
    with localcontext() as ctx:
        ctx.prec = reference.DIGITS
        cb = 4 * (1 / a - 2 * 2 * (1 - 1 / a).sqrt())
        assert abs(cb - 1) < Decimal(10) ** -60


# ---------------------------------------------------------------------------
# checkers: a right output passes, a wrong one is rejected
# ---------------------------------------------------------------------------


def _bound_payload(family, params):
    report = bounds.bound_report(tasks.make_family(family, **params))
    return {
        "b_rand": str(report.b_rand),
        "y_size": report.y_size,
        "c": report.c,
        "epsilon": report.epsilon,
        "alice_bound": report.alice_bound,
        "bob_bound": report.bob_bound,
    }


def test_bound_check_rejects_c_off_by_1e9_relative():
    ref = workloads.family_ref("ot", {"alphabet": 2, "n": 3})
    payload = _bound_payload("ot", {"alphabet": 2, "n": 3})
    checks.check_bound(payload, ref)
    for key in ("c", "epsilon", "alice_bound", "bob_bound"):
        wrong = dict(payload, **{key: payload[key] * (1 + 1e-9)})
        with pytest.raises(checks.CheckError):
            checks.check_bound(wrong, ref)


def test_bound_check_rejects_a_wrong_baseline():
    ref = workloads.family_ref("mp", {"n": 100})
    payload = _bound_payload("mp", {"n": 100})
    with pytest.raises(checks.CheckError):
        checks.check_bound(dict(payload, b_rand="1/51"), ref)


def _curve(family, params):
    task = tasks.make_family(family, **params)
    return [[p.c_a, p.c_b] for p in bounds.emit_curve(tasks.b_rand(task), task.y_size)]


def test_curve_check_rejects_a_last_row_away_from_the_crossing():
    params = {"alphabet": 2, "n": 40}
    ref = workloads.family_ref("ot", params)
    rows = _curve("ot", params)
    checks.check_curve(rows, ref)
    wrong = copy.deepcopy(rows)
    wrong[-1][0] *= 1 + 1e-11
    with pytest.raises(checks.CheckError, match="crossing"):
        checks.check_curve(wrong, ref)


def test_curve_check_rejects_the_known_fault():
    ref = workloads.family_ref(*workloads.KNOWN_FAULT)
    with pytest.raises(checks.CheckError, match=re.escape(workloads.KNOWN_FAULT_CHECK)):
        checks.check_curve(_curve(*workloads.KNOWN_FAULT), ref)


def test_only_the_named_check_counts_as_the_known_fault():
    ref = workloads.family_ref(*workloads.KNOWN_FAULT)
    rows = _curve(*workloads.KNOWN_FAULT)
    job = {"op": "solve", "curve": True, "ref": ref}
    payload = {**_bound_payload(*workloads.KNOWN_FAULT), "curve": rows}
    tally = run.Tally()
    tally.record("known", lambda: run.check_lib_job(job, payload), workloads.KNOWN_FAULT_CHECK)
    assert (tally.failed, len(tally.known), tally.errors) == (1, 1, [])
    wrong_c = {**payload, "c": payload["c"] * (1 + 1e-9)}
    raised = {"error": "OverflowError: int too large to convert to float"}
    for result in (wrong_c, raised):
        tally.record("other", lambda r=result: run.check_lib_job(job, r), workloads.KNOWN_FAULT_CHECK)
    assert (tally.attempted, tally.failed, len(tally.known), len(tally.errors)) == (3, 3, 1, 2)


def test_reference_speed_scales_times_and_rates_but_not_memory():
    raw = {"wall_s": 6.0, "cli_p50_ms": 300.0, "lib_ops_per_s": 20.0, "setup_s": 0.3, "peak_rss_mb": 40.0}
    assert run.at_reference_speed(raw, 1.5) == pytest.approx(
        {"wall_s": 4.0, "cli_p50_ms": 200.0, "lib_ops_per_s": 30.0, "setup_s": 0.2, "peak_rss_mb": 40.0}
    )


def test_a_job_that_raises_is_timed_up_to_the_raise():
    # emit_curve overflows on this task (float(1 / br) in bounds.ca_crossing)
    job = {"op": "solve", "family": "ot", "params": {"alphabet": 2, "n": 1100}, "curve": True}
    out = libworker.run_job(job)
    assert out["result"]["error"].startswith("OverflowError")
    assert out["seconds"] > 0


def test_curve_check_rejects_a_bad_first_row_and_a_rise():
    ref = workloads.family_ref("eq", {"n": 60})
    rows = _curve("eq", {"n": 60})
    first = copy.deepcopy(rows)
    first[0][1] *= 1 - 1e-12
    rise = copy.deepcopy(rows)
    rise[100][1] = rise[99][1]
    for wrong in (first, rise, rows[:-1]):
        with pytest.raises(checks.CheckError):
            checks.check_curve(wrong, ref)
    with pytest.raises(checks.CheckError):
        checks.parse_curve_csv("c_a,c_b\n1.0,2.0\n")


def test_brand_check_rejects_a_wrong_baseline_fraction():
    ref = workloads.family_ref("xot", {"n": 3})
    task = tasks.make_family("xot", n=3)
    closed, brute = tasks.b_rand_closed_form(task), tasks.b_rand_bruteforce(task)
    payload = {
        "x_size": task.x_size,
        "y_size": task.y_size,
        "b_rand_closed_form": str(closed),
        "b_rand_bruteforce": str(brute),
        "agree": True,
    }
    checks.check_brand(payload, ref)
    for key in ("b_rand_closed_form", "b_rand_bruteforce"):
        with pytest.raises(checks.CheckError):
            checks.check_brand(dict(payload, **{key: "1/4"}), ref)


def _honest(task, trials=20000, seed=5):
    s = dierolling.run_honest(task, trials, seed)
    return {
        "trials": s.trials,
        "histogram": list(s.outcome_histogram),
        "aborts": s.abort_count,
        "tv_distance": s.tv_distance_from_uniform,
        "forcing_rate": s.forcing_rate,
        "seed": s.seed,
    }


def test_honest_check_rejects_aborts_and_a_biased_rate():
    task = tasks.make_family("ot", alphabet=2, n=4)
    stats = _honest(task)
    checks.check_honest(stats, task.y_size, 20000, 5)
    with pytest.raises(checks.CheckError, match="aborts"):
        checks.check_honest(dict(stats, aborts=1), task.y_size, 20000, 5)
    hist = list(stats["histogram"])
    hist[0] += 400
    hist[1] -= 400
    biased = dict(stats, histogram=hist, forcing_rate=hist[0] / 20000)
    with pytest.raises(checks.CheckError):
        checks.check_honest(biased, task.y_size, 20000, 5)


def test_table_job_check_rejects_a_wrong_fraction():
    params = {"alphabet": 2, "n": 4}
    task = tasks.make_family("ot", **params)
    ref = workloads.family_ref("ot", params)
    result = {
        "x_size": task.x_size,
        "y_size": task.y_size,
        "violations": [],
        "b_rand": str(tasks.b_rand_bruteforce(task)),
        "stats": _honest(task),
    }
    checks.check_table_job(result, ref, 20000, 5)
    with pytest.raises(checks.CheckError, match="brute force"):
        checks.check_table_job(dict(result, b_rand="1/16"), ref, 20000, 5)


def _records(instance_fn, campaign, count=20):
    return [{"campaign": campaign, **r} for r in measurements.run_campaign(instance_fn, count, 7)]


def test_record_check_rejects_a_disturbance_above_two_root_epsilon():
    records = _records(measurements.gentle_instance, "gentle")
    for r in records:
        checks.check_record(r)
    r = records[0]
    wrong = dict(r, achieved=2.0 * math.sqrt(r["epsilons"][0]) + 1e-6)
    with pytest.raises(checks.CheckError):
        checks.check_record(wrong)
    with pytest.raises(checks.CheckError):
        checks.check_record(dict(r, bound=r["bound"] + 1e-6))


def test_record_check_covers_sequential_and_learning():
    for r in _records(measurements.sequential_instance, "sequential"):
        checks.check_record(r)
        with pytest.raises(checks.CheckError):
            checks.check_record(dict(r, achieved=r["bound"] - 1e-6))
    for r in _records(measurements.learning_instance, "learning", 10):
        checks.check_record(r)
        with pytest.raises(checks.CheckError):
            checks.check_record(dict(r, completeness_defect=1e-9))
        with pytest.raises(checks.CheckError):
            checks.check_record(dict(r, min_eigenvalue=-1e-9))


def test_own_instance_checks_agree_and_reject():
    gentle = {"op": "gentle", "dim": 4, "seed": [1, 2]}
    inst = workloads.own_instance(gentle)
    r = measurements.check_gentle(inst["rho"], inst["lam"])
    result = {"epsilon": r.epsilon, "disturbance": r.disturbance, "bound": r.bound, "holds": r.holds}
    checks.check_own("gentle", result, inst)
    with pytest.raises(checks.CheckError, match="disturbance"):
        checks.check_own("gentle", dict(result, disturbance=r.bound + 1e-6), inst)

    seq = {"op": "sequential", "dim": 3, "n": 3, "seed": [1, 3]}
    inst = workloads.own_instance(seq)
    r = measurements.check_sequential(inst["rho"], inst["lams"])
    result = {"epsilons": list(r.epsilons), "expectation": r.expectation, "lower_bound": r.lower_bound, "holds": r.holds}
    checks.check_own("sequential", result, inst)
    with pytest.raises(checks.CheckError):
        checks.check_own("sequential", dict(result, expectation=r.expectation + 1e-7), inst)

    learn = {"op": "learning", "dim": 3, "n": 3, "seed": [1, 4]}
    inst = workloads.own_instance(learn)
    enc = measurements.QuantumEncoding(probs=inst["probs"], states=tuple(inst["states"]), functions=tuple(inst["functions"]))
    r = measurements.averaged_strategy_success(enc, [measurements.Povm(elements=tuple(e)) for e in inst["povms"]])
    result = {"individual_success": list(r.individual_success), "achieved": r.achieved, "bound": r.bound, "holds": r.holds}
    checks.check_own("learning", result, inst)
    with pytest.raises(checks.CheckError):
        checks.check_own("learning", dict(result, achieved=r.achieved - 1e-7), inst)


# ---------------------------------------------------------------------------
# whole passes
# ---------------------------------------------------------------------------


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_of_each_workload(workload):
    proc = _run(workload, 3, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == (2 if workload == "solve" else 0)
    names = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_reports_every_layer_metric_with_seed_independent_counts():
    units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    counts = []
    for seed in (1, 2):
        proc = _run("solve", seed, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stderr
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        counts.append({k: v["value"] for k, v in result["metrics"].items() if units[k] == "count"})
    assert counts[0] == counts[1]
    curves = sum((f, p) not in workloads.NO_CURVE for f, p in workloads.SOLVE_LIB_TASKS + workloads.SOLVE_CLI_TASKS)
    assert counts[0]["bounds.curve_rows"] == checks.CURVE_SAMPLES * curves


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run("solve", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
