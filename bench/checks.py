"""Checks of the program's outputs against the reference computations.

Each check raises CheckError naming the first thing that is wrong.  The
tolerances sit far above the program's rounding (c, epsilon and the curve
crossing agree with the 80-digit references to about 2e-15 relative) and
far below any fault worth catching.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import reference

REL_TOL = 1e-12  # c, epsilon, both bounds, the curve crossing
LINALG_TOL = 1e-9  # measurement quantities recomputed with scipy
CHECK_TOL = 1e-8  # the program's documented headroom on the inequalities
PSD_TOL = 1e-10  # completeness defect and eigenvalue floor
FORCING_SE = 5.0  # standard errors allowed on a die-rolling forcing rate
CURVE_SAMPLES = 200
CROSSING = "last row c_A (the c_B = 1 crossing)"  # opens the message of a missed crossing


class CheckError(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(value: float, ref, what: str, tol: float = REL_TOL) -> None:
    ref = Decimal(ref)
    expect(
        math.isfinite(value) and abs(Decimal(value) - ref) <= Decimal(repr(tol)) * abs(ref),
        f"{what} = {value!r}, reference {float(ref)!r}",
    )


@lru_cache(maxsize=None)
def constant(b_rand: Fraction, y_size: int):
    return reference.security_constant(b_rand, y_size)


@lru_cache(maxsize=None)
def crossing(b_rand: Fraction, y_size: int):
    return reference.curve_crossing(b_rand, y_size)


def check_bound(payload: dict, ref: dict) -> None:
    """`bound --json` output or the library's bound_report fields."""
    b_rand = Fraction(ref["b_rand"])
    y_size = ref["y_size"]
    expect(Fraction(payload["b_rand"]) == b_rand, f"b_rand {payload['b_rand']}, reference {b_rand}")
    expect(payload["y_size"] == y_size, f"y_size {payload['y_size']}, reference {y_size}")
    if "a_rand" in payload:
        expect(Fraction(payload["a_rand"]) == Fraction(1, y_size), f"a_rand {payload['a_rand']}")
    c, eps = constant(b_rand, y_size)
    _close(payload["c"], c, "c")
    _close(payload["epsilon"], eps, "epsilon")
    _close(payload["alice_bound"], c / y_size, "alice_bound")
    _close(payload["bob_bound"], c * Decimal(b_rand.numerator) / Decimal(b_rand.denominator), "bob_bound")


def parse_curve_csv(text: str) -> list:
    lines = text.split("\n")
    expect(lines[0] == "c_A,c_B", f"curve header {lines[0]!r}")
    expect(lines[-1] == "", "curve output does not end in a newline")
    return [[float(v) for v in line.split(",")] for line in lines[1:-1]]


def check_curve(rows: list, ref: dict) -> None:
    """Default curve: 200 rows from (1, 1/b_rand) down to the c_B = 1 crossing."""
    b_rand = Fraction(ref["b_rand"])
    expect(len(rows) == CURVE_SAMPLES, f"{len(rows)} curve rows, expected {CURVE_SAMPLES}")
    expect(rows[0][0] == 1.0, f"first row c_A = {rows[0][0]!r}")
    _close(rows[0][1], Decimal(b_rand.denominator) / Decimal(b_rand.numerator), "first row c_B", 1e-15)
    for (a0, b0), (a1, b1) in zip(rows, rows[1:]):
        expect(a1 > a0, f"c_A not increasing at {a0!r} -> {a1!r}")
        expect(b1 < b0, f"c_B not strictly decreasing at c_A = {a1!r}")
    _close(rows[-1][0], crossing(b_rand, ref["y_size"]), CROSSING)


def check_brand(payload: dict, ref: dict) -> None:
    b_rand = ref["b_rand"]
    expect(payload["x_size"] == ref["x_size"] and payload["y_size"] == ref["y_size"], "task sizes")
    expect(payload["b_rand_bruteforce"] == b_rand, f"brute force {payload['b_rand_bruteforce']}, reference {b_rand}")
    if ref["family"]:
        expect(payload["b_rand_closed_form"] == b_rand, f"closed form {payload['b_rand_closed_form']}, reference {b_rand}")
        expect(payload["agree"] is True, "closed form and brute force reported as disagreeing")
    else:
        expect(payload["b_rand_closed_form"] is None, "closed form reported for an explicit table")


def check_honest(stats: dict, y_size: int, trials: int, seed: int) -> None:
    """Honest die rolling: no aborts, and outcome 0 at rate 1/|Y|."""
    hist = stats["histogram"]
    expect(stats["aborts"] == 0, f"{stats['aborts']} aborts in honest runs")
    expect(stats["trials"] == trials and stats["seed"] == seed, "trials or seed echoed wrongly")
    expect(len(hist) == y_size and sum(hist) == trials, f"histogram sums to {sum(hist)}, not {trials}")
    p = 1.0 / y_size
    expect(stats["forcing_rate"] == hist[0] / trials, "forcing rate differs from the histogram")
    se = math.sqrt(p * (1 - p) / trials)
    expect(
        abs(stats["forcing_rate"] - p) <= FORCING_SE * se,
        f"forcing rate {stats['forcing_rate']!r} is {abs(stats['forcing_rate'] - p) / se:.1f} SE from 1/{y_size}",
    )
    tv = 0.5 * sum(abs(h / trials - p) for h in hist)
    expect(abs(stats["tv_distance"] - tv) <= 1e-12, f"tv distance {stats['tv_distance']!r}, histogram gives {tv!r}")


def check_table_job(result: dict, ref: dict, trials: int, seed: int) -> None:
    """make_family/load_task -> validate_task -> b_rand_bruteforce -> run_honest."""
    expect(result["violations"] == [], f"validate_task: {result['violations'][:3]}")
    expect(result["x_size"] == ref["x_size"] and result["y_size"] == ref["y_size"], "task sizes")
    expect(result["b_rand"] == ref["b_rand"], f"brute force {result['b_rand']}, reference {ref['b_rand']}")
    check_honest(result["stats"], ref["y_size"], trials, seed)


# ---------------------------------------------------------------------------
# verification campaigns
# ---------------------------------------------------------------------------


def check_record(record: dict) -> None:
    """One campaign record: the bound from its epsilons, and its verdict."""
    eps = record["epsilons"]
    achieved = record["achieved"]
    expect(record["holds"] is True, f"violation in {record['campaign']} instance {record['seed']}")
    if record["campaign"] == "gentle":
        bound = 2.0 * math.sqrt(eps[0])
        holds = achieved <= bound + CHECK_TOL
    elif record["campaign"] == "sequential":
        bound = 1.0 - eps[0] - 2.0 * sum(math.sqrt(e) for e in eps[1:])
        holds = achieved >= bound - CHECK_TOL
    else:
        n = record["n"]
        average = sum(1.0 - e for e in eps) / n
        bound = average - 2.0 * (n - 1) * math.sqrt(max(1.0 - average, 0.0))
        holds = (
            achieved >= bound - CHECK_TOL
            and achieved >= record["averaged_bound"] - CHECK_TOL
            and record["completeness_defect"] <= PSD_TOL
            and record["min_eigenvalue"] >= -PSD_TOL
            and record["cauchy_schwarz_gap"] >= -1e-12
        )
        expect(record["completeness_defect"] <= PSD_TOL, f"completeness defect {record['completeness_defect']!r}")
        expect(record["min_eigenvalue"] >= -PSD_TOL, f"minimum eigenvalue {record['min_eigenvalue']!r}")
    expect(abs(record["bound"] - bound) <= LINALG_TOL, f"bound {record['bound']!r}, epsilons give {bound!r}")
    expect(holds, f"{record['campaign']} instance {record['seed']}: achieved {achieved!r} against bound {bound!r}")


def check_campaign_output(text: str, seed: int, instances: int) -> None:
    """`verify-lemmas --json`: every record of every campaign, in order."""
    lines = text.split("\n")
    expect(lines[-1] == "", "records do not end in a newline")
    records = [json.loads(line) for line in lines[:-1]]
    campaigns = [r["campaign"] for r in records]
    expected = [c for c in ("gentle", "sequential", "learning") for _ in range(instances)]
    expect(campaigns == expected, "campaigns or instance counts differ from the request")
    for i, record in enumerate(records):
        expect(record["seed"] == [seed, i % instances], f"record seed {record['seed']}")
        check_record(record)


def _agree(value, ref, what: str) -> None:
    expect(abs(value - ref) <= LINALG_TOL, f"{what} = {value!r}, scipy gives {ref!r}")


def check_own(op: str, result: dict, inst: dict) -> None:
    """A drawn instance: the library's report against scipy.linalg."""
    if op == "gentle":
        ref = reference.gentle(inst["rho"], inst["lam"])
        _agree(result["epsilon"], ref["epsilon"], "epsilon")
        _agree(result["disturbance"], ref["disturbance"], "disturbance")
        _agree(result["bound"], ref["bound"], "bound")
        expect(ref["disturbance"] <= ref["bound"] + CHECK_TOL, "disturbance above 2 sqrt(epsilon)")
        expect(result["holds"] is True, "check_gentle reports a violation")
    elif op == "sequential":
        ref = reference.sequential(inst["rho"], inst["lams"])
        for value, r in zip(result["epsilons"], ref["epsilons"], strict=True):
            _agree(value, r, "epsilon")
        _agree(result["expectation"], ref["expectation"], "expectation")
        _agree(result["lower_bound"], ref["lower_bound"], "lower bound")
        expect(ref["expectation"] >= ref["lower_bound"] - CHECK_TOL, "sequential expectation below its bound")
        expect(result["holds"] is True, "check_sequential reports a violation")
    else:
        ref = reference.learning(inst["probs"], inst["states"], inst["functions"], inst["povms"])
        for value, r in zip(result["individual_success"], ref["individual_success"], strict=True):
            _agree(value, r, "individual success")
        _agree(result["achieved"], ref["achieved"], "achieved")
        _agree(result["bound"], ref["bound"], "bound")
        expect(ref["achieved"] >= ref["bound"] - CHECK_TOL, "learning success below its bound")
        expect(result["holds"] is True, "averaged_strategy_success reports a violation")
