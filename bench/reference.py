"""Reference computations made apart from the program under test.

Nothing here imports ``sfebounds``.  Family tables are rebuilt with numpy
from the family definitions in the README, baselines come from an
independent numpy brute force and from closed forms derived below, the
security constant and the curve crossing come from 80-digit ``decimal``
bisections, and the measurement quantities are recomputed with
``scipy.linalg``.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import numpy as np

DIGITS = 80


# ---------------------------------------------------------------------------
# family tables and baselines
# ---------------------------------------------------------------------------


def family_sizes(family: str, p: dict) -> tuple[int, int, int]:
    """(|X|, |Y|, |B|) from the family definitions."""
    n = p["n"]
    if family == "ot":
        return p["alphabet"] ** n, n, p["alphabet"]
    if family == "knot":
        return p["alphabet"] ** n, comb(n, p["k"]), p["alphabet"] ** p["k"]
    if family == "xot":
        return 4**n, 3, 2**n
    if family == "eq":
        return n, n, 2
    if family == "ip":
        return 2**n, 2**n - 1, 2
    if family == "mp":
        return n, n - 1, 2
    raise ValueError(f"unknown family {family!r}")


def family_table(family: str, p: dict) -> np.ndarray:
    """The full table f[x, y] of a family task, built with numpy."""
    x_size, y_size, _ = family_sizes(family, p)
    n = p["n"]
    x = np.arange(x_size, dtype=np.int64)[:, None]
    if family in ("ot", "knot"):
        w = p["alphabet"]
        # digit i of x, most significant first
        digits = (x // w ** np.arange(n - 1, -1, -1, dtype=np.int64)) % w
        if family == "ot":
            return digits
        cols = []
        for subset in itertools.combinations(range(n), p["k"]):
            packed = np.zeros(x_size, dtype=np.int64)
            for i in subset:
                packed = packed * w + digits[:, i]
            cols.append(packed)
        return np.stack(cols, axis=1)
    if family == "xot":
        x1, x2 = x >> n, x & ((1 << n) - 1)
        return np.concatenate([x1, x2, x1 ^ x2], axis=1)
    y = np.arange(y_size, dtype=np.int64)[None, :]
    if family == "eq":
        return (x == y).astype(np.int64)
    if family == "ip":
        bits = x & (y + 1)
        parity = np.zeros_like(bits)
        while bits.any():
            parity ^= bits & 1
            bits = bits >> 1
        return parity
    if family == "mp":
        return (y >= x).astype(np.int64)
    raise ValueError(f"unknown family {family!r}")


def b_rand_table(table: np.ndarray) -> Fraction:
    """Best single-query success at guessing a whole row, by brute force.

    For each query column y*, inputs are grouped by the observed output;
    within a group the guesser names the most common row.  The baseline is
    the best column's total of group maxima over |X|.
    """
    table = np.asarray(table, dtype=np.int64)
    x_size = table.shape[0]
    _, row_id = np.unique(table, axis=0, return_inverse=True)
    row_id = row_id.reshape(-1)
    n_rows = int(row_id.max()) + 1
    best = 0
    for col in table.T:
        keys, counts = np.unique(col * n_rows + row_id, return_counts=True)
        modal = np.zeros(int(col.max()) + 1, dtype=np.int64)
        np.maximum.at(modal, keys // n_rows, counts)
        best = max(best, int(modal.sum()))
    return Fraction(best, x_size)


def b_rand_closed(family: str, p: dict) -> Fraction:
    """Closed-form baselines, one line of reasoning each.

    ot/knot: one query reveals 1 (k) of the n letters; the other n-1 (n-k)
    letters are uniform and fix the row, so a guess is right w.p. |W|^-(n-1)
    (|W|^-(n-k)).  xot: any one of x1, x2, x1^x2 leaves n free bits.
    eq/mp: rows are distinct; querying y splits X into one input and the
    rest (eq) or a prefix and a suffix (mp), so at most two rows can be
    named correctly.  ip: a nonzero query halves 2^n distinct rows into
    two parity classes, again two correct guesses.
    """
    n = p["n"]
    if family == "ot":
        return Fraction(1, p["alphabet"] ** (n - 1))
    if family == "knot":
        return Fraction(1, p["alphabet"] ** (n - p["k"]))
    if family == "xot":
        return Fraction(1, 2**n)
    if family in ("eq", "mp"):
        return Fraction(2, n)
    if family == "ip":
        return Fraction(2, 2**n)
    raise ValueError(f"unknown family {family!r}")


def permuted_table(base: np.ndarray, b_size: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffle rows and columns and relabel outputs column by column.

    None of the three moves changes which rows coincide or how a column
    splits the rows, so the baseline of the result equals that of ``base``.
    """
    rows = rng.permutation(base.shape[0])
    cols = rng.permutation(base.shape[1])
    out = base[rows][:, cols]
    labels = np.stack([rng.permutation(b_size) for _ in range(out.shape[1])], axis=1)
    return np.take_along_axis(labels, out, axis=0)


# ---------------------------------------------------------------------------
# security constant and curve crossing
# ---------------------------------------------------------------------------


def _dec(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def _bisect_decreasing(h, lo: Decimal, hi: Decimal) -> Decimal:
    """Root of a strictly decreasing h with h(lo) > 0 >= h(hi)."""
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid


def security_constant(b_rand: Fraction, y_size: int) -> tuple[Decimal, Decimal]:
    """(c, c - 1) solving c = K(1/c - 2(|Y|-1)sqrt(1 - 1/c)), K = 1/b_rand.

    The right side minus c is strictly decreasing in c, positive at c = 1
    (it is K - 1) and at most zero at c = sqrt(K), where the right side is
    at most K/c = c.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        k = _dec(1 / b_rand)
        m = y_size - 1

        def h(c: Decimal) -> Decimal:
            inv = 1 / c
            return k * (inv - 2 * m * (1 - inv).sqrt()) - c

        c = _bisect_decreasing(h, Decimal(1), k.sqrt())
        return +c, c - 1


def curve_crossing(b_rand: Fraction, y_size: int) -> Decimal:
    """The c_A where c_B = K(1/c_A - 2(|Y|-1)sqrt(1 - 1/c_A)) falls to 1."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        k = _dec(1 / b_rand)
        m = y_size - 1

        def h(a: Decimal) -> Decimal:
            inv = 1 / a
            return k * (inv - 2 * m * (1 - inv).sqrt()) - 1

        return _bisect_decreasing(h, Decimal(1), k)


# ---------------------------------------------------------------------------
# measurement instances
# ---------------------------------------------------------------------------


def _sqrtm(a: np.ndarray) -> np.ndarray:
    # imported on first use: the library worker imports this module through
    # workloads.py, and scipy would add to its start-up and memory
    import scipy.linalg

    return scipy.linalg.sqrtm(a)


def _trace_norm(a: np.ndarray) -> float:
    import scipy.linalg

    return float(scipy.linalg.svdvals(a).sum())


def gentle(rho: np.ndarray, lam: np.ndarray) -> dict:
    """epsilon = 1 - Tr(lam rho) and the disturbance ||rho - r rho r||_1."""
    eps = min(max(1.0 - float(np.trace(lam @ rho).real), 0.0), 1.0)
    r = _sqrtm(lam)
    return {"epsilon": eps, "disturbance": _trace_norm(rho - r @ rho @ r), "bound": 2.0 * eps**0.5}


def sequential(rho: np.ndarray, lams: list) -> dict:
    """Expectation of sqrt(L_n)..sqrt(L_2) L_1 sqrt(L_2)..sqrt(L_n) in rho."""
    eps = [min(max(1.0 - float(np.trace(lam @ rho).real), 0.0), 1.0) for lam in lams]
    op = lams[0]
    for lam in lams[1:]:
        r = _sqrtm(lam)
        op = r @ op @ r
    return {
        "epsilons": eps,
        "expectation": float(np.trace(rho @ op).real),
        "lower_bound": 1.0 - eps[0] - 2.0 * sum(e**0.5 for e in eps[1:]),
    }


def learning(probs, states, functions, povms: list) -> dict:
    """Success of guessing every function value with the sandwiched
    correct-outcome elements, averaged over which POVM is innermost."""
    n = len(povms)
    roots = [[_sqrtm(e) for e in elems] for elems in povms]
    individual = [
        sum(p * float(np.trace(s @ povms[i][f[x]]).real) for x, (p, s) in enumerate(zip(probs, states)))
        for i, f in enumerate(functions)
    ]
    achieved = 0.0
    for j in range(n):
        for x, (p, s) in enumerate(zip(probs, states)):
            op = povms[j][functions[j][x]]
            for i in range(n):
                if i != j:
                    r = roots[i][functions[i][x]]
                    op = r @ op @ r
            achieved += p * float(np.trace(s @ op).real)
    achieved /= n
    average = sum(individual) / n
    return {
        "individual_success": individual,
        "achieved": achieved,
        "bound": average - 2.0 * (n - 1) * max(1.0 - average, 0.0) ** 0.5,
    }
