"""Pointwise family formulas, the oracle for ``tasks.family_table``.

``family_value`` computes f(x, y) of a family task from its parameters on
Python ints, one cell at a time and without a table, in the index
conventions of the ``tasks`` module.  ``family_table`` builds the same
cells with array formulas; the tests compare the two, and read cells of
tasks above the materialization cap from here.
"""

from __future__ import annotations

from math import comb

from sfebounds.tasks import SfeTask


def _subset_by_rank(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Lexicographic unranking of k-subsets of range(n)."""
    out = []
    c = 0
    while k > 0:
        block = comb(n - 1 - c, k - 1)
        if rank < block:
            out.append(c)
            k -= 1
        else:
            rank -= block
        c += 1
    return tuple(out)


def family_value(task: SfeTask, x: int, y: int) -> int:
    """Closed-form f(x, y) for a family task, no table needed."""
    p = task.params
    tag = task.family
    if tag == "ot":
        w, n = p["alphabet"], p["n"]
        return (x // w ** (n - 1 - y)) % w
    if tag == "knot":
        w, n, k = p["alphabet"], p["n"], p["k"]
        subset = _subset_by_rank(y, n, k)
        b = 0
        for i in subset:
            b = b * w + (x // w ** (n - 1 - i)) % w
        return b
    if tag == "xot":
        n = p["n"]
        mask = (1 << n) - 1
        x1, x2 = x >> n, x & mask
        return (x1, x2, x1 ^ x2)[y]
    if tag == "eq":
        return int(x == y)
    if tag == "ip":
        return ((x & (y + 1)).bit_count()) % 2
    return int(y >= x)  # "mp"
