"""Finite secure-function-evaluation tasks and black-box cheating baselines.

A task is a total function f : X x Y -> B between finite index sets, with
both inputs uniform and independent.  Tasks are either explicit tables or
members of one of six parametric families (oblivious-transfer variants,
equality, inner product, millionaire comparison) with closed-form
baselines.  SfeTask checks a task once, when it is built; nothing
downstream re-checks.  Tables are read-only int64 numpy arrays; numpy is
imported inside the functions that build or read them, so a family task
used through its formulas never loads it.  A family task builds its table
from the family formulas only when the table is first read, and only up
to MATERIALIZE_CAP cells, so bounds and curves, which need only the
closed-form baseline, never build one, and huge parametric instances stay
usable through their formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from numbers import Integral
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

if TYPE_CHECKING:
    import numpy as np

MATERIALIZE_CAP = 10**6  # tables are built only when x_size * y_size fits

# A family whose sizes or baseline would take a power or a binomial above
# 2**MAX_SIZE_BITS (4215 decimal digits) is refused before one is computed:
# larger ones can exhaust memory, and would not print within Python's
# default limit of 4300 digits for converting an int to a string.
MAX_SIZE_BITS = 14000

# cells of the unique-row table sorted at once by b_rand_bruteforce; bounds
# its temporaries whatever the table's shape
BRUTE_FORCE_BLOCK = 1 << 16


class TaskError(ValueError):
    """Malformed task, family parameters, or query."""


class _Family(NamedTuple):
    """One parametric family; the callables take its parameters by name."""

    keys: tuple[str, ...]  # parameter names, in the order messages list them
    sizes: Callable[..., tuple[int, int, int]]  # (x_size, y_size, b_size)
    name: str  # str.format template over the parameters
    b_rand: Callable[..., Fraction]  # closed-form single-query baseline
    rule: Optional[tuple[Callable[..., bool], str]] = None  # extra check and its message
    # bits enough for every power and binomial among the sizes and the
    # baseline, found without taking one; None when there are none
    bits: Optional[Callable[..., int]] = None


_FAMILIES = {
    "ot": _Family(
        ("alphabet", "n"),
        lambda alphabet, n: (alphabet**n, n, alphabet),
        "1-of-{n} OT (alphabet {alphabet})",
        lambda alphabet, n: Fraction(1, alphabet ** (n - 1)),
        bits=lambda alphabet, n: n * (alphabet - 1).bit_length(),
    ),
    "knot": _Family(
        ("alphabet", "n", "k"),
        lambda alphabet, n, k: (alphabet**n, comb(n, k), alphabet**k),
        "{k}-of-{n} OT (alphabet {alphabet})",
        lambda alphabet, n, k: Fraction(1, alphabet ** (n - k)),
        (lambda alphabet, n, k: k < n, "k-of-n OT requires k < n"),
        bits=lambda alphabet, n, k: n * max(alphabet - 1, 1).bit_length(),  # comb(n, k) < 2**n
    ),
    "xot": _Family(
        ("n",),
        lambda n: (4**n, 3, 2**n),
        "XOR OT ({n}-bit strings)",
        lambda n: Fraction(1, 2**n),
        bits=lambda n: 2 * n,
    ),
    "eq": _Family(
        ("n",),
        lambda n: (n, n, 2),
        "equality (n={n})",
        lambda n: Fraction(2, n),
        (lambda n: n >= 2, "family 'eq' requires n >= 2"),
    ),
    "ip": _Family(
        ("n",),
        lambda n: (2**n, 2**n - 1, 2),
        "inner product (n={n})",
        lambda n: Fraction(2, 2**n),
        bits=lambda n: n,
    ),
    "mp": _Family(
        ("n",),
        lambda n: (n, n - 1, 2),
        "millionaire (n={n})",
        lambda n: Fraction(2, n),
        (lambda n: n >= 2, "family 'mp' requires n >= 2"),
    ),
}

FAMILY_TAGS = tuple(_FAMILIES)
FAMILY_PARAMS = {tag: family.keys for tag, family in _FAMILIES.items()}


@dataclass(frozen=True)
class FamilySpec:
    """Parametric family descriptor: a tag from FAMILY_TAGS plus int params.

    The constructor is the one place family parameters are checked: it keeps
    its own copy of ``params`` and raises TaskError on any the family refuses.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in FAMILY_TAGS:
            raise TaskError(f"unknown family tag {self.family!r}")
        params = dict(self.params)
        object.__setattr__(self, "params", params)
        family = _FAMILIES[self.family]
        if set(params) != set(family.keys):
            raise TaskError(
                f"family {self.family!r} takes parameters {family.keys}, got {tuple(params)}"
            )
        for key, value in params.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise TaskError(f"parameter {key}={value!r} must be a positive integer")
        if family.rule is not None and not family.rule[0](**params):
            raise TaskError(family.rule[1])
        if family.bits is not None and family.bits(**params) > MAX_SIZE_BITS:
            named = ", ".join(f"{key}={params[key]}" for key in family.keys)
            raise TaskError(
                f"family {self.family!r} with {named} is too large: "
                f"its sizes are capped at 2**{MAX_SIZE_BITS}"
            )

    @property
    def name(self) -> str:
        return _FAMILIES[self.family].name.format(**self.params)

    @property
    def sizes(self) -> tuple[int, int, int]:  # (x_size, y_size, b_size)
        return _FAMILIES[self.family].sizes(**self.params)


class SfeTask:
    """A finite SFE instance with uniform, independent inputs.

    A task has one source of cells: an explicit ``table`` or a ``family``
    descriptor, never both.  ``table[x, y]`` holds the output index f(x, y)
    as a read-only 2-D int64 array.  An explicit table is converted here
    from any nested sequence of integers.  A family task within
    MATERIALIZE_CAP builds its table from the family formulas on the first
    read of ``table`` and keeps it; above the cap ``table`` is None and the
    task answers pointwise and closed-form queries.

    The constructor is the one place a task is checked: non-integer sizes,
    ragged rows, missing or non-integer cells, values outside int64, tables
    above MATERIALIZE_CAP and every violation validate_task reports raise
    TaskError, so a task that exists is valid.  Tasks are immutable; every
    operation on them is pure.  Equality compares table contents.
    """

    def __init__(self, name: str, x_size: int, y_size: int, b_size: int, table=None, family=None):
        for key, value in (("x_size", x_size), ("y_size", y_size), ("b_size", b_size)):
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise TaskError(f"{key}={value!r} must be an integer")
        if table is not None and family is not None:
            raise TaskError("a task takes a table or family parameters, not both")
        if table is not None:
            table = _as_table(table, x_size, y_size, b_size)
        self.__dict__.update(
            name=name, x_size=x_size, y_size=y_size, b_size=b_size, family=family, _table=table
        )
        violations = validate_task(self)
        if violations:
            raise TaskError("; ".join(violations))

    def __setattr__(self, key, value):
        raise AttributeError(f"SfeTask is immutable: cannot set {key!r}")

    def __eq__(self, other):
        import numpy as np

        if not isinstance(other, SfeTask):
            return NotImplemented
        if (self.name, self.x_size, self.y_size, self.b_size, self.family) != (
            other.name, other.x_size, other.y_size, other.b_size, other.family
        ):
            return False
        # one family spec derives one table; otherwise both tables are explicit
        return self.family is not None or np.array_equal(self._table, other._table)

    @property
    def materialized(self) -> bool:
        return self.family is None or self.x_size * self.y_size <= MATERIALIZE_CAP

    @property
    def table(self) -> Optional[np.ndarray]:
        if self._table is None and self.materialized:  # a family task within the cap
            self.__dict__["_table"] = family_table(self.family)
        return self._table

    def f(self, x: int, y: int) -> int:
        """Output index f(x, y), from the family formula or the table."""
        if not (0 <= x < self.x_size and 0 <= y < self.y_size):
            raise TaskError(f"input pair ({x}, {y}) out of range")
        if self.family is not None:
            return family_value(self.family, x, y)
        return int(self._table[x, y])


def _check_cap(cells: int) -> None:
    if cells > MATERIALIZE_CAP:
        raise TaskError(
            f"table of {cells} cells is above the materialization cap {MATERIALIZE_CAP}"
        )


def _as_table(raw, x_size: int, y_size: int, b_size: int) -> np.ndarray:
    """``raw`` as a read-only 2-D int64 array, or TaskError naming bad cells."""
    import numpy as np

    _check_cap(int(x_size) * int(y_size))
    try:
        table = np.array(raw)  # a private copy the caller cannot write to
    except (ValueError, TypeError, OverflowError):  # e.g. ragged rows
        table = None
    integer = table is not None and (np.can_cast(table.dtype, np.int64) or table.size == 0)
    if not integer or table.ndim != 2:
        violations = _cell_violations(raw, x_size, y_size, b_size)
        raise TaskError("; ".join(violations) or "table must be a 2-D array of integers")
    _check_cap(table.size)
    if table.dtype != np.int64:
        table = table.astype(np.int64)
    table.flags.writeable = False
    return table


def _cell_violations(raw, x_size: int, y_size: int, b_size: int) -> list[str]:
    """Cell-by-cell report of a bad table: its row count, then each row that
    is not a sequence or not y_size long, and each cell that is missing or
    not an integer in [0, b_size), in row-major order.

    The reporter for tables numpy cannot take as 2-D integers; its per-row
    part, ``_row_violations``, words every message, also for the int64
    tables validate_task refuses.  Both run only on the error path.
    Integral covers numpy's integer scalars, which numpy registers with it.
    """
    try:
        rows = list(raw)
    except TypeError:
        return ["table must be a sequence of rows"]
    return _row_violations(len(rows), enumerate(rows), x_size, y_size, b_size)


def _row_violations(count: int, numbered, x_size: int, y_size: int, b_size: int) -> list[str]:
    """``_cell_violations`` of a table of ``count`` rows, from the pairs
    (x, row) of ``numbered`` in ascending x; a row left out must have
    nothing to report."""
    violations = []
    if count != x_size:
        violations.append(f"table has {count} rows, expected x_size={x_size}")
    for x, row in numbered:
        try:
            row = list(row)
        except TypeError:
            violations.append(f"table row {x} is not a sequence")
            continue
        if len(row) != y_size:
            violations.append(f"table not total at x={x}: row length {len(row)}")
            continue
        for y, b in enumerate(row):
            if b is None:
                violations.append(f"table not total at ({x}, {y})")
            elif not isinstance(b, Integral) or not 0 <= b < b_size:
                violations.append(f"entry {b!r} at ({x}, {y}) outside [0, {b_size})")
    return violations


def answer_vector(task: SfeTask, x: int) -> tuple[int, ...]:
    """The full answer tuple (f(x, y) for every y) that a fully cheating
    receiver must produce for input row x."""
    if task.table is None:
        raise TaskError("answer vectors require a materialized table")
    if not 0 <= x < task.x_size:
        raise TaskError(f"x index {x} out of range")
    return tuple(task.table[x].tolist())


# ---------------------------------------------------------------------------
# family formulas
#
# Index conventions (fixed so tables, files, and formulas agree):
#   ot   : x encodes (x_1..x_n) over alphabet W base-|W| big-endian;
#          y in {0..n-1} selects component y; f = component.
#   knot : y enumerates k-subsets of {0..n-1} in lexicographic order;
#          f packs the selected components (ascending position) base-|W|.
#   xot  : x = x1 * 2^n + x2 for n-bit strings x1, x2; y in {0: first,
#          1: second, 2: bitwise xor}; f is the selected n-bit string.
#   eq   : X = Y = {0..n-1}; f = 1 iff x == y.
#   ip   : x an n-bit string; y in {0..2^n-2} stands for the nonzero
#          string y+1; f = parity of bitwise AND.
#   mp   : x in {0..n-1} for wealth x+1; y in {0..n-2} for wealth y+1;
#          f = 1 iff y >= x (holder of y learns who is richer).
# ---------------------------------------------------------------------------


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


def family_value(spec: FamilySpec, x: int, y: int) -> int:
    """Closed-form f(x, y) for a parametric family, no table needed."""
    p = spec.params
    tag = spec.family
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


def family_table(spec: FamilySpec) -> np.ndarray:
    """The whole table of a family task, ``family_value`` at every cell.

    Built with array formulas in the index conventions above and returned
    read-only.  The caller keeps x_size * y_size within MATERIALIZE_CAP.
    """
    import numpy as np

    p = spec.params
    tag = spec.family
    x_size, y_size, _ = spec.sizes
    x = np.arange(x_size, dtype=np.int64)[:, None]
    y = np.arange(y_size, dtype=np.int64)
    if tag == "ot":
        w, n = p["alphabet"], p["n"]
        table = x // w ** (n - 1 - y)
        table %= w
    elif tag == "knot":
        w, n = p["alphabet"], p["n"]
        digits = x // w ** np.arange(n - 1, -1, -1, dtype=np.int64) % w
        # combinations() yields k-subsets in lexicographic order, the rank order
        subsets = np.array(list(combinations(range(n), p["k"])), dtype=np.intp)
        table = digits[:, subsets[:, 0]]
        for j in range(1, p["k"]):
            table *= w
            table += digits[:, subsets[:, j]]
    elif tag == "xot":
        n = p["n"]
        x1, x2 = x >> n, x & ((1 << n) - 1)
        table = np.hstack([x1, x2, x1 ^ x2])
    elif tag == "eq":
        table = (x == y).astype(np.int64)
    elif tag == "ip":
        table = x & (y + 1)
        shift = 1
        while shift < p["n"]:  # xor-fold every bit onto bit 0: the parity
            table ^= table >> shift
            shift *= 2
        table &= 1
    else:  # "mp"
        table = (y >= x).astype(np.int64)
    table.flags.writeable = False
    return table


def make_family(family: str, **params: int) -> SfeTask:
    """Construct a parametric task; its table is built on the first read.

    Raises TaskError on parameters FamilySpec refuses.
    """
    spec = FamilySpec(family, params)
    return SfeTask(spec.name, *spec.sizes, family=spec)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_task(task: SfeTask) -> list[str]:
    """Check the sizes, then an explicit table's shape and range or a
    family's sizes.

    Returns a list of human-readable violations; empty means valid.  The
    SfeTask constructor raises TaskError on a non-empty list, so every task
    that exists passes.  A family table is never read here: family_table
    builds it from the sizes the family implies, with every cell in
    [0, b_size), so checking the sizes covers it.  An explicit table is
    accepted by its shape and its minimum and maximum alone; for one that
    is not, numpy finds the rows to report, and ``_row_violations`` walks
    only those, in the order and words of ``_cell_violations``.
    """
    if task.x_size < 1 or task.y_size < 1 or task.b_size < 1:
        return ["sizes must all be positive"]
    if task.family is not None:
        sizes = task.family.sizes
        if sizes != (task.x_size, task.y_size, task.b_size):
            return [
                f"family implies sizes {sizes}, task declares "
                f"({task.x_size}, {task.y_size}, {task.b_size})"
            ]
        return []

    table = task._table  # not task.table, which would try to build a family table
    if table is None:
        return ["task has neither a table nor family parameters"]
    shape_ok = table.shape == (task.x_size, task.y_size)
    if shape_ok and int(table.min()) >= 0 and int(table.max()) < task.b_size:
        return []
    if table.shape[1] != task.y_size:
        rows = range(len(table))  # each row has the wrong length
    else:  # only a row with a cell out of range has something to report
        high = min(task.b_size - 1, 2**63 - 1)  # no int64 cell is above 2**63 - 1
        rows = ((table < 0) | (table > high)).any(axis=1).nonzero()[0].tolist()
    # Python ints, which print as 5 where numpy's print as np.int64(5)
    numbered = ((x, table[x].tolist()) for x in rows)
    return _row_violations(len(table), numbered, task.x_size, task.y_size, task.b_size)


# ---------------------------------------------------------------------------
# black-box baselines
# ---------------------------------------------------------------------------


def a_rand(task: SfeTask) -> Fraction:
    """Blind-guess success of the input holder with no output: 1/|Y|."""
    return Fraction(1, task.y_size)


def b_rand_bruteforce(task: SfeTask) -> Fraction:
    """Exact best single-query success at guessing the full answer tuple.

    The receiver picks the best query y*, observes b = f(x, y*), and
    outputs the most frequent answer tuple among inputs consistent with
    the observation.  Exhaustive over y*, exact over the uniform prior.

    The rows are deduplicated and each query's outputs sorted on a private
    copy of the table in the narrowest unsigned type that holds its largest
    cell, uint8 when every output is below 256.  The cast is exact: the
    constructor keeps every cell in [0, b_size) and in int64, so no cell is
    negative and the largest fits the type chosen for it.  On 8- and 16-bit
    cells numpy's stable sort is a radix sort, and the dedup compares one
    or two bytes per cell where int64 takes eight.

    The result does not depend on how distinct rows of equal multiplicity
    are ordered: an output's modal weight is the largest multiplicity among
    the rows showing it, and every row tied at that maximum gives the same
    weight.
    """
    import numpy as np

    table = task.table
    if table is None:
        raise TaskError("brute-force baseline requires a materialized table")
    x_count, y_count = table.shape
    # C order for the row view below: family_table builds knot tables in Fortran order
    cells = table.astype(np.min_scalar_type(int(table.max())), order="C")
    # one opaque item per row, so that np.unique finds the distinct rows
    row_items = cells.view(np.dtype((np.void, cells.itemsize * y_count)))
    _, first, counts = np.unique(row_items.ravel(), return_index=True, return_counts=True)
    # Identical inputs share every answer, so at a query the modal count of
    # an output is the largest multiplicity among distinct rows showing it.
    # With distinct rows in order of falling multiplicity, a stable sort of
    # each query's outputs puts that row first in its run of equal outputs.
    by_count = np.argsort(-counts, kind="stable")
    rows, weights = first[by_count], counts[by_count]
    cols_per_block = max(1, BRUTE_FORCE_BLOCK // len(rows))
    best = 0
    for lo in range(0, y_count, cols_per_block):
        block = cells[rows, lo : lo + cols_per_block].T  # one line per query
        order = np.argsort(block, axis=1, kind="stable")
        outputs = np.take_along_axis(block, order, axis=1)
        first_of_run = np.ones(outputs.shape, dtype=bool)
        first_of_run[:, 1:] = outputs[:, 1:] != outputs[:, :-1]
        modal_sums = np.where(first_of_run, weights[order], 0).sum(axis=1)
        best = max(best, int(modal_sums.max()))
    return Fraction(best, x_count)


def b_rand_closed_form(task: SfeTask) -> Fraction:
    """Per-family closed form of the single-query baseline."""
    if task.family is None:
        raise TaskError("closed-form baseline requires family parameters")
    return _FAMILIES[task.family.family].b_rand(**task.family.params)


def b_rand(task: SfeTask) -> Fraction:
    """Best available baseline: closed form when parametric, else brute force."""
    if task.family is not None:
        return b_rand_closed_form(task)
    return b_rand_bruteforce(task)


# ---------------------------------------------------------------------------
# JSON task files
#
# Explicit form:  {"name": str, "x_size": int, "y_size": int, "b_size": int,
#                  "table": [[int, ...], ...]}      (table[x][y] = f(x, y))
# Family form:    {"family": tag, "params": {...}}
# ---------------------------------------------------------------------------


def task_to_jsonable(task: SfeTask) -> dict:
    if task.family is not None:
        return {"family": task.family.family, "params": dict(task.family.params)}
    return {
        "name": task.name,
        "x_size": task.x_size,
        "y_size": task.y_size,
        "b_size": task.b_size,
        "table": task.table.tolist(),
    }


def task_from_jsonable(obj: dict) -> SfeTask:
    if not isinstance(obj, dict):
        raise TaskError("task document must be a JSON object")
    if "family" in obj:
        params = obj.get("params")
        if not isinstance(params, dict):
            raise TaskError("family task needs a 'params' object")
        return make_family(obj["family"], **params)
    try:
        name = obj["name"]
        x_size, y_size, b_size = obj["x_size"], obj["y_size"], obj["b_size"]
        table = obj["table"]
    except KeyError as exc:
        raise TaskError(f"malformed task document: {exc}") from exc
    return SfeTask(name=name, x_size=x_size, y_size=y_size, b_size=b_size, table=table)


def load_task(path: Union[str, Path]) -> SfeTask:
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TaskError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError as exc:  # json's decoder recurses once per level
            raise TaskError(f"task document in {path} is nested too deeply") from exc
    return task_from_jsonable(obj)


def dump_task(task: SfeTask, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(task_to_jsonable(task), handle, sort_keys=True)
        handle.write("\n")
