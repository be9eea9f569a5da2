"""Finite secure-function-evaluation tasks and black-box cheating baselines.

A task is a total function f : X x Y -> B between finite index sets, with
both inputs uniform and independent.  Tasks are either explicit tables or
members of one of six parametric families (oblivious-transfer variants,
equality, inner product, millionaire comparison) with closed-form
baselines.  A task is checked once, when it is built, and nothing
downstream re-checks: the SfeTask constructor checks an explicit table
with one function, ``_checked_table``, which also returns the final table,
and make_family builds a family task from its FamilySpec, the one record
its name, sizes, baseline and table derive from; validate_task has
nothing left to report.  A table is a read-only, C-contiguous numpy array
in the narrowest unsigned type that holds its largest cell, uint8 for
outputs below 256, and the brute-force baseline reads it as it is.  numpy
is imported inside the functions that build or read tables, so a family
task used through its closed forms (sizes and baseline) never loads it.  A
family task builds its table from the family formulas only when the table
is first read, and only up to MATERIALIZE_CAP cells, so bounds and curves,
which need only the closed-form baseline, never build one, and huge
parametric instances stay usable through their closed forms.

Every count the library takes, here and in the other modules, goes through
one rule, ``_integer``, over one range table, ``COUNT_RANGES``, whose caps
bound memory and whose entries the CLI's flags take as their own.  This
module loads no numpy for them, and every command imports it.
"""

from __future__ import annotations

import json
import operator
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

# cells of the distinct-row table that b_rand_bruteforce scatters or sorts
# at once, one query's column at least; bounds its temporaries, the
# scatter's slots included, whatever the table's shape
BRUTE_FORCE_BLOCK = 1 << 16


# library count -> (least, most) value it accepts, None for no bound.  The
# caps bound memory: a die-rolling run holds two int64 arrays of its trials,
# 16 bytes a trial (1.6 GB at the cap); a curve row holds about 200 bytes
# until the CSV is written (1.0 GB peak RSS); campaign records stay in
# memory, 0.7-2.4 KB an instance (0.5 GB).  The measurements layer is
# written for dimensions up to 16.
COUNT_RANGES = {
    "instances": (0, 10**5),
    "max_dim": (2, 16),
    "trials": (1, 10**8),
    "samples": (2, 5 * 10**6),
    "seed": (0, None),
}


def _integer(name: str, value, least: Optional[int] = None, most: Optional[int] = None) -> int:
    """The one integer rule of the library: ``value`` as a Python int when it
    is an Integral (a numpy integer included) that is not a bool and lies
    from ``least`` to ``most``, the ends that are not None; else ValueError
    naming ``name``.  Refused, by the first rule it breaks, with ``max_dim
    must be an integer, got 2.5``, ``... at least 2, got 1`` or ``... at
    most 16, got 17``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return value


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


# Every family's table has distinct rows and b_size <= x_size, which
# b_rand_bruteforce trusts instead of deduplicating the rows.  Rows x != x'
# differ at some query, in the index conventions of family_table:
#   ot   : at a component j where they differ, which query j reads; w <= w**n.
#   knot : at a position j where they differ, packed by every k-subset holding j;
#          w**k <= w**n.
#   xot  : at query 0 (x1) or query 1 (x2); 2**n <= 4**n.
#   eq   : at y = x, where only row x shows 1 (X = Y); 2 <= n.
#   ip   : at y = 2**i - 1 (the string with bit i alone) for a bit i where they
#          differ; 2 <= 2**n.
#   mp   : at y = min(x, x') <= n - 2, where only the poorer shows 1; 2 <= n.
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


class _FamilyFields(NamedTuple):
    family: str
    params: dict


class FamilySpec(_FamilyFields):
    """Parametric family descriptor: a tag from FAMILY_TAGS plus int params.

    ``__new__`` is the one place family parameters are checked, for
    ``_replace`` too: it keeps its own copy of ``params``, each a Python
    int of at least 1 by ``_integer`` (a numpy integer included, a bool
    not), and raises TaskError on any the family refuses.
    """

    __slots__ = ()

    def __new__(cls, family: str, params: dict):
        if family not in FAMILY_TAGS:
            raise TaskError(f"unknown family tag {family!r}")
        params = dict(params)
        kind = _FAMILIES[family]
        if set(params) != set(kind.keys):
            raise TaskError(
                f"family {family!r} takes parameters {kind.keys}, got {tuple(params)}"
            )
        for key, value in params.items():
            try:
                params[key] = _integer(key, value, 1)
            except ValueError:
                raise TaskError(f"parameter {key}={value!r} must be a positive integer") from None
        if kind.rule is not None and not kind.rule[0](**params):
            raise TaskError(kind.rule[1])
        if kind.bits is not None and kind.bits(**params) > MAX_SIZE_BITS:
            named = ", ".join(f"{key}={params[key]}" for key in kind.keys)
            raise TaskError(
                f"family {family!r} with {named} is too large: "
                f"its sizes are capped at 2**{MAX_SIZE_BITS}"
            )
        return super().__new__(cls, family, params)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def name(self) -> str:
        return _FAMILIES[self.family].name.format(**self.params)

    @property
    def sizes(self) -> tuple[int, int, int]:  # (x_size, y_size, b_size)
        return _FAMILIES[self.family].sizes(**self.params)


class SfeTask:
    """A finite SFE instance with uniform, independent inputs.

    The constructor takes an explicit ``table``; make_family builds a
    family task, whose ``family`` is its FamilySpec (None for an explicit
    table) and whose name and sizes are the spec's.  ``table[x, y]`` holds
    the output index f(x, y) in a read-only, C-contiguous 2-D array of the
    narrowest unsigned type that holds its largest cell (``_unsigned``).
    An explicit table is converted from any nested sequence of integers
    by ``_checked_table``, checked in its own integer type (int64 for
    lists), and only then narrowed, so the cast is exact.  A family task
    within MATERIALIZE_CAP builds its table from the family formulas on
    the first read of ``table`` and keeps it; above the cap ``table`` is
    None and the task answers closed-form queries only, its sizes and
    baseline.

    The constructor is the one place an explicit task is checked, and it
    sets the table once: sizes that are not integers of at least 1 by
    ``_integer``, checked first, then a table that is not a sequence of
    rows, a row count other than x_size, ragged rows, missing or
    non-integer cells, cells outside [0, b_size) or int64, and tables
    above MATERIALIZE_CAP raise TaskError, so a task that exists is valid.
    Sizes are kept as Python ints, whatever integer type they came in.
    Tasks are immutable; every operation on them is pure.  Family tasks
    compare equal by their specs, explicit tasks by name, sizes and table
    contents.
    """

    def __init__(self, name: str, x_size: int, y_size: int, b_size: int, table):
        sizes = {"x_size": x_size, "y_size": y_size, "b_size": b_size}
        for key, value in sizes.items():
            try:
                sizes[key] = _integer(key, value, 1)
            except ValueError:
                raise TaskError(f"{key}={value!r} must be a positive integer") from None
        table = _checked_table(table, *sizes.values())
        self.__dict__.update(sizes, name=name, family=None, _table=table)

    def __setattr__(self, key, value):
        raise AttributeError(f"SfeTask is immutable: cannot set {key!r}")

    def __eq__(self, other):
        if not isinstance(other, SfeTask):
            return NotImplemented
        if self.family is not None or other.family is not None:  # a spec derives the rest
            return self.family == other.family
        if (self.name, self.x_size, self.y_size, self.b_size) != (
            other.name, other.x_size, other.y_size, other.b_size
        ):
            return False
        import numpy as np

        return np.array_equal(self._table, other._table)

    @property
    def materialized(self) -> bool:
        return self.family is None or self.x_size * self.y_size <= MATERIALIZE_CAP

    @property
    def table(self) -> Optional[np.ndarray]:
        if self._table is None and self.materialized:  # a family task within the cap
            self.__dict__["_table"] = family_table(self.family)
        return self._table


def _check_cap(cells: int) -> None:
    if cells > MATERIALIZE_CAP:
        raise TaskError(
            f"table of {cells} cells is above the materialization cap {MATERIALIZE_CAP}"
        )


def _unsigned(top: int) -> np.dtype:
    """The narrowest unsigned type that holds every integer in [0, top]:
    that of a table whose largest cell is ``top``, and of the index arrays
    family_table builds one from."""
    import numpy as np

    return np.min_scalar_type(top)


def _checked_table(raw, x_size: int, y_size: int, b_size: int) -> np.ndarray:
    """``raw`` as the table of an explicit task of these sizes, or TaskError
    naming every violation: the one check of an explicit table.

    numpy converts ``raw`` into a private copy the caller cannot write to,
    and an integer array keeps its type, so a table of bytes is checked in
    bytes.  A 2-D integer table is accepted by its shape and its minimum
    and maximum alone; every cell then lies in [0, b_size), so the cast to
    ``_unsigned`` of its largest cell is exact.  For one that is refused,
    numpy finds the rows to report, and ``_row_violations`` walks only
    those, in the order and words of ``_cell_violations``.  Anything else,
    a uint64 array with a cell of 2**63 or more included, goes to
    ``_cell_violations``, as any table beyond int64 does.  Both caps apply:
    to the sizes, then to the table numpy built.
    """
    import numpy as np

    _check_cap(x_size * y_size)
    try:
        table = np.array(raw)
    except (ValueError, TypeError, OverflowError):  # e.g. ragged rows
        table = None
    if table is not None and table.dtype == np.uint64 and table.size and int(table.max()) >= 2**63:
        table = None
    if table is None or table.dtype.kind not in "biu" or table.ndim != 2:
        violations = _cell_violations(raw, x_size, y_size, b_size)
        raise TaskError("; ".join(violations) or "table must be a 2-D array of integers")
    _check_cap(table.size)
    shape_ok = table.shape == (x_size, y_size)
    if shape_ok and int(table.min()) >= 0 and (top := int(table.max())) < b_size:
        table = table.astype(_unsigned(top), order="C", copy=False)
        table.flags.writeable = False
        return table
    if table.shape[1] != y_size:
        rows = range(len(table))  # each row has the wrong length
    else:  # only a row with a cell out of range has something to report
        high = min(b_size - 1, 2**63 - 1)  # cells above 2**63 - 1 went to _cell_violations
        rows = ((table < 0) | (table > high)).any(axis=1).nonzero()[0].tolist()
    # Python ints, which print as 5 where numpy's print as np.int64(5), and bools as 1
    numbered = ((x, table[x].astype(np.int64).tolist()) for x in rows)
    raise TaskError("; ".join(_row_violations(len(table), numbered, x_size, y_size, b_size)))


def _cell_violations(raw, x_size: int, y_size: int, b_size: int) -> list[str]:
    """Cell-by-cell report of a bad table: its row count, then each row that
    is not a sequence or not y_size long, and each cell that is missing,
    not an integer in [0, b_size), or beyond int64, in row-major order.

    The reporter for tables numpy cannot take as 2-D integers; its per-row
    part, ``_row_violations``, words every message, also for the integer
    tables ``_checked_table`` refuses, and walks only the rows ``_clean_row``
    does not pass.  Both run only on the error path.  Integral covers
    numpy's integer scalars, which numpy registers with it.
    """
    try:
        rows = list(raw)
    except TypeError:
        return ["table must be a sequence of rows"]
    numbered = ((x, row) for x, row in enumerate(rows) if not _clean_row(row, y_size, b_size))
    return _row_violations(len(rows), numbered, x_size, y_size, b_size)


def _clean_row(row, y_size: int, b_size: int) -> bool:
    """Whether ``row`` is a sequence of y_size Python ints in [0, b_size)
    and within int64, which ``_row_violations`` has nothing to report on;
    checked in C loops."""
    try:
        cells = list(row)
    except TypeError:
        return False
    return (
        len(cells) == y_size
        and set(map(type, cells)) == {int}
        and min(cells) >= 0
        and max(cells) < min(b_size, 2**63)
    )


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
            elif b >= 2**63:  # in range, but no int64 holds it
                violations.append(f"entry {b!r} at ({x}, {y}) outside int64")
    return violations


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


def family_table(spec: FamilySpec) -> np.ndarray:
    """The whole table of a family task, f(x, y) at every cell.

    Built with array formulas in the index conventions above, in narrow
    types from the start: the inputs in ``_unsigned(x_size - 1)``, which
    also holds every y that eq and mp compare with them and every y + 1 of
    ip, and the cells in ``_unsigned(b_size - 1)``, the type of the
    family's largest output.
    Arrays meet only numpy scalars or arrays of their own type, never a
    Python int, so numpy's promotion rules, old or new, widen none of
    them.  Returned read-only and C-contiguous.  The caller keeps
    x_size * y_size within MATERIALIZE_CAP.
    """
    import numpy as np

    p = spec.params
    tag = spec.family
    x_size, y_size, b_size = spec.sizes
    index = _unsigned(x_size - 1)
    cell = _unsigned(b_size - 1)
    x = np.arange(x_size, dtype=index)
    if tag in ("ot", "knot"):
        w, n = p["alphabet"], p["n"]
        digits = np.empty((x_size, n), dtype=cell)  # digits[x, j]: component j of x
        for j in range(n - 1, 0, -1):  # least significant first; w fits the index type when n > 1
            digits[:, j] = x % index.type(w)
            x //= index.type(w)
        digits[:, 0] = x
        table = digits
        if tag == "knot":
            # combinations() yields k-subsets in lexicographic order, the rank order
            subsets = np.array(list(combinations(range(n), p["k"])), dtype=np.intp)
            table = digits.take(subsets[:, 0], axis=1)
            for j in range(1, p["k"]):
                table *= cell.type(w)  # fits: w <= w**k - 1 when k > 1, unless w = 1
                table += digits.take(subsets[:, j], axis=1)
    elif tag == "xot":
        n = p["n"]
        x1 = (x >> index.type(n)).astype(cell)
        x2 = (x & index.type((1 << n) - 1)).astype(cell)
        table = np.stack([x1, x2, x1 ^ x2], axis=1)
    elif tag == "eq":
        table = (x[:, None] == np.arange(y_size, dtype=index)).view(np.uint8)
    elif tag == "ip":
        y = np.arange(1, y_size + 1, dtype=index)  # the nonzero string y + 1 of each y
        odd = np.zeros((x_size, y_size), dtype=bool)
        for bit in range(p["n"]):  # the parity of x & (y + 1), one shared bit at a time
            mask = index.type(1 << bit)
            odd ^= (x & mask).astype(bool)[:, None] & (y & mask).astype(bool)
        table = odd.view(np.uint8)
    else:  # "mp"
        table = (np.arange(y_size, dtype=index) >= x[:, None]).view(np.uint8)
    table.flags.writeable = False
    return table


def make_family(family: str, **params: int) -> SfeTask:
    """Construct a parametric task; its table is built on the first read.

    Raises TaskError on parameters FamilySpec refuses.  The task takes its
    name and sizes from the checked spec, without the SfeTask constructor,
    whose checks are for explicit tables.
    """
    spec = FamilySpec(family, params)
    task = object.__new__(SfeTask)  # the spec is checked, and derives everything else
    sizes = zip(("x_size", "y_size", "b_size"), spec.sizes)
    task.__dict__.update(sizes, name=spec.name, family=spec, _table=None)
    return task


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_task(task: SfeTask) -> list[str]:
    """The violations of ``task``: always none, as a list.

    Every task is checked when it is built: an explicit table by the
    SfeTask constructor, which raises TaskError on any violation, and a
    family task by its FamilySpec, whose table family_table builds to its
    sizes with every cell in [0, b_size).  So every task that exists
    passes, and nothing is read here.
    """
    return []


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

    Identical inputs share every answer, so at a query the modal count of
    an output is the largest multiplicity among the distinct rows showing
    it, and the query's success is the sum of these over its outputs.  A
    family table has distinct rows by construction (the proofs are at
    _FAMILIES), so only an explicit table is deduplicated.  That runs on the
    task's own table, read as it is: it is C-contiguous, so each row is one
    opaque item, and in the narrowest unsigned type that holds its largest
    cell, so the dedup compares one byte per cell when every output is
    below 256.

    The modal counts are then found one of three ways, chosen once per
    table from its output range (largest cell + 1) and its count of
    distinct rows:

    - every row distinct, and the output range no larger than the rows, as
      in every family table: every row has multiplicity 1, so every modal
      count a query shows is 1 and no weight is needed.  A block of
      queries is read in place, one bool slot per (output, query) pair is
      set where a row shows that output at that query, and a query's modal
      sum is its count of set slots.  There is no gather of rows and no
      scatter of counts.
    - some rows repeated, and the output range no larger than the
      distinct rows: a block of queries gets one int64 slot per (output,
      query) pair, and one ``np.maximum.at`` writes each distinct row's
      multiplicity into the slot of each of its (output, query) cells.  A
      slot then holds the largest multiplicity among the rows showing its
      output at its query, whatever order the maximum visits them in, so
      each query's slots sum to its modal sum exactly.  In both slot cases
      the slots number the output range times the block's queries, no more
      than the block's cells.
    - an output range larger than the distinct rows: the slots would grow
      with the output range, up to 2**63 outputs, so each query's outputs
      are sorted instead.  With distinct rows in order of falling
      multiplicity, a stable sort puts the row of largest multiplicity
      first in each run of equal outputs; on 8- and 16-bit cells numpy's
      stable sort is a radix sort.  Distinct rows of equal multiplicity may
      come in any order: every row tied at the maximum gives the same
      weight.

    The scatter's speed rests on numpy's indexed loop for ``ufunc.at``.  It
    has been timed on numpy 2.4 only; on older releases down to the
    declared floor, numpy 1.24, it is unmeasured.
    """
    import numpy as np

    table = task.table
    if table is None:
        raise TaskError("brute-force baseline requires a materialized table")
    x_count, y_count = table.shape
    top = int(table.max())
    if task.family is None:
        # one opaque item per row, so that np.unique finds the distinct rows
        row_items = table.view(np.dtype((np.void, table.itemsize * y_count)))
        _, first, counts = np.unique(row_items.ravel(), return_index=True, return_counts=True)
        row_count = len(first)
    else:  # distinct rows, and no more outputs than rows: see _FAMILIES
        row_count = x_count
    cols_per_block = max(1, BRUTE_FORCE_BLOCK // row_count)
    best = 0
    if top < row_count:  # output range within the distinct rows: slots
        levels = top + 1
        distinct = row_count == x_count
        # one line per distinct row: the table itself, read in place, when no row repeats
        rows = slice(None) if distinct else first
        for lo in range(0, y_count, cols_per_block):
            block = table[rows, lo : lo + cols_per_block]
            width = block.shape[1]
            keys = np.multiply(block, width, dtype=np.intp)  # slot output * width + query
            keys += np.arange(width)
            if distinct:  # every modal count is 1: mark the slots shown
                shown = np.zeros(levels * width, dtype=bool)
                shown[keys.ravel()] = True
                modal_sums = shown.reshape(levels, width).sum(axis=0)
            else:
                slots = np.zeros(levels * width, dtype=np.int64)
                np.maximum.at(slots, keys.ravel(), np.repeat(counts, width))
                modal_sums = slots.reshape(levels, width).sum(axis=0)
            best = max(best, int(modal_sums.max()))
        return Fraction(best, x_count)
    by_count = np.argsort(-counts, kind="stable")
    rows, weights = first[by_count], counts[by_count]
    for lo in range(0, y_count, cols_per_block):
        block = table[rows, lo : lo + cols_per_block].T  # one line per query
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

