import hashlib
import itertools
import json
import pickle
import random
import warnings
from collections import defaultdict
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from family_reference import family_value
from sfebounds import tasks
from sfebounds.tasks import (
    MATERIALIZE_CAP,
    MAX_SIZE_BITS,
    FamilySpec,
    SfeTask,
    TaskError,
    a_rand,
    b_rand_bruteforce,
    b_rand_closed_form,
    make_family,
    validate_task,
)

ALL_FAMILY_INSTANCES = [
    ("ot", dict(alphabet=2, n=2)),
    ("ot", dict(alphabet=2, n=3)),
    ("ot", dict(alphabet=3, n=2)),
    ("ot", dict(alphabet=2, n=4)),
    ("knot", dict(alphabet=2, n=3, k=2)),
    ("knot", dict(alphabet=2, n=4, k=2)),
    ("knot", dict(alphabet=2, n=4, k=3)),
    ("knot", dict(alphabet=3, n=4, k=2)),
    ("xot", dict(n=1)),
    ("xot", dict(n=2)),
    ("eq", dict(n=3)),
    ("eq", dict(n=5)),
    ("ip", dict(n=2)),
    ("ip", dict(n=3)),
    ("mp", dict(n=4)),
    ("mp", dict(n=10)),
]


def random_table_task(x_size, y_size, b_size, seed, name="random"):
    rng = np.random.default_rng(seed)
    table = tuple(
        tuple(int(v) for v in row) for row in rng.integers(0, b_size, size=(x_size, y_size))
    )
    return SfeTask(name=name, x_size=x_size, y_size=y_size, b_size=b_size, table=table)


def dict_loop_b_rand(task):
    """Reference: the row-id and per-query dictionary version of
    b_rand_bruteforce, one Python step per (query, row) pair."""
    table = [tuple(row) for row in task.table.tolist()]
    row_ids: dict[tuple[int, ...], int] = {}
    ids = [row_ids.setdefault(row, len(row_ids)) for row in table]
    best = 0
    for ystar in range(task.y_size):
        counts: dict[tuple[int, int], int] = defaultdict(int)
        for x in range(task.x_size):
            counts[(table[x][ystar], ids[x])] += 1
        modal: dict[int, int] = defaultdict(int)
        for (b, _), cnt in counts.items():
            if cnt > modal[b]:
                modal[b] = cnt
        best = max(best, sum(modal.values()))
    return Fraction(best, task.x_size)


@st.composite
def tables_with_repeated_rows(draw):
    """Random tables whose rows come from a smaller pool, so rows repeat."""
    x_size = draw(st.integers(1, 14))
    y_size = draw(st.integers(1, 14))
    b_size = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, b_size - 1), min_size=y_size, max_size=y_size)
    pool = draw(st.lists(row, min_size=1, max_size=x_size))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=x_size, max_size=x_size))
    return SfeTask("random", x_size, y_size, b_size, table=[pool[i] for i in picks])


def exhaustive_single_query_value(task):
    """Independent oracle: enumerate every deterministic single-query
    strategy (query, observation -> guessed answer tuple) outright."""
    all_vectors = list(itertools.product(range(task.b_size), repeat=task.y_size))
    best = Fraction(0)
    for ystar in range(task.y_size):
        for mapping in itertools.product(all_vectors, repeat=task.b_size):
            wins = sum(
                1
                for x in range(task.x_size)
                if mapping[int(task.table[x, ystar])] == tuple(task.table[x].tolist())
            )
            best = max(best, Fraction(wins, task.x_size))
    return best


class TestConstructors:
    def test_xot_n1_table_matches_definition(self):
        task = make_family("xot", n=1)
        assert (task.x_size, task.y_size, task.b_size) == (4, 3, 2)
        for x in range(4):
            x1, x2 = x >> 1, x & 1
            assert int(task.table[x, 0]) == x1
            assert int(task.table[x, 1]) == x2
            assert int(task.table[x, 2]) == x1 ^ x2

    def test_millionaire_huge_is_parametric_only(self):
        task = make_family("mp", n=10**9)
        assert not task.materialized and task.table is None
        assert task.y_size == 10**9 - 1
        # poorest sender: any receiver is at least as rich
        assert family_value(task.family, 0, 0) == 1
        assert family_value(task.family, 10**9 - 1, 10**9 - 2) == 0

    def test_equality_n2_full_learning(self):
        task = make_family("eq", n=2)
        assert b_rand_bruteforce(task) == 1
        assert b_rand_closed_form(task) == 1

    def test_ot_component_convention(self):
        task = make_family("ot", alphabet=3, n=2)
        # x = 3*x_0 + x_1 with component 0 most significant
        assert int(task.table[5, 0]) == 1 and int(task.table[5, 1]) == 2

    def test_knot_subsets_lexicographic(self):
        task = make_family("knot", alphabet=2, n=4, k=2)
        assert task.y_size == 6
        # y=0 is subset {0,1}: for x = 0b1000 the packed output is (1,0) -> 2
        x = 0b1000
        assert int(task.table[x, 0]) == 2

    def test_ip_skips_zero_string(self):
        task = make_family("ip", n=2)
        assert task.y_size == 3
        # y index 0 stands for string 01
        assert int(task.table[0b01, 0]) == 1
        assert int(task.table[0b10, 0]) == 0

    def test_mp_comparison(self):
        task = make_family("mp", n=4)
        for x in range(4):
            for y in range(3):
                assert int(task.table[x, y]) == int(y >= x)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("knot", dict(alphabet=2, n=3, k=3)),
            ("knot", dict(alphabet=2, n=3, k=4)),
            ("eq", dict(n=1)),
            ("mp", dict(n=1)),
            ("ot", dict(alphabet=0, n=2)),
            ("ot", dict(alphabet=2, n=-1)),
            ("ot", dict(alphabet=2, n=True)),
            ("eq", dict(n=False)),
            ("knot", dict(alphabet=2, n=4, k=4)),
            ("ot", {"alphabet": "2", "n": 2}),
            ("eq", dict(n=np.int64(1))),
            ("eq", dict(n=np.int64(0))),
            ("eq", dict(n=np.float64(3))),
            ("eq", dict(n=np.bool_(True))),
            ("ot", dict(alphabet=2, n=MAX_SIZE_BITS + 1)),
            ("ot", dict(alphabet=3, n=MAX_SIZE_BITS // 2 + 1)),
            ("ot", dict(alphabet=2**MAX_SIZE_BITS + 1, n=1)),
            ("ot", dict(alphabet=2, n=10**20)),
            ("knot", dict(alphabet=2, n=10**20, k=1)),
            ("knot", dict(alphabet=1, n=MAX_SIZE_BITS + 1, k=MAX_SIZE_BITS // 2)),
            ("xot", dict(n=MAX_SIZE_BITS // 2 + 1)),
            ("ip", dict(n=10**11)),
        ],
    )
    def test_invalid_parameters_rejected(self, family, params):
        with pytest.raises(TaskError) as built:
            make_family(family, **params)
        # a spec built by hand is checked the same way, with the same message
        with pytest.raises(TaskError) as spec:
            FamilySpec(family, params)
        assert str(spec.value) == str(built.value)

    @pytest.mark.parametrize(
        "family,params,sizes",
        [
            ("ot", dict(alphabet=2, n=MAX_SIZE_BITS), (2**MAX_SIZE_BITS, MAX_SIZE_BITS, 2)),
            ("ot", dict(alphabet=1, n=10**20), (1, 10**20, 1)),
            ("knot", dict(alphabet=4, n=MAX_SIZE_BITS // 2, k=1), (2**MAX_SIZE_BITS, 7000, 4)),
            ("xot", dict(n=MAX_SIZE_BITS // 2), (2**MAX_SIZE_BITS, 3, 2 ** (MAX_SIZE_BITS // 2))),
            ("ip", dict(n=MAX_SIZE_BITS), (2**MAX_SIZE_BITS, 2**MAX_SIZE_BITS - 1, 2)),
            ("mp", dict(n=10**100), (10**100, 10**100 - 1, 2)),
        ],
    )
    def test_sizes_up_to_the_cap_accepted(self, family, params, sizes):
        task = make_family(family, **params)
        assert (task.x_size, task.y_size, task.b_size) == sizes

    def test_size_cap_names_the_parameters(self):
        with pytest.raises(TaskError) as refused:
            FamilySpec("knot", {"n": 10**20, "k": 1, "alphabet": 2})
        assert str(refused.value) == (
            "family 'knot' with alphabet=2, n=100000000000000000000, k=1 is too large: "
            "its sizes are capped at 2**14000"
        )

    def test_spec_keeps_its_own_params(self):
        params = {"n": 5}
        spec = FamilySpec("eq", params)
        params["n"] = 1
        assert spec.params == {"n": 5}
        assert make_family("eq", n=5).family == spec

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_params_become_python_ints(self, integer):
        task = make_family("ot", alphabet=integer(2), n=integer(3))
        assert task == make_family("ot", alphabet=2, n=3)
        assert {type(v) for v in task.family.params.values()} == {int}
        assert repr(task.family) == "FamilySpec(family='ot', params={'alphabet': 2, 'n': 3})"
        assert (task.name, task.x_size, task.y_size, task.b_size) == ("1-of-3 OT (alphabet 2)", 8, 3, 2)

    def test_spec_is_a_named_tuple_built_through_its_checks(self):
        spec = FamilySpec("eq", {"n": 5})
        assert repr(spec) == "FamilySpec(family='eq', params={'n': 5})"
        assert spec == ("eq", {"n": 5})
        assert spec._asdict() == {"family": "eq", "params": {"n": 5}}
        assert spec._replace(params={"n": 6}) == FamilySpec("eq", {"n": 6})
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(TaskError, match="^family 'eq' requires n >= 2$"):
            spec._replace(params={"n": 1})
        with pytest.raises(TaskError, match="^unknown family tag 'nope'$"):
            FamilySpec._make(("nope", {}))
        with pytest.raises(AttributeError):
            spec.family = "mp"

    @pytest.mark.parametrize(
        "family,params,name,sizes",
        [  # recorded from the per-family code these records replaced
            ("ot", dict(alphabet=3, n=4), "1-of-4 OT (alphabet 3)", (81, 4, 3)),
            ("knot", dict(alphabet=2, n=5, k=3), "3-of-5 OT (alphabet 2)", (32, 10, 8)),
            ("xot", dict(n=3), "XOR OT (3-bit strings)", (64, 3, 8)),
            ("eq", dict(n=7), "equality (n=7)", (7, 7, 2)),
            ("ip", dict(n=4), "inner product (n=4)", (16, 15, 2)),
            ("mp", dict(n=9), "millionaire (n=9)", (9, 8, 2)),
        ],
    )
    def test_names_and_sizes(self, family, params, name, sizes):
        task = make_family(family, **params)
        assert task.name == name
        assert (task.x_size, task.y_size, task.b_size) == sizes

    def test_unknown_family_rejected(self):
        with pytest.raises(TaskError):
            make_family("nope", n=3)

    def test_wrong_parameter_names_rejected(self):
        with pytest.raises(TaskError):
            make_family("eq", n=3, alphabet=2)

    def test_materialization_cap_respected(self):
        small = make_family("eq", n=1000)
        assert small.materialized and small.x_size * small.y_size == 10**6
        assert small.x_size * small.y_size <= MATERIALIZE_CAP
        big = make_family("ot", alphabet=2, n=40)
        assert not big.materialized

    @pytest.mark.parametrize(
        "sizes,shape", [((1001, 1000), (1, 1)), ((1, 1), (1001, 1000))], ids=["declared", "actual"]
    )
    def test_explicit_table_above_cap_rejected(self, sizes, shape):
        with pytest.raises(TaskError, match="above the materialization cap"):
            SfeTask("big", *sizes, 2, table=np.zeros(shape, dtype=np.int64))

    def test_table_is_read_only_uint8(self):
        task = make_family("ot", alphabet=3, n=2)
        assert task.table.dtype == np.uint8 and task.table.shape == (9, 2)
        assert not task.table.flags.writeable
        assert tuple(task.table[5].tolist()) == (1, 2)

    def test_hand_built_table_is_a_private_copy(self):
        rows = np.zeros((2, 2), dtype=np.int64)
        task = SfeTask("copy", 2, 2, 2, table=rows)
        rows[0, 0] = 1
        assert int(task.table[0, 0]) == 0 and not task.table.flags.writeable

    @pytest.mark.parametrize("top", [2**32, 2**63 - 1])
    def test_a_wide_table_builds_a_task_again(self, top):
        # a table narrowed to uint64, which numpy cannot cast to int64 safely
        task = SfeTask("wide", 2, 2, top + 1, table=[[0, top], [top, 1]])
        assert task.table.dtype == np.uint64
        assert SfeTask("wide", 2, 2, top + 1, table=task.table) == task
        # a uint64 cell beyond int64 is still refused, by name
        with pytest.raises(TaskError) as refused:
            SfeTask("wider", 1, 1, 2**70, table=np.array([[2**63]], dtype=np.uint64))
        assert str(refused.value) == f"entry np.uint64({2**63}) at (0, 0) outside int64"

    @pytest.mark.parametrize("cell", [2**63, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("b_size", [2**64, 2**70])
    def test_a_list_cell_beyond_int64_is_named(self, cell, b_size):
        # numpy builds the first two as uint64, the third as objects; a cell
        # in range is refused for int64, one out of range for the range
        with pytest.raises(TaskError) as refused:
            SfeTask("wider", 2, 2, b_size, table=[[0, 1], [cell, 1]])
        limit = "int64" if cell < b_size else f"[0, {b_size})"
        assert str(refused.value) == f"entry {cell} at (1, 0) outside {limit}"

    def test_a_table_of_bytes_is_checked_in_bytes(self):
        # widened to int64 for the checks, this 1 MB table peaked at 9 MB
        table = np.random.default_rng(3).integers(0, 4, size=(1000, 1000), dtype=np.uint8)
        SfeTask("bytes", 1000, 1000, 4, table)  # warm-up: numpy's first calls allocate
        assert traced_peak(SfeTask, "bytes", 1000, 1000, 4, table) < 3 * 10**6
        assert np.array_equal(SfeTask("bytes", 1000, 1000, 4, table).table, table)

    @pytest.mark.parametrize(
        "dtype", [bool, np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.uint64]
    )
    @pytest.mark.parametrize("b_size", [1, 2, 3, 300])
    def test_a_typed_table_builds_or_is_refused_as_its_lists_are(self, dtype, b_size):
        table = np.array([[0, 1, 2], [200, 1, 0]]).astype(dtype)
        if dtype in (np.int8, np.int16, np.int32):
            table[1, 2] = -1

        def built(raw):
            try:
                task = SfeTask("typed", 2, 3, b_size, table=raw)
            except TaskError as exc:
                return str(exc)
            return task.table.dtype, task.table.tolist()

        assert built(table) == built(table.tolist())

    @pytest.mark.parametrize("size", [np.int64(2), np.int32(2), 2])
    def test_integer_sizes_accepted(self, size):
        task = SfeTask("t", size, size, size, table=[[0, 1], [1, 0]])
        sizes = (task.x_size, task.y_size, task.b_size)
        assert sizes == (2, 2, 2) and {type(v) for v in sizes} == {int}
        assert int(task.table[1, 0]) == 1

    @pytest.mark.parametrize("size", [True, 2.0, "2", np.float64(2), np.bool_(True)])
    def test_non_integer_sizes_refused(self, size):
        with pytest.raises(TaskError, match=r"^x_size=.* must be a positive integer$"):
            SfeTask("t", size, 2, 2, table=[[0, 1], [1, 0]])

    @pytest.mark.parametrize(
        "sizes, table, text",
        [
            # the product of two negative sizes is above the materialization cap
            ((-(10**7), -1, 2), [[0, 1]], "x_size=-10000000 must be a positive integer"),
            # an empty table is no 2-D array
            ((0, 2, 2), [], "x_size=0 must be a positive integer"),
        ],
    )
    def test_sizes_below_one_refused_before_the_table(self, sizes, table, text):
        with pytest.raises(TaskError) as raised:
            SfeTask("t", *sizes, table=table)
        assert str(raised.value) == text

    def test_tasks_are_immutable(self):
        task = make_family("eq", n=3)
        with pytest.raises(AttributeError, match=r"^SfeTask is immutable: cannot set 'name'$"):
            setattr(task, "name", "x")
        assert task.name != "x"

    def test_equality_compares_table_contents(self):
        first = SfeTask("t", 2, 2, 2, table=((0, 1), (1, 0)))
        assert first == SfeTask("t", 2, 2, 2, table=[[0, 1], [1, 0]])
        assert first != SfeTask("t", 2, 2, 2, table=((0, 1), (1, 1)))
        assert first != SfeTask("u", 2, 2, 2, table=((0, 1), (1, 0)))  # the name alone
        assert (first == 5) is False
        with pytest.raises(TaskError, match="^table must be a sequence of rows$"):
            SfeTask("t", 2, 2, 2, table=None)
        assert make_family("eq", n=4) == make_family("eq", n=4) != make_family("eq", n=5)
        family = make_family("eq", n=2)  # differs from an explicit task of its own table
        assert family != SfeTask(family.name, 2, 2, 2, table=family.table)


SMALL_FAMILY_PARAMS = st.one_of(
    st.tuples(
        st.just("ot"),
        st.fixed_dictionaries({"alphabet": st.integers(1, 4), "n": st.integers(1, 6)}),
    ),
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just("knot"),
            st.fixed_dictionaries(
                {"alphabet": st.integers(1, 3), "n": st.just(n), "k": st.integers(1, n - 1)}
            ),
        )
    ),
    st.tuples(st.just("xot"), st.fixed_dictionaries({"n": st.integers(1, 4)})),
    st.tuples(st.just("eq"), st.fixed_dictionaries({"n": st.integers(2, 30)})),
    st.tuples(st.just("ip"), st.fixed_dictionaries({"n": st.integers(1, 6)})),
    st.tuples(st.just("mp"), st.fixed_dictionaries({"n": st.integers(2, 30)})),
)


class TestFamilyTables:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(SMALL_FAMILY_PARAMS)
    def test_array_table_equals_pointwise_formula(self, family_and_params):
        family, params = family_and_params
        task = make_family(family, **params)
        table = task.table  # built by family_table on this first read
        # what lets a family task skip the table checks of an explicit one
        assert table.shape == (task.x_size, task.y_size)
        assert table.dtype == np.uint8 == np.min_scalar_type(task.b_size - 1)
        assert table.flags.c_contiguous and not table.flags.writeable
        assert 0 <= table.min() and table.max() < task.b_size
        expected = [
            [family_value(task.family, x, y) for y in range(task.y_size)]
            for x in range(task.x_size)
        ]
        assert table.tolist() == expected
        assert validate_task(task) == []
        assert b_rand_bruteforce(task) == b_rand_closed_form(task)

    @pytest.mark.parametrize(
        "family,params,dtype",
        [
            ("ot", dict(alphabet=256, n=1), np.uint8),  # an alphabet beyond the inputs' uint8
            ("ot", dict(alphabet=1, n=300), np.uint8),  # queries beyond the inputs' uint8
            ("ot", dict(alphabet=300, n=2), np.uint16),
            ("ot", dict(alphabet=70000, n=1), np.uint32),
            ("knot", dict(alphabet=17, n=3, k=2), np.uint16),
            ("xot", dict(n=9), np.uint16),  # inputs in uint32
        ],
    )
    def test_wide_family_tables_equal_pointwise_formula(self, family, params, dtype):
        task = make_family(family, **params)
        table = task.table
        assert table.dtype == dtype and table.flags.c_contiguous
        rng = np.random.default_rng(0)
        drawn = rng.choice(task.x_size, size=min(task.x_size, 200), replace=False)
        rows = sorted({0, task.x_size - 1, *drawn.tolist()})
        expected = [[family_value(task.family, x, y) for y in range(task.y_size)] for x in rows]
        assert table[rows].tolist() == expected

    @pytest.mark.parametrize(
        "family,params",
        [
            ("knot", dict(alphabet=3, n=8, k=2)),
            ("ot", dict(alphabet=2, n=14)),
            ("mp", dict(n=700)),
            ("ip", dict(n=9)),
            ("xot", dict(n=8)),
            ("mp", dict(n=1000)),
        ],
    )
    def test_family_build_peaks_below_eight_bytes_a_cell(self, family, params):
        task = make_family(family, **params)
        peak = traced_peak(lambda: task.table)  # the first read builds the table
        assert peak < 8 * task.x_size * task.y_size


@st.composite
def list_tables(draw):
    """Small list tables: mostly rows of y_size cells in range, with ragged
    and non-sequence rows and None, float, str, bool, numpy and
    out-of-range cells among them."""
    y_size = draw(st.integers(1, 4))
    b_size = draw(st.integers(1, 3))
    cell = st.one_of(
        st.integers(0, b_size - 1),
        st.integers(-2, b_size + 1),
        st.sampled_from([None, 1.0, 1.5, "1", True, np.int64(1), 2**64, [0]]),
    )
    row = st.one_of(
        st.lists(st.integers(0, b_size - 1), min_size=y_size, max_size=y_size),
        st.lists(cell, min_size=y_size, max_size=y_size),
        st.lists(cell, max_size=y_size + 1).map(tuple),
        st.sampled_from([5, None, "ab"]),
    )
    rows = draw(st.lists(row, max_size=5))
    x_size = draw(st.sampled_from([max(len(rows), 1), len(rows) + 1]))
    return rows, x_size, y_size, b_size


@pytest.fixture
def walked(monkeypatch):
    """The rows that ``_row_violations`` is handed, in order."""
    rows = []
    row_violations = tasks._row_violations

    def spy(count, numbered, *sizes):
        numbered = list(numbered)
        rows.extend(x for x, _ in numbered)
        return row_violations(count, numbered, *sizes)

    monkeypatch.setattr(tasks, "_row_violations", spy)
    return rows


class TestValidation:
    def test_constructor_output_valid(self):
        task = make_family("eq", n=3)
        assert validate_task(task) == []
        assert sum(len(row) for row in task.table) == 9

    def test_missing_entry_reported(self):
        with pytest.raises(TaskError, match="not total at x=1"):
            SfeTask("broken", 2, 2, 2, table=((0, 1), (0,)))

    def test_none_entry_reported(self):
        with pytest.raises(TaskError, match=r"not total at \(1, 1\)"):
            SfeTask("broken", 2, 2, 2, table=((0, 1), (0, None)))

    @pytest.mark.parametrize(
        "table, message",
        [(5, "table must be a sequence of rows"), ([[0, 1], 5], "table row 1 is not a sequence")],
    )
    def test_non_sequence_table_reported(self, table, message):
        with pytest.raises(TaskError) as refused:
            SfeTask("t", 2, 2, 2, table=table)
        assert str(refused.value) == message

    def test_out_of_range_entry_reported(self):
        with pytest.raises(TaskError, match=r"outside \[0, 2\)"):
            SfeTask("broken", 2, 2, 2, table=((0, 1), (0, 5)))
        for entry in (2, -1):  # both ends of the range
            with pytest.raises(TaskError) as refused:
                SfeTask("broken", 2, 2, 2, table=((0, 1), (0, entry)))
            assert str(refused.value) == f"entry {entry} at (1, 1) outside [0, 2)"

    def test_empty_task_reported(self):
        with pytest.raises(TaskError, match="^table must be a sequence of rows$"):
            SfeTask("empty", 2, 2, 2, table=None)

    def test_unmaterialized_family_validates_quickly(self):
        assert validate_task(make_family("mp", n=10**9)) == []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(0, 4).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.integers(-3, 5) | st.sampled_from([-(2**63), 2**63 - 1]),
                    min_size=cols,
                    max_size=cols,
                ),
                max_size=4,
            )
        ),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([1, 2, 3, 2**70]),
        st.booleans(),
    )
    def test_every_refusal_is_the_cell_reporters(self, rows, x_size, y_size, b_size, as_array):
        # _checked_table reports an int64 array, and a list of equal rows, from
        # the rows numpy finds, and a list numpy makes no integer array of (no
        # rows, or rows of no cells) by _cell_violations
        table = np.array(rows, dtype=np.int64) if as_array else rows
        expected = tasks._cell_violations(rows, x_size, y_size, b_size)
        try:
            SfeTask("t", x_size, y_size, b_size, table=table)
        except TaskError as refused:
            assert str(refused) == "; ".join(expected)
        else:
            assert expected == []

    def test_a_large_table_is_reported_from_its_bad_rows_alone(self, walked):
        table = np.zeros((1000, 1000), dtype=np.int64)
        table[700, 3], table[900, 999] = 5, -1
        with pytest.raises(TaskError) as refused:
            SfeTask("t", 1000, 1000, 2, table=table)
        assert str(refused.value) == (
            "entry 5 at (700, 3) outside [0, 2); entry -1 at (900, 999) outside [0, 2)"
        )
        assert walked == [700, 900]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(list_tables())
    def test_list_table_report_equals_a_full_walk(self, drawn):
        rows, x_size, y_size, b_size = drawn
        walk = tasks._row_violations(len(rows), enumerate(rows), x_size, y_size, b_size)
        assert tasks._cell_violations(rows, x_size, y_size, b_size) == walk
        try:
            SfeTask("t", x_size, y_size, b_size, table=rows)
        except TaskError as refused:
            assert str(refused) == "; ".join(walk)
        else:
            assert walk == []

    def test_a_large_list_table_is_reported_from_its_bad_rows_alone(self, walked):
        table = [[(x + y) % 2 for y in range(1000)] for x in range(1000)]
        table[300].pop()
        table[500][7], table[900][999] = None, 1.5
        with pytest.raises(TaskError) as refused:
            SfeTask("t", 1000, 1000, 2, table=table)
        assert str(refused.value) == (
            "table not total at x=300: row length 999; table not total at (500, 7); "
            "entry 1.5 at (900, 999) outside [0, 2)"
        )
        assert walked == [300, 500, 900]


def table_corpus():
    """(table, x_size, y_size, b_size) cases for TABLE_REFUSALS_DIGEST:
    seeded list tables, some with ragged, non-sequence or bad-cell rows;
    the int64, uint8, bool, uint64 and float64 arrays of each that numpy
    takes as numbers; the materialization-cap cases and the empty tables."""
    rng = random.Random(7)
    bad_cells = [None, 1.5, "1", True, np.int64(1), 2**63, 2**64, -1, [0]]
    for _ in range(1200):
        x_size, y_size = rng.randint(1, 4), rng.randint(1, 4)
        b_size = rng.choice([1, 2, 3, 256, 2**64, 2**70])
        # mostly in range; b_size and b_size + 1 where that is below 300
        cells = [rng.randrange(min(b_size, 300) + rng.choice([0, 0, 0, 2])) for _ in range(6)]
        if b_size > 2**63:
            cells[0] = 2**63 - 1
        count = x_size + rng.choice([-1, 0, 0, 0, 0, 1])
        rows = [[rng.choice(cells) for _ in range(y_size)] for _ in range(count)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            x = rng.randrange(len(rows)) if rows else None
            if x is None or not isinstance(rows[x], list) or not rows[x]:
                continue
            fault = rng.randrange(4)
            if fault == 0:
                rows[x][rng.randrange(len(rows[x]))] = rng.choice(bad_cells)
            elif fault == 1:
                rows[x].pop()  # ragged
            elif fault == 2:
                rows[x].append(0)  # ragged
            else:
                rows[x] = rng.choice([5, None, "ab"])
        yield rows, x_size, y_size, b_size
        try:
            array = np.array(rows)
        except (ValueError, TypeError, OverflowError):
            continue
        if array.dtype.kind in "biuf":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # wrapping casts are the point
                forms = [array.astype(dtype) for dtype in (np.int64, np.uint8, bool, np.uint64, np.float64)]
            for form in forms:
                yield form, x_size, y_size, b_size
    for table in (None, [], [[]], np.empty((0, 3))):
        yield table, 1, 1, 2
        yield table, 2, 3, 2
    yield np.zeros((1, 1), dtype=np.int64), 1001, 1000, 2  # declared above the cap
    yield np.zeros((1001, 1000), dtype=np.int64), 1, 1, 2  # built above the cap
    yield [[1] * 1000] * 1001, 1001, 1000, 2
    yield np.ones((1000, 1000), dtype=np.int64), 1000, 1000, 2  # at the cap
    yield [[1] * 1000] * 1000, 1000, 1000, 2


# SHA-256 over the 4963 cases of table_corpus(): per case the accepted
# table's dtype, shape, read-only flag and bytes, or the TaskError text
TABLE_REFUSALS_DIGEST = "1f7fea0d574fca970034cfa1395f2fbc306ef12b0260104adc2eab7bcd20934a"


def test_table_refusals_are_pinned():
    digest = hashlib.sha256()
    for table, *sizes in table_corpus():
        try:
            built = SfeTask("t", *sizes, table=table).table
        except TaskError as refused:
            digest.update(f"refused {refused}\n".encode())
        else:
            digest.update(f"{built.dtype} {built.shape} {built.flags.writeable}\n".encode())
            digest.update(built.tobytes())
    assert digest.hexdigest() == TABLE_REFUSALS_DIGEST


class TestBaselines:
    def test_a_rand_values(self):
        assert a_rand(make_family("ot", alphabet=2, n=2)) == Fraction(1, 2)
        single = SfeTask("one-query", 3, 1, 3, table=((0,), (1,), (2,)))
        assert a_rand(single) == 1
        assert a_rand(make_family("mp", n=10)) == Fraction(1, 9)

    def test_a_rand_times_y_size_is_one(self):
        for family, params in ALL_FAMILY_INSTANCES:
            task = make_family(family, **params)
            assert a_rand(task) * task.y_size == 1

    def test_bruteforce_known_values(self):
        assert b_rand_bruteforce(make_family("ot", alphabet=2, n=3)) == Fraction(1, 4)
        assert b_rand_bruteforce(make_family("eq", n=3)) == Fraction(2, 3)

    def test_bruteforce_random_table_matches_exhaustive_oracle(self):
        task = random_table_task(4, 3, 2, seed=7)
        value = b_rand_bruteforce(task)
        assert value == exhaustive_single_query_value(task)
        assert value == Fraction(3, 4)  # frozen from the oracle

    def test_bruteforce_more_random_tables_match_oracle(self):
        for seed in range(5):
            task = random_table_task(5, 3, 2, seed=100 + seed)
            assert b_rand_bruteforce(task) == exhaustive_single_query_value(task)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tables_with_repeated_rows(), st.sampled_from([1, 2, 3, 7, 1 << 16]))
    @example(SfeTask("one row", 1, 9, 3, table=[[0, 1, 2, 0, 1, 2, 2, 2, 0]]), 4)
    @example(SfeTask("one column", 9, 1, 3, table=[[0], [1], [1], [2], [2], [2], [0], [1], [2]]), 1)
    @example(SfeTask("one output", 4, 3, 1, table=[[0, 0, 0]] * 4), 2)
    # as many outputs as distinct rows, which takes the scatter, and one more, the sort
    @example(SfeTask("scatter edge", 5, 3, 3, table=[[0, 1, 2], [2, 1, 0], [0, 1, 2], [1, 1, 1], [2, 1, 0]]), 2)
    @example(SfeTask("sort edge", 5, 3, 4, table=[[0, 1, 3], [3, 2, 0], [0, 1, 3], [1, 1, 1], [3, 2, 0]]), 2)
    # distinct rows whose largest cell is x_count - 1, which takes the unweighted
    # slots; the same with one more output, the sort; and with one row repeated, the scatter
    @example(SfeTask("distinct edge", 4, 3, 4, table=[[0, 1, 3], [3, 2, 0], [1, 1, 1], [2, 0, 3]]), 2)
    @example(SfeTask("distinct sort", 4, 3, 5, table=[[0, 1, 4], [3, 2, 0], [1, 1, 1], [2, 0, 3]]), 2)
    @example(
        SfeTask("distinct scatter", 5, 3, 4, table=[[0, 1, 3], [3, 2, 0], [1, 1, 1], [2, 0, 3], [3, 2, 0]]), 2
    )
    def test_bruteforce_equals_dict_loop_reference(self, task, block):
        # small blocks send every table through the multi-block path too
        with mock.patch.object(tasks, "BRUTE_FORCE_BLOCK", block):
            assert b_rand_bruteforce(task) == dict_loop_b_rand(task)

    @pytest.mark.parametrize(
        "shape,b_size,pool_size",
        [
            ((1, 5000), 3, None),
            ((5000, 1), 3, None),
            ((300, 200), 1, None),
            ((2000, 40), 2, None),
            ((60, 2000), 60000, None),  # more outputs than distinct rows: the sort
            ((3000, 50), 40, 40),  # as many outputs as distinct rows: the scatter
            ((3000, 50), 41, 40),  # one output more: the sort
            ((4096, 12), 2, 4096),  # every row of 12 bits once: distinct rows
        ],
    )
    def test_bruteforce_equals_dict_loop_reference_at_size(self, shape, b_size, pool_size):
        rng = np.random.default_rng(sum(shape) + b_size)
        if pool_size == b_size ** shape[1]:  # every possible row, each drawn once
            digits = np.arange(pool_size)[:, None] // b_size ** np.arange(shape[1]) % b_size
            table = digits[rng.permutation(pool_size)]
        else:
            pool = rng.integers(0, b_size, size=(pool_size or max(1, shape[0] // 3), shape[1]))
            table = pool[rng.integers(0, len(pool), size=shape[0])]
        if pool_size is not None:  # every pool row is drawn and distinct, and the top output shows
            assert len(np.unique(table, axis=0)) == pool_size and table.max() == b_size - 1
        task = SfeTask("sized", *shape, b_size, table=table)
        assert b_rand_bruteforce(task) == dict_loop_b_rand(task)

    @pytest.mark.parametrize("top", [255, 256, 65535, 65536, 2**32 - 1, 2**32, 2**63 - 1])
    def test_bruteforce_equals_dict_loop_reference_at_each_width(self, top):
        # cells at the edges of uint8, uint16, uint32 and uint64: a copy in
        # any narrower type would wrap top onto one of the smaller values
        values = sorted({v for v in (0, 1, 255, 65535, 2**32 - 1, top - 1, top) if v <= top})
        # every pair of values is a row, so each query shows every value and
        # merging any two values would lower the result
        pairs = np.array(list(itertools.product(values, repeat=2)), dtype=np.int64)
        picks = np.repeat(np.arange(len(pairs)), np.resize([1, 2, 2, 3, 3], len(pairs)))
        table = pairs[np.random.default_rng(top % 997).permutation(picks)]  # tied multiplicities
        task = SfeTask("edges", len(table), 2, top + 1, table=table)
        assert b_rand_bruteforce(task) == dict_loop_b_rand(task)
        narrowest = {
            255: np.uint8,
            256: np.uint16,
            65535: np.uint16,
            65536: np.uint32,
            2**32 - 1: np.uint32,
            2**32: np.uint64,
            2**63 - 1: np.uint64,
        }
        assert task.table.dtype == narrowest[top] and not task.table.flags.writeable

    @pytest.mark.parametrize(
        "top,pool_size",
        [
            (None, None),  # mp 1000: two outputs over distinct rows, the unweighted slots
            (255, 1000),  # 256 outputs, the widest uint8 slot block, distinct rows: the unweighted slots
            (255, 500),  # the same outputs, each row twice: the weighted scatter
            (65535, 500),  # more outputs than distinct rows: the sort
        ],
    )
    def test_bruteforce_peak_memory_is_below_the_table(self, top, pool_size):
        if top is None:
            task = make_family("mp", n=1000)
        else:
            rng = np.random.default_rng(top)
            pool = rng.integers(0, top + 1, size=(pool_size, 1000))
            pool[0, 0] = top
            task = SfeTask("wide", 1000, 1000, top + 1, table=pool[rng.permutation(1000) % pool_size])
        table = task.table  # built before tracing, so only the brute force counts
        # eight bytes a cell, what an int64 copy of the table alone would take
        assert traced_peak(b_rand_bruteforce, task) < 8 * table.size

    def test_bruteforce_requires_table(self):
        with pytest.raises(TaskError):
            b_rand_bruteforce(make_family("mp", n=10**9))
        with pytest.raises(TaskError):
            b_rand_bruteforce(SfeTask("no queries", 2, 0, 2, table=[[], []]))

    def test_closed_form_known_values(self):
        assert b_rand_closed_form(make_family("knot", alphabet=2, n=4, k=2)) == Fraction(1, 4)
        assert b_rand_closed_form(make_family("mp", n=10)) == Fraction(1, 5)
        assert b_rand_closed_form(make_family("ip", n=3)) == Fraction(1, 4)

    def test_closed_form_requires_family(self):
        with pytest.raises(TaskError):
            b_rand_closed_form(random_table_task(2, 2, 2, seed=0))

    def test_families_brute_equals_closed(self):
        for family, params in ALL_FAMILY_INSTANCES:
            task = make_family(family, **params)
            assert b_rand_bruteforce(task) == b_rand_closed_form(task), task.name

    @pytest.mark.parametrize(
        "family,params",
        [
            *(("ot", dict(alphabet=w, n=n)) for w in (1, 2, 3) for n in (1, 2, 3, 4)),
            *(
                ("knot", dict(alphabet=w, n=n, k=k))
                for w in (1, 2, 3) for n in (1, 2, 3, 4) for k in range(1, n)
            ),
            *(("xot", dict(n=n)) for n in (1, 2, 3)),
            *(("eq", dict(n=n)) for n in range(2, 7)),
            *(("ip", dict(n=n)) for n in range(1, 6)),
            *(("mp", dict(n=n)) for n in range(2, 9)),
        ],
        ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v.values())),
    )
    def test_family_rows_are_distinct_so_the_bruteforce_trusts_them(
        self, family, params, monkeypatch
    ):
        # the facts the _FAMILIES comment proves, and b_rand_bruteforce relies on
        task = make_family(family, **params)
        rows = task.table.view(np.dtype((np.void, task.table.itemsize * task.y_size))).ravel()
        assert len(np.unique(rows)) == task.x_size and task.b_size <= task.x_size
        copy = SfeTask("copy", task.x_size, task.y_size, task.b_size, table=task.table.copy())
        expected = b_rand_closed_form(task)
        assert b_rand_bruteforce(copy) == expected

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique ran on a family table")

        monkeypatch.setattr(np, "unique", refuse)
        assert b_rand_bruteforce(task) == expected

    def test_bruteforce_range_and_determination(self):
        for family, params in ALL_FAMILY_INSTANCES:
            task = make_family(family, **params)
            value = b_rand_bruteforce(task)
            assert Fraction(1, task.x_size) <= value <= 1

        # value 1 exactly when some query's answer pins the whole tuple
        eq2 = make_family("eq", n=2)
        assert b_rand_bruteforce(eq2) == 1
        determined = any(
            len({tuple(eq2.table[x].tolist()) for x in range(eq2.x_size) if int(eq2.table[x, y]) == b}) <= 1
            for y in range(eq2.y_size)
            for b in range(eq2.b_size)
        )
        assert determined

    def test_permuting_inputs_preserves_bruteforce(self):
        rng = np.random.default_rng(3)
        task = random_table_task(6, 4, 3, seed=11)
        base = b_rand_bruteforce(task)
        for _ in range(5):
            perm = rng.permutation(task.x_size)
            shuffled = SfeTask(
                task.name, task.x_size, task.y_size, task.b_size,
                table=tuple(task.table[i] for i in perm),
            )
            assert b_rand_bruteforce(shuffled) == base

    def test_knot_observation_classes_pin_the_answer(self):
        # learning any k components pins the full input, so every
        # observation class holds pairwise-distinct answer tuples
        for params in [dict(alphabet=2, n=4, k=2), dict(alphabet=2, n=3, k=2)]:
            task = make_family("knot", **params)
            for ystar in range(task.y_size):
                classes = {}
                for x in range(task.x_size):
                    classes.setdefault(int(task.table[x, ystar]), []).append(tuple(task.table[x].tolist()))
                for vectors in classes.values():
                    assert len(set(vectors)) == len(vectors)


class TestTableRows:
    def test_row_and_length(self):
        task = make_family("eq", n=4)
        for x in range(4):
            vec = tuple(task.table[x].tolist())
            assert len(vec) == task.y_size
            assert vec == tuple(int(task.table[x, y]) for y in range(task.y_size))


class TestSerialization:
    def test_family_form_document(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text('{"family": "knot", "params": {"alphabet": 2, "n": 4, "k": 2}}')
        assert tasks.load_task(path) == make_family("knot", alphabet=2, n=4, k=2)

    def test_explicit_form_document(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(
            '{"name": "explicit", "x_size": 3, "y_size": 2, "b_size": 2,'
            ' "table": [[0, 1], [1, 1], [1, 0]]}'
        )
        loaded = tasks.load_task(path)
        assert loaded.name == "explicit"
        assert (loaded.x_size, loaded.y_size, loaded.b_size) == (3, 2, 2)
        assert np.array_equal(loaded.table, [[0, 1], [1, 1], [1, 0]])

    def test_explicit_form_schema(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(
            json.dumps(
                {
                    "name": "tiny",
                    "x_size": 2,
                    "y_size": 2,
                    "b_size": 2,
                    "table": [[0, 1], [1, 0]],
                }
            )
        )
        task = tasks.load_task(path)
        assert int(task.table[0, 1]) == 1 and int(task.table[1, 0]) == 1

    def test_malformed_documents_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TaskError):
            tasks.load_task(bad)
        with pytest.raises(TaskError):
            tasks.task_from_jsonable({"name": "x"})
        with pytest.raises(TaskError):
            tasks.task_from_jsonable({"family": "eq", "params": "nope"})
        with pytest.raises(TaskError):
            tasks.task_from_jsonable([1, 2])


def library_counts():
    """pytest params (call, name, valid, least, most, texts), one for each
    count that a library entry point takes: ``call(value)`` passes ``value``
    as the count ``name`` and valid values for everything else, ``valid`` is
    a value it takes, least and most are the ends of its range (None for no
    end), and ``texts(value)`` words a task check's own TaskError, None for
    the library's integer rule."""
    from sfebounds import bounds
    from sfebounds import dierolling as dr
    from sfebounds import measurements as m

    half, eq3, cases = Fraction(1, 2), make_family("eq", n=3), []

    def case(name, call, valid, least=None, most=None, texts=None, label=None):
        cases.append(pytest.param(call, name, valid, least, most, texts, id=f"{label} {name}"))

    def positive(key):
        return lambda value: f"parameter {key}={value!r} must be a positive integer"

    case("n", lambda v: make_family("ot", alphabet=2, n=v), 3, 1, texts=positive("n"), label="make_family")
    case(
        "alphabet",
        lambda v: FamilySpec("knot", {"alphabet": v, "n": 3, "k": 1}),
        2,
        1,
        texts=positive("alphabet"),
        label="FamilySpec",
    )
    for position, key in enumerate(("x_size", "y_size", "b_size")):
        def explicit(value, position=position):
            sizes = [2, 2, 2]
            sizes[position] = value
            return SfeTask("t", *sizes, [[0, 1], [1, 0]])

        def texts(value, key=key):
            return f"{key}={value!r} must be a positive integer"

        case(key, explicit, 2, 1, texts=texts, label="SfeTask")
    for fn, call in {
        "cb_from_ca": lambda v: bounds.cb_from_ca(1.5, half, v),
        "solve_fixed_point": lambda v: bounds.solve_fixed_point(half, v),
        "ca_crossing": lambda v: bounds.ca_crossing(half, v),
        "emit_curve": lambda v: bounds.emit_curve(half, v),
    }.items():
        case("y_size", call, 2, 1, label=fn)
    case("samples", lambda v: bounds.emit_curve(half, 2, samples=v), 5, 2, 5 * 10**6, label="emit_curve")
    case("instances", lambda v: m.run_campaign(m.gentle_instance, v, 0), 3, 0, 10**5, label="run_campaign")
    case("seed", lambda v: m.run_campaign(m.gentle_instance, 3, v), 3, 0, label="run_campaign")
    for fn in (m.gentle_instance, m.sequential_instance, m.learning_instance):
        case("max_dim", lambda v, fn=fn: fn([0, 1], max_dim=v), 4, 2, 16, label=fn.__name__)

    def listed(draw):
        """a generator's draw with its arrays as lists, which compare by value"""
        if isinstance(draw, np.ndarray):
            return draw.tolist()
        return [listed(part) for part in draw] if isinstance(draw, tuple) else draw

    # generator -> count -> (valid, least, most); rank is at most the valid dim
    for fn, counts in {
        m.random_density: {"dim": (3, 1, 16), "rank": (2, 1, 3)},
        m.random_povm: {"dim": (3, 1, 16), "outcomes": (2, 1, None)},
        m.random_encoding: {
            "x_count": (2, 1, None),
            "dim": (2, 1, 16),
            "n_functions": (1, 1, None),
            "b_size": (2, 1, None),
        },
    }.items():
        valid = {name: entry[0] for name, entry in counts.items()}
        for name, entry in counts.items():
            def drawn(v, fn=fn, name=name, valid=valid):
                return listed(fn(**{**valid, name: v}, seed=0))

            case(name, drawn, *entry, label=fn.__name__)
    for fn, run in {
        "run_honest": lambda trials, seed: dr.run_honest(eq3, trials, seed),
        "run_cheating_alice": lambda trials, seed: dr.run_cheating_alice(eq3, trials, seed),
        "run_cheating_bob": lambda trials, seed: dr.run_cheating_bob(eq3, {0, 2}, trials, seed),
    }.items():
        case("trials", lambda v, run=run: run(v, 0), 50, 1, 10**8, label=fn)
        case("seed", lambda v, run=run: run(50, v), 3, 0, label=fn)
    return cases


class TestIntegerRule:
    """Every count a library entry point takes goes through ``tasks._integer``
    over its ``COUNT_RANGES`` range, or a task check that words its own
    TaskError: a bool, a float, a str, a numpy float and the value one past
    each end are refused with a ValueError that names the count, and a
    numpy integer is taken as the Python int.  A count past a cap is
    refused before any work: run, it would take up to gigabytes."""

    @pytest.mark.parametrize("call, name, valid, least, most, texts", library_counts())
    def test_refused_by_name(self, call, name, valid, least, most, texts):
        wrong_types = (True, 2.5, "3", np.float64(3))
        refused = [(value, f"{name} must be an integer, got {value!r}") for value in wrong_types]
        if least is not None:
            refused.append((least - 1, f"{name} must be at least {least}, got {least - 1}"))
        if most is not None:
            refused.append((most + 1, f"{name} must be at most {most}, got {most + 1}"))
        for value, text in refused:
            with pytest.raises(ValueError) as raised:
                call(value)
            assert str(raised.value) == (text if texts is None else texts(value))
            assert type(raised.value) is (ValueError if texts is None else TaskError)

    @pytest.mark.parametrize("call, name, valid, least, most, texts", library_counts())
    def test_numpy_integer_taken(self, call, name, valid, least, most, texts):
        assert call(np.int64(valid)) == call(valid)
