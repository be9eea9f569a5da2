import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sfebounds import tasks
from sfebounds.cli import main
from sfebounds.tasks import FAMILY_TAGS, MATERIALIZE_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_one_of_two_bit_ot(self, capsys):
        code, out, err = run(capsys, "bound", "--family", "ot", "--alphabet", "2", "--n", "2")
        assert code == 0 and err == ""
        assert "c: 1.0484" in out
        assert "alice_bound: 0.5242" in out
        assert "bob_bound: 0.5242" in out
        assert "b_rand: 1/2" in out

    def test_xot_pair_reference_values(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "xot", "--n", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["bob_bound"] - 0.2582) < 1e-3
        assert abs(payload["alice_bound"] - 0.3442) < 1e-3

    def test_completely_insecure_exits_3(self, capsys):
        code, out, err = run(capsys, "bound", "--family", "eq", "--n", "2")
        assert code == 3
        assert "completely insecure" in err
        assert out == ""

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "mp", "--n", "10", "--json")
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) + "\n" == out

    def test_byte_identical_repeats(self, capsys):
        args = ("bound", "--family", "ip", "--n", "3", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_full_precision_flag(self, capsys):
        _, rounded, _ = run(capsys, "bound", "--family", "ot", "--alphabet", "2", "--n", "2")
        _, full, _ = run(
            capsys, "bound", "--family", "ot", "--alphabet", "2", "--n", "2", "--full-precision"
        )
        assert "c: 1.0484\n" in rounded
        assert "c: 1.048384205847353\n" in full

    def test_extreme_millionaire_instance(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "mp", "--n", "1000000000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["epsilon"] - 2.5e-19) < 2.5e-20


    def test_tiny_baseline_solves_without_warning(self, capsys):
        for n in ("200", "1500"):  # 1/b_rand is beyond a float at n=1500
            code, out, err = run(capsys, "bound", "--family", "ot", "--alphabet", "2", "--n", n)
            assert code == 0 and err == ""
            assert "warning" not in out

    @pytest.mark.parametrize("n", ["540", "1100"])
    def test_excess_below_float_range_exits_2(self, capsys, n):
        code, out, err = run(capsys, "bound", "--family", "ip", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: c - 1 = s^2/(1 - s^2)")


class TestBrandCommand:
    def test_family_shows_both_routes(self, capsys):
        code, out, _ = run(capsys, "brand", "--family", "knot", "--alphabet", "2", "--n", "4", "--k", "2")
        assert code == 0
        assert "b_rand (closed form): 1/4" in out
        assert "b_rand (brute force): 1/4" in out
        assert "agree: yes" in out

    def test_huge_task_closed_form_only(self, capsys):
        code, out, _ = run(capsys, "brand", "--family", "mp", "--n", "1000000000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["b_rand_closed_form"] == "1/500000000"
        assert payload["b_rand_bruteforce"] is None

    def test_table_file_brute_force_only(self, capsys, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(
            json.dumps(
                {"name": "t", "x_size": 4, "y_size": 2, "b_size": 2,
                 "table": [[0, 0], [0, 1], [1, 0], [1, 1]]}
            )
        )
        code, out, _ = run(capsys, "brand", "--task-file", str(path))
        assert code == 0
        assert "b_rand (brute force): 1/2" in out
        assert "closed form" not in out


class TestCurveCommand:
    def test_knot_curve_shape(self, capsys):
        code, out, _ = run(
            capsys, "curve", "--family", "knot", "--alphabet", "2", "--n", "4",
            "--k", "2", "--samples", "100",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "c_A,c_B"
        assert len(lines) == 101
        first_ca, first_cb = map(float, lines[1].split(","))
        assert first_ca == 1.0 and first_cb == 4.0
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-9)

    def test_out_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SFEBOUNDS_OUT_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, "curve", "--family", "ot", "--alphabet", "2", "--n", "2",
            "--samples", "10", "--out", "curves/ot22.csv",
        )
        assert code == 0 and out == ""
        written = (tmp_path / "curves" / "ot22.csv").read_text()
        assert written.startswith("c_A,c_B\n")
        assert written.count("\n") == 11

    def test_insecure_task_exits_3(self, capsys):
        code, out, err = run(capsys, "curve", "--family", "eq", "--n", "2")
        assert code == 3 and out == ""
        assert err == "completely insecure: baseline 1: no trade-off curve to emit\n"

    @pytest.mark.parametrize("n", ["10000000", "1000000000"])
    def test_grid_finer_than_floats_exits_2(self, capsys, n):
        code, out, err = run(capsys, "curve", "--family", "mp", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: --samples 200 is too many for the c_A range [1.0, ")

    def test_fewer_samples_fit_a_narrow_range(self, capsys):
        code, out, err = run(capsys, "curve", "--family", "mp", "--n", "10000000", "--samples", "10")
        assert code == 0 and err == ""
        rows = [tuple(map(float, line.split(","))) for line in out.split("\n")[1:-1]]
        assert len(rows) == 10 and rows[-1] == (1.0000000000000024, 1.0)
        for (a0, b0), (a1, b1) in zip(rows, rows[1:]):
            assert a0 < a1 and b0 > b1

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(
            capsys, "curve", "--family", "ot", "--alphabet", "2", "--n", "2",
            "--ca-min", "1.05", "--ca-max", "1.01",
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("extra", [[], ["--ca-max", "1.5"]])
    def test_baseline_beyond_float_range_exits_2(self, capsys, extra):
        code, out, err = run(
            capsys, "curve", "--family", "ot", "--alphabet", "2", "--n", "1100", *extra
        )
        assert code == 2 and out == ""
        assert err.startswith("error: 1/b_rand is beyond the float range")


class TestVerifyCommand:
    def test_small_campaigns_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify-lemmas", "--instances", "20", "--max-dim", "6", "--seed", "1"
        )
        assert code == 0
        assert "total: 0 violations" in out
        assert "gentle: 20 instances, 0 violations" in out

    def test_records_file_is_json_lines(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        code, _, _ = run(
            capsys, "verify-lemmas", "--instances", "5", "--seed", "2",
            "--campaign", "learning", "--records", str(records),
        )
        assert code == 0
        lines = records.read_text().strip().split("\n")
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert record["campaign"] == "learning"
            assert record["holds"] is True
            assert json.dumps(record, sort_keys=True) == line

    def test_json_stream_deterministic(self, capsys):
        args = ("verify-lemmas", "--instances", "4", "--seed", "3", "--campaign", "gentle", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert len(first.strip().split("\n")) == 4

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--max-dim", "1"], "error: --max-dim must be at least 2, got 1"),
            (["--max-dim", "-2"], "error: --max-dim must be at least 2, got -2"),
            (["--instances", "-2"], "error: --instances must be at least 0, got -2"),
            (["--seed", "-1"], "error: --seed must be at least 0, got -1"),
            (["--max-dim", "17"], "error: --max-dim must be at most 16, got 17"),
            (["--max-dim", "10" * 9], "error: --max-dim must be at most 16, got " + "10" * 9),
        ],
    )
    def test_bad_flags_exit_2(self, capsys, flags, message):
        code, out, err = run(capsys, "verify-lemmas", "--instances", "1", *flags)
        assert code == 2 and out == ""
        assert err == message + "\n"

    def test_zero_instances_and_smallest_dimension(self, capsys):
        code, out, _ = run(capsys, "verify-lemmas", "--instances", "0", "--max-dim", "2")
        assert code == 0
        assert out.endswith("learning: 0 instances, 0 violations\ntotal: 0 violations\n")
        code, out, _ = run(capsys, "verify-lemmas", "--instances", "2", "--max-dim", "2")
        assert code == 0 and "total: 0 violations" in out


class TestSimulateCommand:
    def test_millionaire_completeness(self, capsys):
        code, out, _ = run(
            capsys, "simulate-dr", "--family", "mp", "--n", "4",
            "--trials", "100000", "--seed", "0", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aborts"] == 0
        assert payload["tv_distance"] < 0.02
        assert sum(payload["histogram"]) == 100000
        assert json.dumps(payload, sort_keys=True) + "\n" == out

    def test_human_output(self, capsys):
        code, out, _ = run(
            capsys, "simulate-dr", "--family", "eq", "--n", "3", "--trials", "1000"
        )
        assert code == 0
        assert "aborts: 0" in out

    def test_unmaterialized_task_exits_2(self, capsys):
        code, _, err = run(
            capsys, "simulate-dr", "--family", "mp", "--n", "1000000000", "--trials", "10"
        )
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("seed", ["-1", "-123456789012345678901"])
    def test_negative_seed_exits_2(self, capsys, seed):
        code, out, err = run(capsys, "simulate-dr", "--family", "eq", "--n", "3", "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"error: --seed must be at least 0, got {seed}\n"


class TestTaskSourceHandling:
    def test_missing_source_exits_2(self, capsys):
        code, _, err = run(capsys, "bound")
        assert code == 2 and "exactly one" in err

    def test_both_sources_exit_2(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"family": "eq", "params": {"n": 3}}))
        code, _, err = run(capsys, "bound", "--family", "eq", "--n", "3", "--task-file", str(path))
        assert code == 2 and "exactly one" in err

    def test_family_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"family": "ot", "params": {"alphabet": 2, "n": 2}}))
        code, out, _ = run(capsys, "bound", "--task-file", str(path))
        assert code == 0 and "c: 1.0484" in out

    def test_invalid_table_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(
            json.dumps(
                {"name": "bad", "x_size": 2, "y_size": 2, "b_size": 2, "table": [[0, 9], [0, 1]]}
            )
        )
        code, _, err = run(capsys, "bound", "--task-file", str(path))
        assert code == 2 and "outside" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "--task-file", "/nonexistent/task.json")
        assert code == 2 and "error" in err

    def test_knot_requires_k(self, capsys):
        code, _, err = run(capsys, "bound", "--family", "knot", "--alphabet", "2", "--n", "4")
        assert code == 2 and "--k" in err


# The five README commands and the SHA-256 of their stdout, recorded before
# family tables were built on first read.  The curve rows are correctly
# rounded, the bounds are rounded to 4 decimals and the verify-lemmas text is
# counts only, so the bytes do not depend on the platform.
README_COMMANDS = (
    (
        "bound --family ot --alphabet 2 --n 2",
        "01fe12c49db31ec43ad9d6b14b395ffd6c09868c0d8986c0af499f52872dddab",
    ),
    (
        "brand --family knot --alphabet 2 --n 4 --k 2",
        "61072d9ac83d6ac6cc30a2e124d1ec71b1c239a89b80c6c8a45811af272786f7",
    ),
    (
        "curve --family knot --alphabet 2 --n 4 --k 2 --samples 100",
        "4ff21bf56dd54fc8f020ffe067d4c2b9c8df19b55fb87148f07914864072fbd4",
    ),
    (
        "verify-lemmas --instances 1000 --max-dim 8 --seed 1",
        "d62e26f1d8a4d2a8a1ee7818ea00f045ee46119d9778b1cadd9ef40275d7625f",
    ),
    (
        "simulate-dr --family mp --n 4 --trials 100000 --seed 0",
        "1aca33c7266a1fbe3f582ebde084107663a55127ac15346e2ae1f1a790c41268",
    ),
)


def test_readme_commands_print_the_recorded_bytes(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for command, digest in README_COMMANDS:
        assert f"sfe-bounds {command}\n" in readme
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


FAMILY_TASK = ("--family", "knot", "--alphabet", "2", "--n", "4", "--k", "2")


class TestFamilyTableOnFirstRead:
    @pytest.mark.parametrize(
        "command",
        [
            ["bound"],
            ["bound", "--json"],
            ["curve", "--samples", "20"],
            ["simulate-dr", "--trials", "1000"],
        ],
    )
    def test_commands_that_need_no_table_build_none(self, capsys, monkeypatch, command):
        argv = [command[0], *FAMILY_TASK, *command[1:]]
        expected = run(capsys, *argv)
        assert expected[0] == 0

        def refuse(spec):
            raise AssertionError(f"family table of {spec} built")

        monkeypatch.setattr(tasks, "family_table", refuse)
        assert run(capsys, *argv) == expected

    def test_brand_builds_the_table_once(self, capsys, monkeypatch):
        built = []
        real = tasks.family_table
        monkeypatch.setattr(tasks, "family_table", lambda spec: built.append(spec) or real(spec))
        code, out, _ = run(capsys, "brand", *FAMILY_TASK)
        assert code == 0 and "agree: yes" in out
        assert len(built) == 1


def run_task_file(capsys, tmp_path, command, doc):
    """Run one command on ``doc`` written as a task file.

    The CLI runs in this process, so an exception that would end the real
    command in a traceback fails the test instead of reaching stderr.
    """
    path = tmp_path / "task.json"
    path.write_text(json.dumps(doc))
    extra = ["--trials", "10"] if command == "simulate-dr" else []
    return run(capsys, command, "--task-file", str(path), *extra)


class TestTaskFileInput:
    def test_string_size_exits_2(self, capsys, tmp_path):
        doc = {"name": "t", "x_size": "2", "y_size": 2, "b_size": 2, "table": [[0, 1], [1, 0]]}
        code, _, err = run_task_file(capsys, tmp_path, "brand", doc)
        assert code == 2 and "x_size='2' must be an integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["bound", "simulate-dr"])
    def test_boolean_family_parameter_exits_2(self, capsys, tmp_path, command):
        doc = {"family": "ot", "params": {"alphabet": 2, "n": True}}
        code, _, err = run_task_file(capsys, tmp_path, command, doc)
        assert code == 2 and "n=True must be a positive integer" in err
        assert "Traceback" not in err

    def test_explicit_table_above_cap_exits_2(self, capsys, tmp_path):
        doc = {"name": "big", "x_size": 1100, "y_size": 1000, "b_size": 2,
               "table": [[0] * 1000] * 1100}
        code, _, err = run_task_file(capsys, tmp_path, "brand", doc)
        assert code == 2 and "above the materialization cap" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "table,message",
        [
            ([[0, 1], [0]], "table not total at x=1: row length 1"),
            ([[0, 1], [0, None]], "table not total at (1, 1)"),
            ([[0, 1], [0, 1.5]], "entry 1.5 at (1, 1) outside [0, 2)"),
            ([[0, 1], [0, "1"]], "entry '1' at (1, 1) outside [0, 2)"),
            ([[0, 1], [0, 2**63]], f"entry {2**63} at (1, 1) outside [0, 2)"),
            ([[0, -(2**63) - 1], [0, 1]], f"entry {-(2**63) - 1} at (0, 1) outside [0, 2)"),
        ],
    )
    def test_bad_cells_exit_2(self, capsys, tmp_path, table, message):
        doc = {"name": "bad", "x_size": 2, "y_size": 2, "b_size": 2, "table": table}
        code, _, err = run_task_file(capsys, tmp_path, "bound", doc)
        assert code == 2 and message in err
        assert "Traceback" not in err


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
FAMILY_DOCS = st.fixed_dictionaries(
    {
        "family": st.sampled_from(FAMILY_TAGS) | SCALARS,
        "params": st.dictionaries(
            st.sampled_from(["alphabet", "n", "k", "m"]), st.integers(-1, 9) | SCALARS, max_size=3
        )
        | JSON_VALUES,
    }
)
SMALL_INTS = st.integers(-1, 5)
EXPLICIT_DOCS = st.fixed_dictionaries(
    {
        "name": JSON_VALUES,
        "x_size": SMALL_INTS | SCALARS,
        "y_size": SMALL_INTS | SCALARS,
        "b_size": SMALL_INTS | SCALARS,
        "table": st.lists(st.lists(SMALL_INTS | SCALARS, max_size=5), max_size=5) | JSON_VALUES,
    }
)


class TestTaskFileFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(["brand", "bound", "simulate-dr"]),
        FAMILY_DOCS | EXPLICIT_DOCS | JSON_VALUES,
    )
    def test_any_json_document_exits_cleanly(self, capsys, tmp_path, command, doc):
        code, _, err = run_task_file(capsys, tmp_path, command, doc)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err


class TestVerifyFlagFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(-3, 3),
        st.integers(-2, 20) | st.integers(-(2**70), 2**70),
        st.integers(-3, 3) | st.integers(-(2**70), 2**70),
        st.sampled_from(["gentle", "sequential", "learning", "all"]),
        st.booleans(),
    )
    def test_any_flag_set_exits_cleanly(self, capsys, instances, max_dim, seed, campaign, as_json):
        argv = [
            "verify-lemmas",
            "--instances", str(instances),
            "--max-dim", str(max_dim),
            "--seed", str(seed),
            "--campaign", campaign,
        ]
        code, _, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert (code == 2) == (instances < 0 or not 2 <= max_dim <= 16 or seed < 0)


def family_cells(family, alphabet, n, k):
    """x_size * y_size of a family task, 0 for parameters make_family rejects."""
    if n is None or n < 1 or alphabet < 2 or (family == "knot" and (k is None or not 1 <= k <= n)):
        return 0
    return {
        "ot": lambda: alphabet**n * n,
        "knot": lambda: alphabet**n * math.comb(n, k),
        "xot": lambda: 4**n * 3,
        "eq": lambda: n * n,
        "ip": lambda: 2**n * (2**n - 1),
        "mp": lambda: n * (n - 1),
    }[family]()


# --n up to the scales where the solver refuses (ip) or 1/b_rand leaves the
# float range (ot, xot); eq and mp to 10^30
SMALL_N = st.integers(-1, 16)
FAMILY_N = {
    "ot": SMALL_N | st.integers(17, 1600),
    "knot": SMALL_N | st.integers(17, 40),
    "xot": SMALL_N | st.integers(17, 1600),
    "eq": SMALL_N | st.integers(17, 10**30),
    "ip": SMALL_N | st.integers(17, 1200),
    "mp": SMALL_N | st.integers(17, 10**30),
}
CA_FLOATS = st.floats(1, 1.1).map(repr) | st.sampled_from(["nan", "inf", "-inf", "0", "1e308"])


@st.composite
def task_flag_sets(draw):
    """Flags of bound, brand, curve or simulate-dr on a family task whose
    table, if built, has at most 10^4 cells.  Each optional flag is given
    with probability ``odds``: 7/8 for the task flags, 1/2 for the others."""

    def sometimes(flag, strategy, odds=4):
        return [f"--{flag}={draw(strategy)}"] if draw(st.integers(0, 7)) < odds else []

    command = draw(st.sampled_from(["bound", "brand", "curve", "simulate-dr"]))
    family = draw(st.sampled_from(FAMILY_TAGS))
    n = draw(FAMILY_N[family])
    alphabet = draw(st.integers(2, 6) | st.integers(-1, 1000))
    k = draw(st.integers(1, 12) | st.integers(-1, 0))
    cells = family_cells(family, alphabet, n, k)
    assume(cells <= 10**4 or cells > MATERIALIZE_CAP)
    argv = [command, f"--family={family}", f"--alphabet={alphabet}"]
    argv += sometimes("n", st.just(n), odds=7) + sometimes("k", st.just(k), odds=7)
    if command == "curve":
        argv += sometimes("samples", st.integers(2, 300) | st.integers(0, 1))
        argv += sometimes("ca-min", CA_FLOATS)
        argv += sometimes("ca-max", CA_FLOATS)
        argv += ["--clip"] if draw(st.booleans()) else []
    if command == "simulate-dr":
        argv += sometimes("trials", st.integers(1, 10**4) | st.integers(-2, 0))
        argv += sometimes("seed", st.integers(0, 2**70) | st.integers(-(2**70), -1))
    if command != "curve":
        argv += draw(st.sampled_from([[], ["--json"], ["--full-precision"]]))
    return argv


class TestTaskFlagFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
    )
    @given(task_flag_sets())
    @example(["bound", "--family=ot", "--alphabet=2", "--n=1500"])
    @example(["bound", "--family=ip", "--n=1100", "--json"])
    @example(["curve", "--family=ot", "--alphabet=2", "--n=1500"])
    @example(["curve", "--family=eq", "--n=5", "--ca-min=nan", "--ca-max=inf"])
    @example(["simulate-dr", "--family=eq", "--n=5", "--trials=-2", "--seed=-1"])
    def test_any_flag_set_exits_cleanly(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
