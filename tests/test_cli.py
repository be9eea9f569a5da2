import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sfebounds import tasks
from sfebounds.cli import FLAG_RANGES, _check_flags, build_parser, main
from sfebounds.tasks import COUNT_RANGES, FAMILY_TAGS, MATERIALIZE_CAP

MAX_TRIALS = COUNT_RANGES["trials"][1]
# each count flag -> the library count whose range it takes
LIBRARY_FLAGS = {
    "--instances": "instances",
    "--max-dim": "max_dim",
    "--seed": "seed",
    "--trials": "trials",
    "--samples": "samples",
}


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
        assert err == "completely insecure: baseline 1: nothing to bound\n"
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
        for n in ("200", "1500", "14000"):  # 1/b_rand is beyond a float from n=1025
            code, out, err = run(capsys, "bound", "--family", "ot", "--alphabet", "2", "--n", n)
            assert code == 0 and err == ""
            assert "warning" not in out

    @pytest.mark.parametrize("n", ["14001", "20000", "100000000000000000000"])
    def test_family_above_the_size_cap_exits_2_before_any_output(self, capsys, n):
        code, out, err = run(capsys, "bound", "--family", "ot", "--alphabet", "2", "--n", n)
        assert (code, out) == (2, "")
        assert err == (
            f"error: family 'ot' with alphabet=2, n={n} is too large: "
            "its sizes are capped at 2**14000\n"
        )

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


@pytest.mark.parametrize("command", ["bound", "brand"])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_unprintable_number_leaves_no_partial_output(capsys, tmp_path, command, as_json):
    # b_rand = 1/2^2999 has 903 digits, beyond a 640-digit int-to-string limit
    argv = [command, "--family", "ot", "--alphabet", "2", "--n", "3000", *as_json]
    out_file = tmp_path / "out.txt"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        printed = run(capsys, *argv)
        written = run(capsys, *argv, "--out", str(out_file))
    finally:
        sys.set_int_max_str_digits(limit)
    for code, out, err in (printed, written):
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit (640 digits)")
    assert not out_file.exists()


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
        assert err == "completely insecure: baseline 1: nothing to bound\n"

    @pytest.mark.parametrize(
        "n,refusal",
        [
            ("10000000", "error: samples=200 is too many for the c_A range [1.0, "),
            # the crossing rounds to 1.0, so no sample count would do
            ("1000000000", "error: the c_A range [1.0, 1.0] is empty or starts below 1.0\n"),
        ],
        ids=["10000000", "1000000000"],
    )
    def test_grid_finer_than_floats_exits_2(self, capsys, n, refusal):
        code, out, err = run(capsys, "curve", "--family", "mp", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith(refusal)

    def test_ca_max_beyond_one_over_b_rand_exits_2(self, capsys):
        code, out, err = run(
            capsys, "curve", "--family", "ot", "--alphabet", "2", "--n", "2", "--ca-max", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: ca_max=3.0 is beyond 1/b_rand = 2.0\n"

    def test_empty_range_is_not_blamed_on_samples(self, capsys):
        code, out, err = run(
            capsys, "curve", "--family", "eq", "--n", "5", "--ca-min", "1.2", "--ca-max", "1.2"
        )
        assert (code, out) == (2, "")
        assert err == "error: the c_A range [1.2, 1.2] is empty or starts below 1.0\n"

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

    def test_row_beyond_float_range_exits_2(self, capsys):
        code, out, err = run(
            capsys, "curve", "--family", "ot", "--alphabet", "2", "--n", "1020",
            "--ca-max", "1e300", "--samples", "3",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: c_B at c_A = 5e+299 is beyond the float range")


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
        code, out, _ = run(
            capsys, "verify-lemmas", "--instances", "5", "--seed", "2",
            "--campaign", "learning", "--records", str(records), "--json",
        )
        assert code == 0 and out == records.read_text()

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

    def test_task_beyond_the_table_cap_runs(self, capsys):
        task = tasks.make_family("mp", n=2000)
        assert not task.materialized  # simulate-dr reads no table
        code, out, err = run(
            capsys, "simulate-dr", "--family", "mp", "--n", "2000", "--trials", "100", "--json"
        )
        assert (code, err) == (0, "")
        histogram = json.loads(out)["histogram"]
        assert len(histogram) == task.y_size and sum(histogram) == 100

    @pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
    @pytest.mark.parametrize(
        "trials,refusal",
        [
            (MAX_TRIALS, "error: "),  # the cap's 1.6 GB of trials are more than the child may map
            (MAX_TRIALS + 1, f"error: --trials must be at most 100000000, got {MAX_TRIALS + 1}\n"),
        ],
        ids=["at-the-cap", "above-the-cap"],
    )
    def test_out_of_memory_exits_2_without_traceback(self, trials, refusal):
        # above the cap the refusal comes before any draw, so the limit is never reached
        proc = run_limited(
            ["simulate-dr", "--family", "mp", "--n", "4", "--trials", str(trials)], timeout=120
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(refusal) and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

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

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            (["bound", "--family", "eq", "--n", "4", "--alphabet", "7"], "--alphabet does not apply to --family eq"),
            (["bound", "--family", "ot", "--n", "2", "--k", "5"], "--k does not apply to --family ot"),
            (["brand", "--family", "mp", "--n", "4", "--alphabet", "2"], "--alphabet does not apply to --family mp"),
            (["curve", "--family", "xot", "--n", "2", "--k", "1"], "--k does not apply to --family xot"),
            (["bound", "--task-file", "FILE", "--n", "3"], "--n does not apply to --task-file"),
            (["simulate-dr", "--task-file", "FILE", "--alphabet", "2"], "--alphabet does not apply to --task-file"),
        ],
    )
    def test_a_task_flag_the_task_does_not_take_exits_2(self, capsys, tmp_path, argv, refusal):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"family": "eq", "params": {"n": 3}}))
        code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
        assert (code, out, err) == (2, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("family,extra", [("ot", []), ("knot", ["--k", "2"])])
    def test_alphabet_is_2_when_absent(self, capsys, family, extra):
        argv = ["bound", "--family", family, "--n", "4", *extra, "--json"]
        assert run(capsys, *argv) == run(capsys, *argv, "--alphabet", "2")


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
        "419ff39049b40c8c08a806eb238d401df3b2ca945439bef5ef2d89197e265e3a",
    ),
)


def test_readme_commands_print_the_recorded_bytes(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for command, digest in README_COMMANDS:
        assert f"sfe-bounds {command}\n" in readme
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# bound --json prints the solver's residual and iterations beside c, s and
# epsilon; these digests pin all of them for the benchmark's bound tasks
# and for ip 510, the last inner product that solves.
BOUND_JSON_DIGESTS = (
    ("--family ot --alphabet 2 --n 2", "f6e79736ce54d2fe2ca00e85d4e9085f73370bd86d2c2bb882fc785227e6dd89"),
    ("--family ot --alphabet 2 --n 40", "a661e4969dcb36180cf43c8e0834fe24567f0b5e2931f2cc30b9eba715224dd1"),
    ("--family ot --alphabet 2 --n 200", "d492da897c1246c0e89ff2c14647a47e7221b18ba8ec841254df9b996844b9ea"),
    ("--family knot --alphabet 3 --n 5 --k 2", "9ca2f710c22c561e1c62ab373cff7b1b969626ca058a2fdd17425c3d3731d234"),
    ("--family xot --n 5", "f661e8d7b6fd82aaf2b3a1bcf7f5038915d04f8646b816ffd7f12dfa9117b0f1"),
    ("--family eq --n 60", "bb9ecd36277934718ddb0c11ec0283578e1c01eda7327ae4e8970df57c388ba5"),
    ("--family ip --n 6", "db5d128b31f510cdd454c4179a880cee0aac6b59f00cf619cb61938db4239290"),
    ("--family mp --n 100000", "7a8d8a23aeaf1738880941cb52f4ac6e498bd6a0990980e345fb97268a9bf153"),
    ("--family mp --n 1000000000", "bfd2a6bfb412459c8a06026cd7dd072c1280c30618d3aab1f4c62133cfd357c3"),
    ("--family ip --n 510", "654fb67931874c16c49c42a6446d885a18a0b1583154d3a83063a35824c7bc49"),
)


@pytest.mark.parametrize("task,digest", BOUND_JSON_DIGESTS, ids=[task for task, _ in BOUND_JSON_DIGESTS])
def test_bound_json_prints_the_recorded_bytes(capsys, task, digest):
    code, out, err = run(capsys, "bound", *task.split(), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

        def refuse(task):
            raise AssertionError(f"family table of {task.name} built")

        monkeypatch.setattr(tasks, "family_table", refuse)
        assert run(capsys, *argv) == expected

    def test_brand_builds_the_table_once(self, capsys, monkeypatch):
        built = []
        real = tasks.family_table
        monkeypatch.setattr(tasks, "family_table", lambda task: built.append(task) or real(task))
        code, out, _ = run(capsys, "brand", *FAMILY_TASK)
        assert code == 0 and "agree: yes" in out
        assert len(built) == 1


SRC = Path(tasks.__file__).resolve().parents[1]


def tree_env(**extra):
    """This process's environment with ``extra`` set and this tree's
    sources first on PYTHONPATH, for a child that imports sfebounds."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_limited(argv, timeout):
    """``python -m sfebounds argv`` in a child that may map 512 MB at most
    and is killed after ``timeout`` seconds."""
    import resource

    limit = 512 * 1024**2

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "sfebounds", *argv],
        capture_output=True, text=True, env=tree_env(), timeout=timeout, check=False,
        preexec_fn=limit_address_space,
    )


NUMPY_MODULES = {"numpy", "sfebounds.measurements", "sfebounds.dierolling"}


# Prefixed to the code a fresh interpreter runs: at exit, it writes the
# names in sys.modules to $MODULES_OUT.
PROBE = """
import atexit, json, os, sys

def record_modules():
    with open(os.environ["MODULES_OUT"], "w") as handle:
        json.dump(list(sys.modules), handle)

atexit.register(record_modules)
"""
# what ``python -m sfebounds`` runs
RUN_MAIN = 'import runpy; sys.argv[0] = "sfebounds"; runpy.run_module("sfebounds", run_name="__main__")'


def run_python(tmp_path, code, *argv):
    """``python -c code argv`` in a fresh interpreter that imports sfebounds
    from this tree: exit code, stdout, stderr, and the modules it imported."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE + code, *argv],
        capture_output=True, text=True, env=tree_env(MODULES_OUT=str(tmp_path / "modules.json")),
        timeout=120, check=False,
    )
    imported = set(json.loads((tmp_path / "modules.json").read_text()))
    return proc.returncode, proc.stdout, proc.stderr, imported


class TestImportsPerCommand:
    """bound and curve on a family need neither tables nor matrices, so a
    fresh process running them never imports numpy.  The record types are
    named tuples, so no command imports dataclasses, and bound and curve
    also leave inspect, which numpy imports, unloaded."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--family", "ot", "--alphabet", "2", "--n", "2"],
            ["bound", "--family", "ot", "--alphabet", "2", "--n", "2", "--json"],
            ["bound", "--family", "mp", "--n", "1000000000", "--full-precision"],
            ["curve", *FAMILY_TASK, "--samples", "100"],
            ["curve", "--family", "ip", "--n", "6"],
            ["bound", "--family", "ot", "--alphabet", "2", "--n", "20000"],
        ],
    )
    def test_bound_and_curve_on_a_family_leave_numpy_unloaded(self, capsys, tmp_path, argv):
        code, out, err, imported = run_python(tmp_path, RUN_MAIN, *argv)
        assert (code, out, err) == run(capsys, *argv)
        assert "sfebounds.bounds" in imported and not imported & NUMPY_MODULES
        assert not imported & {"dataclasses", "inspect"}

    def test_family_task_file_leaves_numpy_unloaded(self, capsys, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({"family": "xot", "params": {"n": 3}}))
        argv = ["bound", "--task-file", str(path), "--json"]
        code, out, err, imported = run_python(tmp_path, RUN_MAIN, *argv)
        assert (code, err) == (0, "") and out == run(capsys, *argv)[1]
        assert not imported & NUMPY_MODULES

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            (["verify-lemmas", "--instances", "100001"], "--instances must be at most 100000, got 100001"),
            (["verify-lemmas", "--max-dim", "17"], "--max-dim must be at most 16, got 17"),
            (["verify-lemmas", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["simulate-dr", "--trials", "0"], "--trials must be at least 1, got 0"),
            (["simulate-dr", "--seed", "-1"], "--seed must be at least 0, got -1"),
        ],
    )
    def test_refused_flag_leaves_numpy_unloaded(self, capsys, tmp_path, argv, refusal):
        if argv[0] == "simulate-dr":
            argv = [*argv, "--family", "eq", "--n", "5"]
        code, out, err, imported = run_python(tmp_path, RUN_MAIN, *argv)
        assert (code, out, err) == (2, "", f"error: {refusal}\n") == run(capsys, *argv)
        assert not imported & NUMPY_MODULES

    def test_numpy_free_check_passes(self):
        # the stdlib-only script that CI also runs on Pythons without numpy
        script = Path(__file__).with_name("numpy_free_check.py")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=tree_env(), timeout=120, check=False,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("ok: 12 commands, SHA-256 8cbeac4a")

    def test_comparing_family_tasks_leaves_numpy_unloaded(self, tmp_path):
        code, _, err, imported = run_python(
            tmp_path,
            "from sfebounds.tasks import make_family\n"
            "assert make_family('ot', alphabet=2, n=3) == make_family('ot', alphabet=2, n=3)\n"
            "assert make_family('ot', alphabet=2, n=3) != make_family('ot', alphabet=2, n=4)",
        )
        assert (code, err) == (0, "")
        assert "sfebounds.tasks" in imported and not imported & NUMPY_MODULES

    def test_package_import_leaves_numpy_unloaded(self, tmp_path):
        code, _, err, imported = run_python(tmp_path, "import sfebounds")
        assert (code, err) == (0, "")
        assert "sfebounds" in imported and not imported & (NUMPY_MODULES | {"sfebounds.tasks"})

    @pytest.mark.parametrize(
        "command,digest",
        [pin for pin in README_COMMANDS if pin[0].split()[0] in ("brand", "verify-lemmas", "simulate-dr")],
    )
    def test_table_and_matrix_commands_print_the_recorded_bytes(self, tmp_path, command, digest):
        code, out, err, imported = run_python(tmp_path, RUN_MAIN, *command.split())
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert "numpy" in imported and "dataclasses" not in imported

    def test_explicit_task_file_prints_the_recorded_bytes(self, tmp_path):
        path = tmp_path / "task.json"
        table = [[0, 0], [0, 1], [1, 0], [1, 1]]
        path.write_text(json.dumps({"name": "ot-2bit", "x_size": 4, "y_size": 2, "b_size": 2, "table": table}))
        code, out, err, imported = run_python(tmp_path, RUN_MAIN, "bound", "--task-file", str(path))
        assert (code, err) == (0, "")
        assert out == (
            "task: ot-2bit\ny_size: 2\nb_rand: 1/2\na_rand: 1/2\nc: 1.0484\n"
            "epsilon: 0.048384205847352986\nalice_bound: 0.5242\nbob_bound: 0.5242\n"
        )
        assert "numpy" in imported


class TestFlagsPerCommand:
    """Each command accepts exactly the flags it reads."""

    def test_each_command_registers_exactly_the_flags_it_reads(self):
        task_flags = {"--family", "--alphabet", "--n", "--k", "--task-file"}
        expected = {
            "bound": task_flags | {"--json", "--full-precision", "--out"},
            "brand": task_flags | {"--json", "--out"},
            "curve": task_flags | {"--samples", "--ca-min", "--ca-max", "--clip", "--out"},
            "verify-lemmas": {
                "--instances", "--max-dim", "--seed", "--campaign", "--records", "--json", "--out",
            },
            "simulate-dr": task_flags | {"--trials", "--seed", "--json", "--out"},
        }
        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        registered = {
            name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.items()
        }
        assert registered == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--family", "ot", "--alphabet", "2", "--n", "2", "--samples", "3", "--json"],
            ["curve", "--family", "ot", "--alphabet", "2", "--n", "2", "--samples", "3", "--full-precision"],
            ["brand", *FAMILY_TASK, "--full-precision"],
            ["verify-lemmas", "--instances", "1", "--full-precision"],
            ["simulate-dr", "--family", "mp", "--n", "4", "--trials", "10", "--full-precision"],
        ],
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, tmp_path, argv):
        code, out, err, _ = run_python(tmp_path, RUN_MAIN, *argv)
        assert (code, out) == (2, "")
        # the command's own usage and name, not the top-level list of commands
        assert err.startswith(f"usage: sfe-bounds {argv[0]} [-h] ")
        assert err.endswith(f"\nsfe-bounds {argv[0]}: error: unrecognized arguments: {argv[-1]}\n")
        assert "Traceback" not in err


class TestFlagRanges:
    """Every numeric flag is refused outside its range, by name and with
    exit 2, before any task is built or campaign run."""

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            (["verify-lemmas", "--instances", "-1"], "--instances must be at least 0, got -1"),
            (["verify-lemmas", "--instances", "100001"], "--instances must be at most 100000, got 100001"),
            (["verify-lemmas", "--max-dim", "1"], "--max-dim must be at least 2, got 1"),
            (["verify-lemmas", "--max-dim", "17"], "--max-dim must be at most 16, got 17"),
            (["verify-lemmas", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["simulate-dr", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["simulate-dr", "--trials", "0"], "--trials must be at least 1, got 0"),
            (["simulate-dr", "--trials", "100000001"], "--trials must be at most 100000000, got 100000001"),
            # the flag, not the task, is refused first
            (["simulate-dr", "--trials", "0", "--seed", "-1"], "--seed must be at least 0, got -1"),
            (["curve", "--samples", "1"], "--samples must be at least 2, got 1"),
            (["curve", "--samples", "5000001"], "--samples must be at most 5000000, got 5000001"),
            (["curve", "--ca-min", "0.0"], "--ca-min must be at least 1.0, got 0.0"),
            (["curve", "--ca-max", "0.0"], "--ca-max must be at least 1.0, got 0.0"),
            (["curve", "--ca-min=nan"], "--ca-min must be finite, got nan"),
            (["curve", "--ca-min=-inf"], "--ca-min must be finite, got -inf"),
            (["curve", "--ca-max=inf"], "--ca-max must be finite, got inf"),
            (["curve", "--ca-max=1e400"], "--ca-max must be finite, got inf"),
            (["curve", "--ca-min=nan", "--ca-max=nan", "--samples", "0"], "--samples must be at least 2, got 0"),
        ],
    )
    def test_flag_out_of_range_exits_2_before_any_work(self, capsys, monkeypatch, argv, refusal):
        from sfebounds import measurements

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        monkeypatch.setattr(measurements, "run_campaign", refuse)
        monkeypatch.setattr(tasks, "make_family", refuse)
        # an insecure task, refused with exit 3 if the task came first
        task = [] if argv[0] == "verify-lemmas" else ["--family", "eq", "--n", "2"]
        assert run(capsys, *argv, *task) == (2, "", f"error: {refusal}\n")

    @pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
    @pytest.mark.parametrize(
        "argv,refusal",
        [
            # uncapped, these would take seconds and more memory than the child may map
            (
                ["curve", "--family", "ot", "--alphabet", "2", "--n", "2", "--samples", "5000001"],
                "error: --samples must be at most 5000000, got 5000001\n",
            ),
            (
                ["verify-lemmas", "--campaign", "gentle", "--max-dim", "2", "--instances", "100001"],
                "error: --instances must be at most 100000, got 100001\n",
            ),
        ],
        ids=["samples", "instances"],
    )
    def test_above_the_cap_exits_2_without_loading_the_machine(self, argv, refusal):
        proc = run_limited(argv, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", refusal)

    @pytest.mark.parametrize(
        "command,flag,span",
        [
            ("curve", "--samples", "2 to 5000000"),
            ("curve", "--ca-min", "at least 1.0"),
            ("curve", "--ca-max", "at least 1.0"),
            ("verify-lemmas", "--instances", "0 to 100000"),
            ("verify-lemmas", "--max-dim", "2 to 16"),
            ("verify-lemmas", "--seed", "at least 0"),
            ("simulate-dr", "--trials", "1 to 100000000"),
            ("simulate-dr", "--seed", "at least 0"),
        ],
    )
    def test_help_states_the_range(self, capsys, command, flag, span):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        # the flag's entry in the options list, up to the next flag, unwrapped
        text = " ".join(capsys.readouterr().out.split())
        entry = text.split(f" {flag} {flag[2:].upper().replace('-', '_')} ", 1)[1].split(" --")[0]
        assert entry.endswith(f"; {span}")

    @pytest.mark.parametrize("flag", sorted(LIBRARY_FLAGS))
    def test_a_count_flag_reads_the_library_range(self, flag):
        assert FLAG_RANGES[flag] is COUNT_RANGES[LIBRARY_FLAGS[flag]]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(LIBRARY_FLAGS)), st.booleans(), st.integers(-3, 3))
    def test_flag_and_library_refuse_the_same_counts(self, flag, upper, offset):
        # the same integers around each end are taken, or refused in the same words
        name = LIBRARY_FLAGS[flag]
        least, most = COUNT_RANGES[name]
        value = (most if upper and most is not None else least) + offset
        refusals = []
        for check in (
            lambda: _check_flags(argparse.Namespace(**{name: value})),
            lambda: tasks._integer(name, value, least, most),
        ):
            try:
                check()
                refusals.append(None)
            except ValueError as exc:
                refusals.append(str(exc))
        cli, library = refusals
        assert cli == (None if library is None else library.replace(name, flag, 1))


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
        assert code == 2 and "x_size='2' must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["brand", "bound", "simulate-dr"])
    @pytest.mark.parametrize("x_size", [0, -1, -(10**7)])
    def test_size_below_one_exits_2(self, capsys, tmp_path, command, x_size):
        doc = {"name": "t", "x_size": x_size, "y_size": -1, "b_size": 2, "table": [[0, 1]]}
        code, _, err = run_task_file(capsys, tmp_path, command, doc)
        assert code == 2 and f"x_size={x_size} must be a positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", [None, 5, True, [1], {"a": 1}])
    def test_non_string_name_exits_2(self, capsys, tmp_path, name):
        doc = {"name": name, "x_size": 2, "y_size": 2, "b_size": 2, "table": [[0, 1], [1, 0]]}
        code, out, err = run_task_file(capsys, tmp_path, "bound", doc)
        assert (code, out, err) == (2, "", f"error: name must be a string, got {name!r}\n")

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

    def test_null_table_exits_2(self, capsys, tmp_path):
        doc = {"name": "t", "x_size": 2, "y_size": 2, "b_size": 2, "table": None}
        code, out, err = run_task_file(capsys, tmp_path, "bound", doc)
        assert (code, out, err) == (2, "", "error: table must be a sequence of rows\n")

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

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            '{"name": "t", "x_size": 1, "y_size": 1, "b_size": 2, "table": '
            + "[" * 5000 + "1" + "]" * 5000 + "}",
        ],
        ids=["bare-array", "explicit-table"],
    )
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, text):
        path = tmp_path / "task.json"
        path.write_text(text)
        code, _, err = run(capsys, "bound", "--task-file", str(path))
        assert code == 2
        assert err == f"error: task document in {path} is nested too deeply\n"


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


def at_most(run, name, limit):
    """``run``, failing with AssertionError when its argument ``name`` is
    above ``limit``: a fuzzer draws only counts that are small or above a
    cap, so a missing cap fails at once instead of running the count."""
    signature = inspect.signature(run)

    @functools.wraps(run)  # the signature of a guard over a guard is still run's
    def guarded(*args, **kwargs):
        count = signature.bind(*args, **kwargs).arguments[name]
        assert count <= limit, f"{run.__name__} was asked for {name}={count}"
        return run(*args, **kwargs)

    return guarded


class TestVerifyFlagFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        # at most 3 instances run; above the cap the refusal comes first
        st.integers(-3, 3) | st.integers(100001, 10**30),
        st.integers(-2, 20) | st.integers(-(2**70), 2**70),
        st.integers(-3, 3) | st.integers(-(2**70), 2**70),
        st.sampled_from(["gentle", "sequential", "learning", "all"]),
        st.booleans(),
    )
    @example(100001, 8, 0, "all", False)  # only --instances is out of range
    @example(10**30, 2, 2**70, "gentle", True)
    def test_any_flag_set_exits_cleanly(
        self, capsys, monkeypatch, instances, max_dim, seed, campaign, as_json
    ):
        from sfebounds import measurements

        # without a cap, a drawn count above it would run here: fail instead
        monkeypatch.setattr(measurements, "run_campaign", at_most(measurements.run_campaign, "instances", 3))
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
        assert (code == 2) == (not 0 <= instances <= 100000 or not 2 <= max_dim <= 16 or seed < 0)


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
    table, if built, has at most 10^4 cells.  --trials and --samples are
    small, or above their caps and refused before any work.  Each optional
    flag is given with probability ``odds``: 7/8 for the task flags, 1/2
    for the others."""

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
        samples = st.integers(2, 300) | st.integers(0, 1) | st.integers(5 * 10**6 + 1, 10**30)
        argv += sometimes("samples", samples)
        argv += sometimes("ca-min", CA_FLOATS)
        argv += sometimes("ca-max", CA_FLOATS)
        argv += ["--clip"] if draw(st.booleans()) else []
    if command == "simulate-dr":
        trials = st.integers(1, 10**4) | st.integers(-2, 0) | st.integers(MAX_TRIALS + 1, 10**30)
        argv += sometimes("trials", trials)
        argv += sometimes("seed", st.integers(0, 2**70) | st.integers(-(2**70), -1))
    if command == "bound":
        argv += draw(st.sampled_from([[], ["--json"], ["--full-precision"]]))
    elif command != "curve":
        argv += draw(st.sampled_from([[], ["--json"]]))
    return argv


# the ranges the CLI documents, in the order it checks them; a float flag's
# nan and infinities lie outside its range
DOCUMENTED_RANGES = {
    "seed": (0, math.inf),
    "trials": (1, 10**8),
    "samples": (2, 5 * 10**6),
    "ca-min": (1.0, sys.float_info.max),
    "ca-max": (1.0, sys.float_info.max),
}


def first_refused_flag(argv):
    """The first ``--flag=value`` of ``argv`` outside its documented range, or None."""
    given = dict(arg[2:].split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
    for flag, (least, most) in DOCUMENTED_RANGES.items():
        if flag in given:
            value = float(given[flag]) if flag.startswith("ca-") else int(given[flag])
            if not least <= value <= most:
                return flag
    return None


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
    @example(["simulate-dr", "--family=eq", "--n=5", f"--trials={10**30}"])
    @example(["simulate-dr", "--family=eq", "--n=0", "--trials=0"])
    @example(["curve", "--family=eq", "--n=2", f"--samples={10**30}", "--ca-min=-inf"])
    def test_any_flag_set_exits_cleanly(self, capsys, monkeypatch, argv):
        from sfebounds import bounds, dierolling

        # the drawn counts, or the defaults of 200 samples and 10^5 trials
        monkeypatch.setattr(bounds, "emit_curve", at_most(bounds.emit_curve, "samples", 300))
        monkeypatch.setattr(dierolling, "run_honest", at_most(dierolling.run_honest, "trials", 10**5))
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        refused = first_refused_flag(argv)
        if refused is not None:
            assert code == 2 and err.startswith(f"error: --{refused} must be ")
