"""A corpus of planted faults, each with the tests that must catch it.

Each mutant replaces one exact text of one file by another, and names the
pytest node ids that must fail on the mutated tree.  It needs the standard
library only, and pytest does not collect it:

    python tests/mutants.py [--only NAME]

For each mutant, the script copies ``src``, ``tests`` and ``pyproject.toml``
to a temporary directory, applies the mutant there and runs only its tests,
``pytest -x``, with ``src`` on the path.  A mutant is

- killed when those tests fail;
- survived when they pass;
- stale when its old text is not found exactly once in its file, or when
  pytest ends otherwise than by passing or failing tests (the mutated
  tree does not import, say), so code that moved cannot let a mutant pass
  quietly.

It first runs every chosen mutant's tests once on the unmutated copy, and
stops with exit 1 unless they pass there: a test that fails anyway kills
nothing, and a renamed test runs nothing.  Then it prints one line per
mutant and exits 1 if any mutant survived or is stale.  A change that
deletes or rewrites a test reruns the corpus, and mends or reports each
survivor or stale entry.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
MEASUREMENTS = "src/sfebounds/measurements.py"
T_MEASUREMENTS = "tests/test_measurements.py"
TASKS = "src/sfebounds/tasks.py"
T_CONSTRUCTORS = "tests/test_tasks.py::TestConstructors"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids, at least one of which must fail
    why: str


MUTANTS = (
    Mutant(
        "matrices-no-mixed-check",
        MEASUREMENTS,
        '    if any(a.shape != matrices[0].shape for a in matrices):\n'
        '        raise ValueError(f"{what} have mixed dimensions")\n',
        "",
        (
            f"{T_MEASUREMENTS}::test_public_refusals[sequential-mixed]",
            f"{T_MEASUREMENTS}::test_public_refusals[encoding-mixed]",
            f"{T_MEASUREMENTS}::test_public_refusals[povm-mixed]",
            f"{T_MEASUREMENTS}::test_public_refusals[combined-mixed]",
        ),
        "every matrix input of measurements takes its shape rule from _matrices",
    ),
    Mutant(
        "matrices-no-empty-check",
        MEASUREMENTS,
        '    if not matrices:\n        raise ValueError(f"{what} must not be empty")\n',
        "",
        (
            f"{T_MEASUREMENTS}::test_public_refusals[povm-empty]",
            f"{T_MEASUREMENTS}::test_public_refusals[encoding-empty]",
            f"{T_MEASUREMENTS}::test_public_refusals[combined-empty]",
        ),
        "a POVM, an encoding and combined_povm refuse an empty input by name",
    ),
    Mutant(
        "encoding-nan-probs",
        MEASUREMENTS,
        "if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-12):",
        "if probs.min() < 0 or abs(probs.sum() - 1.0) > 1e-12:",
        (f"{T_MEASUREMENTS}::test_public_refusals[encoding-nan-probs]",),
        "every comparison with NaN is false, so the min-and-sum test admits a NaN probability",
    ),
    Mutant(
        "scorer-range-off-by-one",
        MEASUREMENTS,
        "value, 0, len(p.elements) - 1)",
        "value, 0, len(p.elements))",
        (f"{T_MEASUREMENTS}::test_public_refusals[learning-function-range]",),
        "a function value one past the last outcome reaches numpy's IndexError",
    ),
    Mutant(
        "scorer-no-shape-rule",
        MEASUREMENTS,
        '    _matrices([p.elements[0] for p in povms], "POVMs")\n    if len(enc.functions) != n:\n',
        "    if len(enc.functions) != n:\n",
        (
            f"{T_MEASUREMENTS}::test_public_refusals[learning-empty]",
            f"{T_MEASUREMENTS}::test_public_refusals[learning-mixed]",
        ),
        "the scorer's POVMs take the shape rule of _matrices, as combined_povm's do",
    ),
    Mutant(
        "record-bound-achieved-swapped",
        MEASUREMENTS,
        '        "bound": bound,\n        "achieved": achieved,\n',
        '        "bound": achieved,\n        "achieved": bound,\n',
        (f"{T_MEASUREMENTS}::TestLearnStrategy::test_random_encodings_all_hold",),
        "every campaign's record takes its bound and its achieved value from one builder",
    ),
    Mutant(
        "validate-stack-argmax",
        MEASUREMENTS,
        'raise ValueError(f"element {int(np.argmin(ok[i]))} is not a measurement operator")',
        'raise ValueError(f"element {int(np.argmax(ok[i]))} is not a measurement operator")',
        (
            f"{T_MEASUREMENTS}::test_public_refusals[povm-bad-element]",
            f"{T_MEASUREMENTS}::TestStackedKernelMatchesLoops::test_first_validation_failure_reported",
        ),
        "a refused POVM names its first bad element by index",
    ),
    Mutant(
        "revealed-required-before-honest",
        "src/sfebounds/dierolling.py",
        '    if learner == "honest":\n        return ys\n'
        "    required = np.negative(bs)\n    required %= task.y_size\n",
        "    required = np.negative(bs)\n    required %= task.y_size\n"
        '    if learner == "honest":\n        return ys\n',
        (
            "tests/test_dierolling.py::test_peak_is_two_trial_arrays[ot-params0-honest]",
            "tests/test_dierolling.py::test_peak_is_two_trial_arrays[ot-params0-cheating_bob_honest]",
        ),
        "the honest run holds two trial arrays; an unread required array is a third",
    ),
    Mutant(
        "task-name-unchecked",
        TASKS,
        "        if not isinstance(name, str):\n"
        '            raise TaskError(f"name must be a string, got {name!r}")\n',
        "",
        (
            "tests/test_tasks.py::TestConstructors::test_non_string_name_refused_first",
            "tests/test_cli.py::TestTaskFileInput::test_non_string_name_exits_2",
        ),
        "a task name is a str, as the task-file form documents",
    ),
    Mutant(
        "task-equality-tags-only",
        TASKS,
        "return (self.family, self.params) == (other.family, other.params)",
        "return self.family == other.family",
        (f"{T_CONSTRUCTORS}::test_equality_compares_table_contents",),
        "family tasks of one tag and other parameters differ",
    ),
    Mutant(
        "family-no-size-cap",
        TASKS,
        "    if kind.bits is not None and kind.bits(**params) > MAX_SIZE_BITS:\n",
        "    if False:\n",
        (f"{T_CONSTRUCTORS}::test_invalid_parameters_rejected[ot-params14]",),
        "a family whose sizes pass 2**MAX_SIZE_BITS is refused before one is computed",
    ),
    Mutant(
        "family-params-not-narrowed",
        TASKS,
        "            params[key] = _integer(key, value, 1)\n",
        "            _integer(key, value, 1)\n",
        (f"{T_CONSTRUCTORS}::test_numpy_integer_params_become_python_ints[int64]",),
        "a task keeps its parameters as Python ints, whatever integer type they came in",
    ),
    Mutant(
        "solver-plain-stop-rule",
        "src/sfebounds/bounds.py",
        "        if below << k <= 2 * lo * q0 * q1 and 2 * hi * q1 * q2 <= above << k:\n",
        "        if lo / (1 << k) == hi / (1 << k):\n",
        ("tests/test_bounds.py::TestSolveFixedPoint::test_halfway_end_of_the_bracket_ends_the_loop",),
        "the plain float(lo) == float(hi) rule misses a bracket end at a halfway point",
    ),
    Mutant(
        "fanout-reversed-slices",
        "src/sfebounds/_fanout.py",
        "    first, *rest = _slices(count)\n",
        "    first, *rest = _slices(count)[::-1]\n",
        (
            "tests/test_fanout.py::test_records_are_the_serial_records[gentle_instance-100]",
            "tests/test_fanout.py::test_records_are_the_serial_records[gentle_instance-300]",
        ),
        "records are appended in slice order, so they are the serial records",
    ),
    Mutant(
        "fanout-no-rerun",
        "src/sfebounds/_fanout.py",
        "            records += run(part, *args) if value is None else value\n",
        "            records += [] if value is None else value\n",
        ("tests/test_fanout.py::test_slice_no_child_sends_is_rerun_in_the_parent",),
        "a slice whose helper sent nothing runs again in this process",
    ),
    Mutant(
        "seed-hash-constant-index",
        MEASUREMENTS,
        "consts[4 + 3 * src : 8 + 3 * src]",
        "consts[5 + 3 * src : 9 + 3 * src]",
        (f"{T_MEASUREMENTS}::TestSeedStates::test_states_and_streams_are_numpys",),
        "the batched seed hash takes numpy's hash constants in numpy's order",
    ),
    Mutant(
        "seed-has-uint32",
        MEASUREMENTS,
        '"has_uint32": 0,',
        '"has_uint32": 1,',
        (
            f"{T_MEASUREMENTS}::TestSeedStates::test_campaign_seeds_are_numpys_and_json_ready",
            f"{T_MEASUREMENTS}::TestCampaignKernels::test_one_generator_at_a_time[learning_instance-1]",
        ),
        # the first 32-bit draw returns the buffered 0, which a range of
        # 2**k, such as a learning draw's rank for dim 2 or 4, accepts
        "a reused generator starts with no buffered 32-bit word, as a fresh one does",
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    """``pytest -x`` on ``tests`` in the copy ``tree``, with its ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def _last_line(done: subprocess.CompletedProcess) -> str:
    return (done.stdout.strip().splitlines() or [""])[-1]


def run(mutant: Mutant) -> tuple[str, str]:
    """The mutant's verdict, ``killed``, ``survived`` or ``stale``, and a
    note for a stale one."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        found = text.count(mutant.old)
        if found != 1:
            return "stale", f"old text found {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        done = _pytest(tree, mutant.tests)
    if done.returncode == 1:
        return "killed", ""
    if done.returncode == 0:
        return "survived", ""
    # 2 to 5: interrupted, internal or usage error, or no tests collected
    return "stale", f"pytest exited {done.returncode}: {_last_line(done)}"


def unmutated_failures(mutants) -> str:
    """pytest's exit code and last line when the mutants' tests do not pass
    on the tree as it is, else the empty string."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        done = _pytest(Path(tmp), dict.fromkeys(t for m in mutants for t in m.tests))
    return "" if done.returncode == 0 else f"pytest exited {done.returncode}: {_last_line(done)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="NAME", help="run only the mutant of this name")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        parser.error(f"no mutant named {args.only!r}")
    failing = unmutated_failures(chosen)
    if failing:
        print(f"the mutants' tests do not pass without a mutant ({failing})")
        return 1
    bad = 0
    for mutant in chosen:
        verdict, note = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:8} {mutant.name}" + (f"  ({note})" if note else ""), flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
