"""Command-line front end: bounds, baselines, curves, verification, simulation.

Commands are deterministic given their full flag set (seeds included) and
emit byte-identical output across runs.  Exit codes: 0 success, 2 invalid
task/file/range or out of memory, 3 completely-insecure task (baseline
already 1), 4 a violation in a verify-lemmas campaign or brand's two
baselines disagreeing.

Each command returns its whole output, and ``main`` writes it once, to --out
(relative paths resolve against $SFEBOUNDS_OUT_DIR when set) or to stdout.
Each command accepts only the flags it reads, and refuses any other with its
own usage: all take --out, all but curve (always CSV) take --json, and only
bound takes --full-precision.  ``FLAG_RANGES`` is the one place that knows
what each numeric flag beside the task's accepts, and a count flag's entry is
the library's own ``tasks.COUNT_RANGES`` entry, so the two cannot drift:
``_check_flags`` refuses a value outside it, or a float flag that is nan or
infinite, before the command does any work, and each of these flags' --help
states its range from it.  The task flags are checked with the task, as task
files are, and a task flag the task does not take (``--alphabet`` or ``--k``
for a family without that parameter, any of them with --task-file) is a
TaskError.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

# measurements and dierolling, which load numpy, are imported by their commands
from . import bounds, tasks

OUT_DIR_ENV = "SFEBOUNDS_OUT_DIR"

EXIT_OK = 0
EXIT_BAD_TASK = 2
EXIT_INSECURE = 3
EXIT_VIOLATION = 4

# flag -> (least, most) value it accepts, None for no bound; checked in this
# order.  A count flag's entry is the library's own, which bounds its memory.
FLAG_RANGES = {
    "--instances": tasks.COUNT_RANGES["instances"],
    "--max-dim": tasks.COUNT_RANGES["max_dim"],
    "--seed": tasks.COUNT_RANGES["seed"],
    "--trials": tasks.COUNT_RANGES["trials"],
    "--samples": tasks.COUNT_RANGES["samples"],
    "--ca-min": (1.0, None),
    "--ca-max": (1.0, None),
}


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse, with ValueError naming the flag, the first value the command
    was given outside its ``FLAG_RANGES`` range, or a nan or infinite float."""
    for flag, (least, most) in FLAG_RANGES.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is None:
            continue
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
        if most is not None and value > most:
            raise ValueError(f"{flag} must be at most {most}, got {value}")


def _ranged_flag(parser: argparse.ArgumentParser, flag: str, kind, default, text: str) -> None:
    """Register a ``FLAG_RANGES`` flag, its help ending in its range."""
    least, most = FLAG_RANGES[flag]
    span = f"at least {least}" if most is None else f"{least} to {most}"
    parser.add_argument(flag, type=kind, default=default, help=f"{text}; {span}")


def _families_taking(key: str) -> str:
    return "/".join(tag for tag, names in tasks.FAMILY_PARAMS.items() if key in names)


def _add_task_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=tasks.FAMILY_TAGS, help="parametric family tag")
    parser.add_argument(
        "--alphabet", type=int, help=f"alphabet size for {_families_taking('alphabet')}, default 2"
    )
    parser.add_argument("--n", type=int, help="family size parameter")
    parser.add_argument("--k", type=int, help=f"subset size for {_families_taking('k')}")
    parser.add_argument("--task-file", help="JSON task file (explicit table or family form)")


def _task_from_args(args: argparse.Namespace) -> tasks.SfeTask:
    if bool(args.family) == bool(args.task_file):
        raise tasks.TaskError("exactly one of --family and --task-file is required")
    names = () if args.task_file else tasks.FAMILY_PARAMS[args.family]
    flags = {"n": args.n, "alphabet": args.alphabet, "k": args.k}
    for key, value in flags.items():
        if value is not None and key not in names:
            source = "--task-file" if args.task_file else f"--family {args.family}"
            raise tasks.TaskError(f"--{key} does not apply to {source}")
    if args.task_file:
        return tasks.load_task(args.task_file)
    if args.n is None:
        raise tasks.TaskError("--n is required with --family")
    if args.k is None and "k" in names:
        raise tasks.TaskError(f"--k is required with --family {args.family}")
    if args.alphabet is None:
        flags["alphabet"] = 2
    return tasks.make_family(args.family, **{key: flags[key] for key in flags if key in names})


def _write(raw: str, text: str) -> None:
    """Write ``text`` to the file at ``raw``, relative to $SFEBOUNDS_OUT_DIR when set."""
    path = Path(raw)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _fmt(value: float, args: argparse.Namespace) -> str:
    return repr(value) if args.full_precision else bounds.present(value)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_bound(args: argparse.Namespace) -> tuple[str, int]:
    task = _task_from_args(args)
    report = bounds.bound_report(task)
    if args.json:
        text = _json_line(
            {
                "name": report.name,
                "y_size": report.y_size,
                "b_rand": _rational(report.b_rand),
                "b_rand_float": float(report.b_rand),
                "a_rand": _rational(report.a_rand),
                "a_rand_float": float(report.a_rand),
                "c": report.c,
                "epsilon": report.epsilon,
                "s": report.fixed_point.s,
                "residual": report.fixed_point.residual,
                "iterations": report.fixed_point.iterations,
                "alice_bound": report.alice_bound,
                "bob_bound": report.bob_bound,
                "warnings": [],  # the solve provably never runs out of halvings
            }
        )
    else:
        text = (
            f"task: {report.name}\n"
            f"y_size: {report.y_size}\n"
            f"b_rand: {_rational(report.b_rand)}\n"
            f"a_rand: {_rational(report.a_rand)}\n"
            f"c: {_fmt(report.c, args)}\n"
            f"epsilon: {report.epsilon!r}\n"
            f"alice_bound: {_fmt(report.alice_bound, args)}\n"
            f"bob_bound: {_fmt(report.bob_bound, args)}\n"
        )
    return text, EXIT_OK


def cmd_brand(args: argparse.Namespace) -> tuple[str, int]:
    task = _task_from_args(args)
    closed = tasks.b_rand_closed_form(task) if task.family is not None else None
    brute = tasks.b_rand_bruteforce(task) if task.materialized else None
    ar = tasks.a_rand(task)
    agree = closed == brute if closed is not None and brute is not None else None
    if args.json:
        text = _json_line(
            {
                "name": task.name,
                "x_size": task.x_size,
                "y_size": task.y_size,
                "a_rand": _rational(ar),
                "b_rand_closed_form": _rational(closed) if closed is not None else None,
                "b_rand_bruteforce": _rational(brute) if brute is not None else None,
                "agree": agree,
            }
        )
    else:
        lines = [f"task: {task.name}", f"a_rand: {_rational(ar)}"]
        if closed is not None:
            lines.append(f"b_rand (closed form): {_rational(closed)}")
        if brute is not None:
            lines.append(f"b_rand (brute force): {_rational(brute)}")
        if agree is not None:
            lines.append(f"agree: {'yes' if agree else 'NO'}")
        text = "".join(f"{line}\n" for line in lines)
    return text, EXIT_VIOLATION if agree is False else EXIT_OK


def cmd_curve(args: argparse.Namespace) -> tuple[str, int]:
    task = _task_from_args(args)
    points = bounds.emit_curve(
        tasks.b_rand(task),
        task.y_size,
        samples=args.samples,
        ca_min=args.ca_min,
        ca_max=args.ca_max,
        clip_below_one=args.clip,
    )
    out = io.StringIO()
    bounds.write_curve_csv(points, out)
    return out.getvalue(), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from . import measurements

    chosen = ("gentle", "sequential", "learning") if args.campaign == "all" else (args.campaign,)
    summary, violations, records_out = "", 0, []
    for name in chosen:
        instance = getattr(measurements, f"{name}_instance")
        max_dim = args.max_dim if name == "gentle" else min(args.max_dim, 6)
        records = measurements.run_campaign(instance, args.instances, args.seed, max_dim=max_dim)
        bad = sum(1 for r in records if not r["holds"])
        violations += bad
        summary += f"{name}: {len(records)} instances, {bad} violations\n"
        records_out.extend({"campaign": name, **r} for r in records)
    # one text for --records and --json, formatted only when one of them asks
    lines = "".join(map(_json_line, records_out)) if args.records or args.json else ""
    if args.records:
        _write(args.records, lines)
    text = lines if args.json else summary + f"total: {violations} violations\n"
    return text, EXIT_VIOLATION if violations else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> tuple[str, int]:
    from . import dierolling

    task = _task_from_args(args)
    stats = dierolling.run_honest(task, args.trials, args.seed)
    if args.json:
        return _json_line(dierolling.stats_to_jsonable(stats)), EXIT_OK
    text = (
        f"task: {task.name}\n"
        f"trials: {stats.trials}\n"
        f"aborts: {stats.abort_count}\n"
        f"tv_distance: {stats.tv_distance_from_uniform!r}\n"
        f"forcing_rate: {stats.forcing_rate!r}\n"
    )
    return text, EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it refuses a flag it does not take with its own usage,
    where the top-level parser would print the list of commands."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfe-bounds",
        description="Cheating-probability lower bounds for secure function evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p_bound = sub.add_parser("bound", help="solve the security constant and both bounds")
    _add_task_flags(p_bound)
    p_bound.set_defaults(fn=cmd_bound)

    p_brand = sub.add_parser("brand", help="black-box baselines (closed form and brute force)")
    _add_task_flags(p_brand)
    p_brand.set_defaults(fn=cmd_brand)

    p_curve = sub.add_parser("curve", help="emit the c_A vs c_B trade-off curve as CSV")
    _add_task_flags(p_curve)
    _ranged_flag(p_curve, "--samples", int, 200, "number of c_A samples")
    _ranged_flag(p_curve, "--ca-min", float, 1.0, "first c_A")
    _ranged_flag(p_curve, "--ca-max", float, None, "last c_A, defaults to the c_B = 1 crossing")
    p_curve.add_argument("--clip", action="store_true", help="drop samples with c_B < 1")
    p_curve.set_defaults(fn=cmd_curve)

    p_verify = sub.add_parser("verify-lemmas", help="randomized measurement-bound campaigns")
    _ranged_flag(p_verify, "--instances", int, 1000, "instances per campaign")
    _ranged_flag(
        p_verify,
        "--max-dim",
        int,
        8,
        "largest matrix dimension, which the sequential and learning campaigns cap at 6",
    )
    _ranged_flag(p_verify, "--seed", int, 0, "campaign seed")
    p_verify.add_argument(
        "--campaign", choices=("gentle", "sequential", "learning", "all"), default="all"
    )
    p_verify.add_argument("--records", help="also write one JSON record per instance to this file")
    p_verify.set_defaults(fn=cmd_verify)

    p_sim = sub.add_parser("simulate-dr", help="honest die-rolling runs over an SFE oracle")
    _add_task_flags(p_sim)
    _ranged_flag(p_sim, "--trials", int, 100000, "number of trials, each holding 16 bytes while it runs")
    _ranged_flag(p_sim, "--seed", int, 0, "trial seed")
    p_sim.set_defaults(fn=cmd_simulate)

    # each command takes exactly the output flags it reads
    for p in (p_bound, p_brand, p_verify, p_sim):
        p.add_argument("--json", action="store_true", help="machine-readable JSON output")
    p_bound.add_argument(
        "--full-precision",
        action="store_true",
        help="text output only: print c and both bounds unrounded (--json always does)",
    )
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        text, code = args.fn(args)
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return code
    except bounds.InsecureTaskError as exc:
        print(f"completely insecure: {exc}", file=sys.stderr)
        return EXIT_INSECURE
    except (tasks.TaskError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_TASK
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_TASK


if __name__ == "__main__":
    sys.exit(main())
