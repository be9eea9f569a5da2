"""Command-line front end: bounds, baselines, curves, verification, simulation.

Commands are deterministic given their full flag set (seeds included) and
emit byte-identical output across runs.  Exit codes: 0 success, 2 invalid
task/file/range, 3 completely-insecure task (baseline already 1), 4 a
verification or simulation invariant was violated.

Relative --out paths are resolved against $SFEBOUNDS_OUT_DIR when set.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds, dierolling, measurements, tasks

OUT_DIR_ENV = "SFEBOUNDS_OUT_DIR"

EXIT_OK = 0
EXIT_BAD_TASK = 2
EXIT_INSECURE = 3
EXIT_VIOLATION = 4


def _add_task_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=tasks.FAMILY_TAGS, help="parametric family tag")
    parser.add_argument("--alphabet", type=int, default=2, help="alphabet size for ot/knot")
    parser.add_argument("--n", type=int, help="family size parameter")
    parser.add_argument("--k", type=int, help="subset size for knot")
    parser.add_argument("--task-file", help="JSON task file (explicit table or family form)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable JSON output")
    parser.add_argument(
        "--full-precision", action="store_true", help="disable 4-decimal table rounding"
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _task_from_args(args: argparse.Namespace) -> tasks.SfeTask:
    if bool(args.family) == bool(args.task_file):
        raise tasks.TaskError("exactly one of --family and --task-file is required")
    if args.task_file:
        return tasks.load_task(args.task_file)
    if args.n is None:
        raise tasks.TaskError("--n is required with --family")
    params = {"n": args.n}
    if args.family in ("ot", "knot"):
        params["alphabet"] = args.alphabet
    if args.family == "knot":
        if args.k is None:
            raise tasks.TaskError("--k is required with --family knot")
        params["k"] = args.k
    return tasks.make_family(args.family, **params)


def _resolve_out_path(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@contextlib.contextmanager
def _open_out(args: argparse.Namespace):
    if args.out:
        with open(_resolve_out_path(args.out), "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        yield sys.stdout


def _fmt(value: float, args: argparse.Namespace) -> str:
    return repr(value) if args.full_precision else bounds.present(value)


def _dump_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True))
    out.write("\n")


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cmd_bound(args: argparse.Namespace) -> int:
    task = _task_from_args(args)
    report = bounds.bound_report(task)
    with _open_out(args) as out:
        if args.json:
            payload = {
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
                "warnings": list(report.fixed_point.warnings),
            }
            _dump_json(payload, out)
        else:
            out.write(f"task: {report.name}\n")
            out.write(f"y_size: {report.y_size}\n")
            out.write(f"b_rand: {_rational(report.b_rand)}\n")
            out.write(f"a_rand: {_rational(report.a_rand)}\n")
            out.write(f"c: {_fmt(report.c, args)}\n")
            out.write(f"epsilon: {report.epsilon!r}\n")
            out.write(f"alice_bound: {_fmt(report.alice_bound, args)}\n")
            out.write(f"bob_bound: {_fmt(report.bob_bound, args)}\n")
            for warning in report.fixed_point.warnings:
                out.write(f"warning: {warning}\n")
    return EXIT_OK


def cmd_brand(args: argparse.Namespace) -> int:
    task = _task_from_args(args)
    closed = tasks.b_rand_closed_form(task) if task.family is not None else None
    brute = tasks.b_rand_bruteforce(task) if task.materialized else None
    ar = tasks.a_rand(task)
    with _open_out(args) as out:
        if args.json:
            payload = {
                "name": task.name,
                "x_size": task.x_size,
                "y_size": task.y_size,
                "a_rand": _rational(ar),
                "b_rand_closed_form": _rational(closed) if closed is not None else None,
                "b_rand_bruteforce": _rational(brute) if brute is not None else None,
                "agree": (closed == brute) if closed is not None and brute is not None else None,
            }
            _dump_json(payload, out)
        else:
            out.write(f"task: {task.name}\n")
            out.write(f"a_rand: {_rational(ar)}\n")
            if closed is not None:
                out.write(f"b_rand (closed form): {_rational(closed)}\n")
            if brute is not None:
                out.write(f"b_rand (brute force): {_rational(brute)}\n")
            if closed is not None and brute is not None:
                out.write(f"agree: {'yes' if closed == brute else 'NO'}\n")
    if closed is not None and brute is not None and closed != brute:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    task = _task_from_args(args)
    points = bounds.emit_curve(
        tasks.b_rand(task),
        task.y_size,
        samples=args.samples,
        ca_min=args.ca_min,
        ca_max=args.ca_max,
        clip_below_one=args.clip,
    )
    with _open_out(args) as out:
        bounds.write_curve_csv(points, out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.instances < 0:
        raise ValueError(f"--instances must be at least 0, got {args.instances}")
    if args.max_dim < 2:
        raise ValueError(f"--max-dim must be at least 2, got {args.max_dim}")
    if args.max_dim > 16:  # the measurements layer is written for dim <= 16
        raise ValueError(f"--max-dim must be at most 16, got {args.max_dim}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    chosen = ("gentle", "sequential", "learning") if args.campaign == "all" else (args.campaign,)
    summaries = []
    violations = 0
    records_out = []
    for name in chosen:
        instance = getattr(measurements, f"{name}_instance")
        max_dim = args.max_dim if name == "gentle" else min(args.max_dim, 6)
        records = measurements.run_campaign(instance, args.instances, args.seed, max_dim=max_dim)
        bad = sum(1 for r in records if not r["holds"])
        violations += bad
        summaries.append(f"{name}: {len(records)} instances, {bad} violations")
        records_out.extend({"campaign": name, **r} for r in records)
    if args.records:
        with open(_resolve_out_path(args.records), "w", encoding="utf-8", newline="") as handle:
            for record in records_out:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
    with _open_out(args) as out:
        if args.json:
            for record in records_out:
                _dump_json(record, out)
        else:
            for line in summaries:
                out.write(line + "\n")
            out.write(f"total: {violations} violations\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    task = _task_from_args(args)
    stats = dierolling.run_honest(task, args.trials, args.seed)
    with _open_out(args) as out:
        if args.json:
            _dump_json(dierolling.stats_to_jsonable(stats), out)
        else:
            out.write(f"task: {task.name}\n")
            out.write(f"trials: {stats.trials}\n")
            out.write(f"aborts: {stats.abort_count}\n")
            out.write(f"tv_distance: {stats.tv_distance_from_uniform!r}\n")
            out.write(f"forcing_rate: {stats.forcing_rate!r}\n")
    return EXIT_VIOLATION if stats.abort_count else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfe-bounds",
        description="Cheating-probability lower bounds for secure function evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="solve the security constant and both bounds")
    _add_task_flags(p_bound)
    _add_output_flags(p_bound)
    p_bound.set_defaults(fn=cmd_bound)

    p_brand = sub.add_parser("brand", help="black-box baselines (closed form and brute force)")
    _add_task_flags(p_brand)
    _add_output_flags(p_brand)
    p_brand.set_defaults(fn=cmd_brand)

    p_curve = sub.add_parser("curve", help="emit the c_A vs c_B trade-off curve as CSV")
    _add_task_flags(p_curve)
    _add_output_flags(p_curve)
    p_curve.add_argument("--samples", type=int, default=200)
    p_curve.add_argument("--ca-min", type=float, default=1.0)
    p_curve.add_argument("--ca-max", type=float, default=None, help="defaults to the c_B = 1 crossing")
    p_curve.add_argument("--clip", action="store_true", help="drop samples with c_B < 1")
    p_curve.set_defaults(fn=cmd_curve)

    p_verify = sub.add_parser("verify-lemmas", help="randomized measurement-bound campaigns")
    _add_output_flags(p_verify)
    p_verify.add_argument("--instances", type=int, default=1000)
    p_verify.add_argument("--max-dim", type=int, default=8)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--campaign", choices=("gentle", "sequential", "learning", "all"), default="all"
    )
    p_verify.add_argument("--records", help="also write one JSON record per instance to this file")
    p_verify.set_defaults(fn=cmd_verify)

    p_sim = sub.add_parser("simulate-dr", help="honest die-rolling runs over an SFE oracle")
    _add_task_flags(p_sim)
    _add_output_flags(p_sim)
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except bounds.InsecureTaskError as exc:
        print(f"completely insecure: {exc}", file=sys.stderr)
        return EXIT_INSECURE
    except (tasks.TaskError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_TASK


if __name__ == "__main__":
    sys.exit(main())
