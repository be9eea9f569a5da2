"""sfebounds benchmark: one workload, CLI and library, checked and timed.

    python3 bench/run.py --workload {tables,solve,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source tree (the directory holding ``src/sfebounds``);
nothing needs installing.  With ``--trace 0`` it repeats whole passes of the
workload for at least S seconds and reports the end-to-end metrics, scaled
to the machine's reference speed (README.md, "Machine speed"); with
``--trace 1`` it runs one pass with spans around the program's layers and
reports per-layer metrics.  Every output is checked against bench/reference.py.
The last line of stdout is the JSON result; a copy goes to bench/out/.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
LAUNCHER = BENCH_DIR / "launcher.py"
SETUP_PER_PASS = 3  # cold starts per pass, of `import sfebounds` and of a bare interpreter
PROBES_PER_PASS = 8  # launcher.speed_probe runs per pass
# The speed index of a run is the geometric mean of the median bare
# interpreter start and the median speed probe, neither of which touches
# the program.  This is its typical value on the reference machine (see
# README.md, "Machine speed"); a run's slowdown is its index over this.
REFERENCE_SPEED_INDEX_S = 0.035
TRACE_SETUP_REPS = 7
LAUNCH_TIMEOUT = 170

END_TO_END = {
    "wall_s": "s",
    "cli_p50_ms": "ms",
    "lib_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def launch(steps: list, root: Path) -> tuple:
    """Run steps through launcher.py; return their results and the peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER)],
        input=json.dumps({"steps": steps}).encode(), cwd=root, env=env, capture_output=True, timeout=LAUNCH_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"launcher exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}")
    out = json.loads(proc.stdout)
    return out["results"], out["peak_rss_kb"]


def interleave(*seqs: list) -> list:
    """Merge lists so each one's items are spread evenly over the result."""
    keyed = [((i + 0.5) / len(seq), k, x) for k, seq in enumerate(seqs) for i, x in enumerate(seq)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


def worker_steps(p: workloads.Pass, config: dict, in_process_cli: bool) -> list:
    """One library worker over the pass: its jobs, and in trace mode the
    pass's CLI argv through cli.main, spread over each other."""
    lib = [("lib", i, {"lib": job}) for i, job in enumerate(p.lib)]
    main = [("main", i, {"main": op.argv}) for i, op in enumerate(p.cli)] if in_process_cli else []
    return [("start", 0, {"start": config}), *interleave(lib, main), ("stop", 0, {"stop": True})]


def collect(tagged: list, results: list) -> dict:
    """Results by tag, each in the order of its source list."""
    out = {}
    for (tag, index, _), result in zip(tagged, results, strict=True):
        out.setdefault(tag, {})[index] = result
    return {tag: [by_index[i] for i in sorted(by_index)] for tag, by_index in out.items()}


# ---------------------------------------------------------------------------
# checking one pass
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations; unexpected failures make the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.known = []

    def record(self, what: str, check, known_fault: str = "") -> None:
        """Run one operation's check.  A failure is the known fault only when
        the check fails with a message starting ``known_fault``."""
        self.attempted += 1
        try:
            check()
        except (checks.CheckError, IndexError, KeyError, TypeError, ValueError) as exc:
            self.failed += 1
            if known_fault and isinstance(exc, checks.CheckError) and str(exc).startswith(known_fault):
                self.known.append(f"{what}: {exc}")
            else:
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


def check_cli_op(op: workloads.CliOp, res: dict, campaign_text: dict) -> None:
    checks.expect(res["code"] == 0, f"exit {res['code']}: {res['stderr'][-300:]}")
    text = res["stdout"]
    if op.kind == "bound":
        checks.check_bound(json.loads(text), op.ref)
    elif op.kind == "brand":
        checks.check_brand(json.loads(text), op.ref)
    elif op.kind == "simulate":
        checks.check_honest(json.loads(text), op.ref["y_size"], op.ref["trials"], op.ref["seed"])
    elif op.kind == "curve":
        checks.check_curve(checks.parse_curve_csv(text), op.ref)
    elif op.kind == "verify":
        checks.check_campaign_output(text, op.ref["seed"], op.ref["instances"])
        by_campaign = campaign_text[op.ref["seed"]]
        library_text = "".join(by_campaign[c] for c in ("gentle", "sequential", "learning"))
        checks.expect(text == library_text, "records differ from a library run with the same seed")
    else:
        raise ValueError(f"unknown operation kind {op.kind!r}")


def check_lib_job(job: dict, result: dict) -> None:
    checks.expect("error" not in result, result.get("error", ""))
    op = job["op"]
    if op == "table":
        checks.check_table_job(result, job["ref"], job["trials"], job["seed"])
    elif op == "solve":
        checks.check_bound(result, job["ref"])
        if job["curve"]:
            checks.check_curve(result["curve"], job["ref"])
    elif op in ("gentle", "sequential", "learning"):
        checks.check_own(op, result, workloads.own_instance(job))
    else:
        raise ValueError(f"unknown job {op!r}")


def check_pass(p: workloads.Pass, cli_results: list, lib_results: list, tally: Tally) -> None:
    campaign_text = {}
    for job, out in zip(p.lib, lib_results, strict=True):
        if job["op"] == "campaign":
            lines = out["result"].get("lines", [])
            campaign_text.setdefault(job["seed"], {})[job["campaign"]] = "".join(f"{line}\n" for line in lines)
            what = f"library {job['campaign']} seed {job['seed']}"
            for i, line in enumerate(lines):
                tally.record(f"{what} #{i}", lambda text=line: checks.check_record(json.loads(text)))
            missing = job["instances"] - len(lines)
            if missing:
                tally.attempted += missing
                tally.failed += missing
                tally.errors.append(f"{what}: {missing} records missing {out['result'].get('error', '')}")
        else:
            tally.record(f"library {job['op']} {job.get('ref', {}).get('task', job.get('seed'))}",
                         lambda j=job, r=out["result"]: check_lib_job(j, r), job.get("known_fault", ""))
    for op, res in zip(p.cli, cli_results, strict=True):
        tally.record(" ".join(op.argv), lambda o=op, r=res: check_cli_op(o, r, campaign_text), op.known_fault)


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------


def at_reference_speed(raw: dict, slowdown: float) -> dict:
    """End-to-end metrics as they would read on the machine at reference
    speed: times divided by the run's slowdown, rates multiplied by it."""
    scale = {"wall_s": 1 / slowdown, "cli_p50_ms": 1 / slowdown, "setup_s": 1 / slowdown, "lib_ops_per_s": slowdown}
    return {name: value * scale.get(name, 1.0) for name, value in raw.items()}


def metric_run(workload: str, seed: int, seconds: float, root: Path, out_dir: Path) -> tuple:
    """Whole passes for at least ``seconds``.  Within a pass, library jobs,
    cold starts and speed probes are spread evenly between the CLI calls."""
    tally = Tally()
    setup, bare, probe, peak_kb, pass_walls, cli_walls, lib_seconds, lib_ops = [], [], [], 0, [], [], 0.0, 0
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        p = workloads.make_pass(workload, seed, index, out_dir)
        cli = [("cli", i, {"cli": op.argv}) for i, op in enumerate(p.cli)]
        cold = [("cold", i, {"cold": "import sfebounds"}) for i in range(SETUP_PER_PASS)]
        bare_starts = [("bare", i, {"cold": "pass"}) for i in range(SETUP_PER_PASS)]
        probes = [("probe", i, {"probe": True}) for i in range(PROBES_PER_PASS)]
        steps = worker_steps(p, {}, False)
        tagged = [steps[0], *interleave(cli, steps[1:-1], cold, bare_starts, probes), steps[-1]]
        results, peak = launch([step for _, _, step in tagged], root)
        got = collect(tagged, results)
        check_pass(p, got["cli"], got["lib"], tally)
        setup += [r["seconds"] for r in got["cold"]]
        bare += [r["seconds"] for r in got["bare"]]
        probe += [r["seconds"] for r in got["probe"]]
        peak_kb = max(peak_kb, peak)
        cli_s = [r["seconds"] for r in got["cli"]]
        lib_s = sum(r["seconds"] for r in got["lib"])
        cli_walls += cli_s
        pass_walls.append(sum(cli_s) + lib_s)
        lib_seconds += lib_s
        lib_ops += sum(workloads.lib_op_count(job) for job in p.lib)
        index += 1
    raw = {
        "wall_s": statistics.median(pass_walls),
        "cli_p50_ms": 1000.0 * statistics.median(cli_walls),
        "lib_ops_per_s": lib_ops / max(lib_seconds, 1e-9),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    speed_index = math.sqrt(statistics.median(bare) * statistics.median(probe))
    slowdown = speed_index / REFERENCE_SPEED_INDEX_S
    info = {"passes": index, "cli_calls": len(cli_walls), "slowdown": slowdown, "raw": raw}
    info["samples"] = {"pass_walls": pass_walls, "cli_walls": cli_walls, "setup": setup, "bare": bare, "probe": probe}
    return at_reference_speed(raw, slowdown), dict(END_TO_END), tally, info


def traced_run(workload: str, seed: int, root: Path, out_dir: Path) -> tuple:
    """One pass: the CLI as subprocesses, then two warm workers in turn,
    one untraced and one traced, each running the pass's argv through
    cli.main and its library jobs.  Per-layer figures come from the traced
    worker; the overhead is its time minus the untraced worker's."""
    p = workloads.make_pass(workload, seed, 0, out_dir)
    trace_path = out_dir / f"trace-{workload}-s{seed}.json"
    tagged = [("cold", i, {"cold": code}) for i, code in enumerate(["import sfebounds", "pass"] * TRACE_SETUP_REPS)]
    tagged += [("cli", i, {"cli": op.argv}) for i, op in enumerate(p.cli)]
    for side, config in (("plain", {}), ("traced", {"trace_path": str(trace_path)})):
        tagged += [(f"{tag}-{side}", i, step) for tag, i, step in worker_steps(p, config, True)]
    results, _ = launch([step for _, _, step in tagged], root)
    got = collect(tagged, results)

    tally = Tally()
    check_pass(p, got["cli"], got["lib-traced"], tally)
    for side in ("plain", "traced"):
        for op, res, main in zip(p.cli, got["cli"], got[f"main-{side}"], strict=True):
            if main["sha256"] != res["sha256"] or main["code"] != res["code"]:
                tally.errors.append(f"{' '.join(op.argv)}: in-process cli.main output differs from the subprocess")

    def worker_seconds(side: str) -> float:
        return sum(r["seconds"] for r in got[f"main-{side}"] + got[f"lib-{side}"])

    overhead = worker_seconds("traced") - worker_seconds("plain")
    cold = [r["seconds"] for r in got["cold"]]
    metrics = {
        "cli.import_s": statistics.median(cold[0::2]) - statistics.median(cold[1::2]),
        "cli.process_s": sum(r["seconds"] for r in got["cli"]) - sum(r["seconds"] for r in got["main-plain"]),
        **got["stop-traced"][0]["trace"],
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / worker_seconds("plain"),
    }
    units = {name: per_layer_unit(name) for name in metrics}
    return metrics, units, tally, {"trace_file": trace_path.relative_to(root).as_posix()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sfebounds" / "__init__.py").is_file():
        print(f"error: no src/sfebounds under {root}; run from the root of the source tree", file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)

    if args.trace:
        metrics, units, tally, info = traced_run(args.workload, args.seed, root, out_dir)
    else:
        metrics, units, tally, info = metric_run(args.workload, args.seed, args.seconds, root, out_dir)

    for known in tally.known:
        print(f"failed as known: {known}", file=sys.stderr)
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)
    samples = info.pop("samples", None)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {json.dumps(info)}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6f} {units[name]}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    line = json.dumps(result)
    (out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "info": info, "samples": samples}) + "\n", encoding="utf-8"
    )
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
