"""Library worker: runs one pass's library jobs in a warm interpreter.

Started by launcher.py with ``src`` on PYTHONPATH, it takes jobs one at a
time over stdin so that they can be spread between the CLI calls of a pass.
Each job is timed around its calls into ``sfebounds`` only; building the
benchmark's own inputs and encoding the results are outside the timed
region.  In trace mode the program's functions are wrapped (spans.py)
after the warm-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

from sfebounds import bounds, cli, dierolling, measurements, tasks

import spans
import workloads

CAMPAIGNS = {
    "gentle": "gentle_instance",
    "sequential": "sequential_instance",
    "learning": "learning_instance",
}


class Stopwatch:
    """Sums the time spent inside ``with watch:`` blocks, also of a block
    left by an exception, so an operation that raises is timed up to the
    raise."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start
        return False


def _stats(stats) -> dict:
    return {
        "trials": stats.trials,
        "histogram": list(stats.outcome_histogram),
        "aborts": stats.abort_count,
        "tv_distance": stats.tv_distance_from_uniform,
        "forcing_rate": stats.forcing_rate,
        "seed": stats.seed,
    }


def _table(job: dict, watch: Stopwatch) -> dict:
    with watch:
        if "path" in job:
            task = tasks.load_task(job["path"])
        else:
            task = tasks.make_family(job["family"], **job["params"])
        violations = tasks.validate_task(task)
        brute = tasks.b_rand_bruteforce(task)
        stats = dierolling.run_honest(task, job["trials"], job["seed"])
    return {
        "x_size": task.x_size,
        "y_size": task.y_size,
        "violations": violations,
        "b_rand": str(brute),
        "stats": _stats(stats),
    }


def _solve(job: dict, watch: Stopwatch) -> dict:
    with watch:
        task = tasks.make_family(job["family"], **job["params"])
        report = bounds.bound_report(task)
        points = bounds.emit_curve(report.b_rand, task.y_size) if job["curve"] else None
    return {
        "b_rand": str(report.b_rand),
        "y_size": report.y_size,
        "c": report.c,
        "epsilon": report.epsilon,
        "alice_bound": report.alice_bound,
        "bob_bound": report.bob_bound,
        "iterations": report.fixed_point.iterations,
        "curve": None if points is None else [[p.c_a, p.c_b] for p in points],
    }


def _campaign(job: dict, watch: Stopwatch) -> dict:
    instance_fn = getattr(measurements, CAMPAIGNS[job["campaign"]])
    with watch:
        records = measurements.run_campaign(instance_fn, job["instances"], job["seed"], max_dim=job["max_dim"])
    lines = [json.dumps({"campaign": job["campaign"], **r}, sort_keys=True) for r in records]
    return {"lines": lines}


def _own(job: dict, watch: Stopwatch) -> dict:
    inst = workloads.own_instance(job)
    if job["op"] == "gentle":
        with watch:
            r = measurements.check_gentle(inst["rho"], inst["lam"])
        return {"epsilon": r.epsilon, "disturbance": r.disturbance, "bound": r.bound, "holds": r.holds}
    if job["op"] == "sequential":
        with watch:
            r = measurements.check_sequential(inst["rho"], inst["lams"])
        return {
            "epsilons": list(r.epsilons),
            "expectation": r.expectation,
            "lower_bound": r.lower_bound,
            "holds": r.holds,
        }
    with watch:
        enc = measurements.QuantumEncoding(
            probs=inst["probs"], states=tuple(inst["states"]), functions=tuple(inst["functions"])
        )
        povms = [measurements.Povm(elements=tuple(e)) for e in inst["povms"]]
        r = measurements.averaged_strategy_success(enc, povms)
    return {
        "individual_success": list(r.individual_success),
        "average": r.average,
        "bound": r.bound,
        "achieved": r.achieved,
        "averaged_bound": r.averaged_bound,
        "holds": r.holds,
    }


HANDLERS = {"table": _table, "solve": _solve, "campaign": _campaign, "gentle": _own, "sequential": _own, "learning": _own}


def warm_up() -> None:
    """First calls of every path, on inputs no workload uses."""
    task = tasks.make_family("ot", alphabet=3, n=2)
    tasks.validate_task(task)
    tasks.b_rand_bruteforce(task)
    dierolling.run_honest(task, 1000, 0)
    report = bounds.bound_report(task)
    bounds.emit_curve(report.b_rand, task.y_size)
    for name in CAMPAIGNS.values():
        getattr(measurements, name)([2**31, 0])
    for op in ("gentle", "sequential", "learning"):
        _own({"op": op, "dim": 2, "n": 2, "seed": [2**31, 1]}, Stopwatch())


def run_main(argv: list) -> dict:
    """cli.main in-process on the argv a CLI call gets, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "code": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def run_job(job: dict) -> dict:
    watch = Stopwatch()
    try:
        result = HANDLERS[job["op"]](job, watch)
    except Exception as exc:  # reported as a failed operation by run.py
        result = {"error": f"{type(exc).__name__}: {exc}"}
    return {"seconds": watch.seconds, "result": result}


def main() -> int:
    """Line protocol: a config line, then one request per line, each
    answered by one line.  A request is {"lib": job}, {"main": argv} or
    {"stop": true}; the answer to stop carries the trace metrics."""
    config = json.loads(sys.stdin.readline())
    warm_up()
    tracer = None
    if config.get("trace_path"):
        tracer = spans.Tracer()
        tracer.install()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if "lib" in request:
            reply = run_job(request["lib"])
        elif "main" in request:
            reply = run_main(request["main"])
        else:
            reply = {"trace": None}
            if tracer is not None:
                reply["trace"] = tracer.metrics()
                tracer.dump(config["trace_path"])
            print(json.dumps(reply), flush=True)
            return 0
        print(json.dumps(reply), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
