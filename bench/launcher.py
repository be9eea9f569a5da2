"""Starts the program's processes for run.py and reports their peak memory.

Reads one JSON request from stdin, {"steps": [...]}, runs the steps in
order and writes {"results": [...], "peak_rss_kb": n} to stdout, one result
per step.  Steps:

    {"cold": code}          time `python -c code` from start to exit
    {"cli": argv}           time `python -m sfebounds argv`, keep its output
    {"probe": true}         time a fixed piece of pure-Python work
    {"start": config}       start a library worker (libworker.py)
    {"lib": job}, {"main": argv}
                            one request to the running worker
    {"stop": true}          end the worker, return its trace metrics

This process imports only the standard library.  On Linux a child's peak
resident set includes what its parent held when it forked, so run.py,
which holds numpy and scipy for its checks, does not start the measured
processes itself: they are started here, and the peak over this process's
children is the peak of the program's own processes.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

WORKER = Path(__file__).resolve().parent / "libworker.py"
CLI_TIMEOUT = 120


class LaunchError(RuntimeError):
    pass


def _run(argv: list, capture: bool) -> tuple:
    """Run argv to its end; return its wall time, exit code and output.

    The wait is a blocking waitpid.  subprocess.run with a timeout polls
    instead, sleeping up to 50 ms between polls, which would round every
    time measured here up to the next poll.  A timer kills a hung child.
    """
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=pipe, stderr=pipe)
    timer = threading.Timer(CLI_TIMEOUT, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    return time.perf_counter() - start, proc.returncode, out or b"", err or b""


def cold_start(code: str) -> dict:
    seconds, returncode, _, _ = _run([sys.executable, "-c", code], capture=False)
    if returncode != 0:
        raise LaunchError(f"python -c {code!r} exited {returncode}")
    return {"seconds": seconds}


def run_cli(argv: list) -> dict:
    seconds, returncode, out, err = _run([sys.executable, "-m", "sfebounds", *argv], capture=True)
    return {
        "seconds": seconds,
        "code": returncode,
        "stdout": out.decode("utf-8", errors="replace"),
        "stderr": err.decode("utf-8", errors="replace")[-2000:],
        "sha256": hashlib.sha256(out).hexdigest(),
    }


def speed_probe() -> dict:
    """Time a fixed piece of pure-Python work that uses nothing of the
    program: big-integer fraction arithmetic and a string-keyed dict.  How
    long it takes shows how fast the machine runs at that moment."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for _ in range(1500):
        x = (x * x + 1) / (x + 2)
        x = Fraction(x.numerator % 10**30, x.denominator % 10**30 + 1)
    table = {str(i): i * i for i in range(20000)}
    sum(table.values())
    return {"seconds": time.perf_counter() - start}


class Worker:
    def __init__(self, config: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.ask(config)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise LaunchError(f"library worker exited {self.proc.returncode}")
        return json.loads(line)

    def stop(self) -> dict:
        reply = self.ask({"stop": True})
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        return reply


def main() -> int:
    steps = json.load(sys.stdin)["steps"]
    results = []
    worker = None
    try:
        for step in steps:
            if "cold" in step:
                results.append(cold_start(step["cold"]))
            elif "cli" in step:
                results.append(run_cli(step["cli"]))
            elif "probe" in step:
                results.append(speed_probe())
            elif "start" in step:
                worker = Worker(step["start"])
                results.append({})
            elif "stop" in step:
                results.append(worker.stop())
                worker = None
            else:
                results.append(worker.ask(step))
    finally:
        if worker is not None:
            worker.proc.kill()
            worker.proc.wait()
    json.dump({"results": results, "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
