"""Run a campaign's instances in forked processes, one per CPU.

``run_slices(run, count)`` gives ``run(range(count))``, for a serial
runner ``run`` that maps a range of instance indices to their records.  It
cuts the range into contiguous slices in index order, one per CPU in this
process's affinity set and at least ``MIN_SLICE`` indices each, forks one
child for each slice after the first, runs the first slice itself, and then
appends the children's records in slice order.  A campaign's instances draw
from their own seeded streams and its runner gives the same records however
the indices are cut, so the records are those of one process, byte for
byte.

A child runs ``run`` on its slice, pickles its records, or the exception it
raised, to a pipe, and leaves through ``os._exit`` whatever happens: it
never returns into the caller's frames or flushes the stdio buffers it
inherited.  Each slice raises for its own lowest-index failing instance,
and the parent raises the first exception in slice order, so a campaign
raises what its lowest-index failing instance raises.  A child that ends
without a whole result (killed, or with an exception that does not come
back whole), or that could not be started, has its slice run again in the
parent.  Every child is killed and reaped before ``run_slices`` returns or
raises; an unreaped child keeps its pid, so the kill can reach no other
process.

Processes, not threads: the kernels run Python between numpy calls, and
two threads ran at about 0.9 times serial speed.  Fork, not spawn: a
spawned child would import numpy and the package again, which takes longer
than a 100-instance campaign.  Fork is safe only while no other Python
thread runs, so the runner stays in-process unless it is called from the
main thread with no other thread alive; it also stays there on one CPU
(``taskset -c 0``), below ``2 * MIN_SLICE`` indices, and where the
platform lacks ``os.fork`` or ``os.sched_getaffinity``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings
from typing import Callable

MIN_SLICE = 50  # smaller slices save less than a fork costs


def _slices(count: int) -> list[range]:
    """``range(count)`` cut into one contiguous slice per worker, the
    larger slices first."""
    workers = 1
    if (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and threading.current_thread() is threading.main_thread()
        and threading.active_count() == 1
    ):
        workers = max(1, min(len(os.sched_getaffinity(0)), count // MIN_SLICE))
    size, extra = divmod(count, workers)
    starts = [i * size + min(i, extra) for i in range(workers + 1)]
    return [range(start, stop) for start, stop in zip(starts, starts[1:])]


def _fork(run: Callable[[range], list], part: range) -> tuple[int | None, int]:
    """Start a child that sends the outcome of ``run(part)`` down a pipe;
    return its pid, None if no child could be started, and the pipe's read
    end."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns whenever the OS counts another thread, and
            # OpenBLAS's worker always counts; OpenBLAS's pthread_atfork
            # handler stops its workers before the fork, and no other thread
            # runs Python (see _slices)
            warnings.filterwarnings(
                "ignore",
                r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks",
                DeprecationWarning,
            )
            pid = os.fork()
    except OSError:
        pid = None  # the pipe then reads as a child that sent nothing
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid != 0:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        try:
            outcome = True, run(part)
        except Exception as exc:
            # an exception that does not come back whole is left to the rerun
            pickle.loads(pickle.dumps(exc))
            outcome = False, exc
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _outcome(read: int):
    """The child's ``(ok, records or exception)`` from its pipe, or None if
    the pipe closed before a whole pickle came through."""
    with open(read, "rb", closefd=False) as pipe:
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None


def run_slices(run: Callable[[range], list], count: int) -> list:
    """``run(range(count))``, with every slice after the first run in a
    forked child."""
    first, *rest = _slices(count)
    children = []  # (pid, read end), each closed, killed and reaped below
    try:
        for part in rest:
            children.append(_fork(run, part))
        records = run(first)
        for part, (_, read) in zip(rest, children):
            ok, value = _outcome(read) or (True, run(part))
            if not ok:
                raise value
            records += value
        return records
    finally:
        for pid, read in children:
            os.close(read)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
