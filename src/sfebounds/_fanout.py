"""Run a campaign's instances in forked helper processes, one per CPU.

``run_slices(run, count, *args)`` gives ``run(range(count), *args)``, for a
module-level function ``run`` that maps a range of instance indices to
their records.  It cuts the range into contiguous slices in index order,
one per CPU in this process's affinity set and at least ``MIN_SLICE``
indices each, sends each slice after the first to a helper, runs the first
slice itself, and then appends the helpers' records in slice order.  A
campaign's instances draw from their own seeded streams and its runner
gives the same records however the indices are cut, so the records are
those of one process, byte for byte.

Helpers live as long as the process.  The first call that fans out forks
one helper per extra slice; later calls reuse them, and fork another only
when a call has more slices than there are helpers.  A call sends each
helper a request, ``(run, args)`` and then its slice, pickled, in which
``run`` and the instance function in ``args`` go by reference, and reads
back the pickled records.  A helper is this process as it was when it was
forked: it runs the package's code and module state of that moment, so a
later change to a module, such as a test's monkeypatch, does not reach it.
A test that patches what a slice runs therefore starts from new helpers,
and ends them again when it is done.

A helper points its stdin, stdout and stderr at /dev/null, holds no other
helper's pipes, and leaves only through ``os._exit``: it never returns
into the caller's frames or flushes the stdio buffers it inherited.  It
exits when its request pipe closes (this process closed it, or died) or
when a request fails.  A helper that sends no whole list of records (it
raised, was killed, or its records did not pickle) or that could not be
started has its slice run again here, and is then killed, reaped and
dropped; if anything raises here, the helpers still busy are killed and
reaped.  The runner is deterministic, so a rerun gives the records the
helper would have sent, or raises what the slice raises, and a campaign
raises what one process raises.  A request that does not pickle runs
whole in this process and leaves the helpers as they are.  An ``atexit``
hook closes, kills and reaps the helpers left, so none outlives the
process; an unreaped helper keeps its pid, so a kill can reach no other
process.  While SIGCHLD is ignored (``SIG_IGN``), the kernel reaps a
helper as soon as it exits, and its pid is free for another process:
then every call runs in this process, and ending a helper only closes
its pipes, on which the idle helper exits.  A process forked from this
one closes its copies of the helpers' pipes and forgets them, as they
are not its children.

Why helpers are kept: on a 2-vCPU VM a fork cost a 100-instance campaign
12-14 ms of its critical path, more than its second slice saved.  The
fork itself took 0.7 ms, the child started 2.1 ms after it, a slice of 50
learning instances then ran in 40 ms there against 28-30 ms in the warm
parent (about 950 copy-on-write faults), and reaping it took 1.6 ms.  A helper pays that
once per process.

Processes, not threads: the kernels run Python between numpy calls, and
two threads ran at about 0.9 times serial speed.  Fork, not spawn: a
spawned child would import numpy and the package again, which takes longer
than a 100-instance campaign.  Fork is safe only while no other Python
thread runs, so the runner stays in-process unless it is called from the
main thread with no other thread alive; it also stays there on one CPU
(``taskset -c 0``), below ``2 * MIN_SLICE`` indices, while SIGCHLD is
ignored, and where the platform lacks ``os.fork`` or
``os.sched_getaffinity``.  Both the thread and the SIGCHLD guard are
checked on every call.
"""

from __future__ import annotations

import atexit
import itertools
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
        and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN
    ):
        workers = max(1, min(len(os.sched_getaffinity(0)), count // MIN_SLICE))
    size, extra = divmod(count, workers)
    starts = [i * size + min(i, extra) for i in range(workers + 1)]
    return [range(start, stop) for start, stop in zip(starts, starts[1:])]


class _Helper:
    """A forked helper and this process's ends of its two pipes.  ``busy``
    from a request until a whole list of records came back."""

    def __init__(self, pid: int, requests: int, replies: int):
        self.pid = pid
        self.requests = requests
        self.replies = open(replies, "rb")
        self.busy = False

    def ask(self, request: bytes) -> None:
        """Send a pickled request.  A helper that is gone gets nothing and
        answers nothing."""
        self.busy = True
        try:
            view = memoryview(request)
            while view:
                view = view[os.write(self.requests, view) :]
        except BrokenPipeError:
            pass

    def answer(self) -> list | None:
        """The helper's records, or None if its pipe closed before a whole
        pickle came through."""
        try:
            records = pickle.load(self.replies)
        except (EOFError, pickle.UnpicklingError):
            return None
        self.busy = False
        return records

    def close(self) -> None:
        os.close(self.requests)
        self.replies.close()

    def end(self) -> None:
        """Close the pipes, then kill and reap the helper.  While SIGCHLD
        is ignored, no call fans out, so the helper is idle and exits on
        its closed request pipe; the kernel reaps it then, and its pid may
        already be another process's, so it is neither killed nor waited
        for."""
        self.close()
        if signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


_helpers: list[_Helper] = []  # this process's live helpers, idle between calls


def _serve(requests: int, replies: int) -> None:
    """A helper's life: send the records of each request's slice, until the
    request pipe closes."""
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    with open(requests, "rb") as inbox, open(replies, "wb") as outbox:
        while True:
            try:
                run, args = pickle.load(inbox)
                part = pickle.load(inbox)
            except EOFError:
                return
            pickle.dump(run(part, *args), outbox, pickle.HIGHEST_PROTOCOL)
            outbox.flush()


def _start() -> _Helper | None:
    """Fork a helper; None if no process could be started."""
    requests, to_helper = os.pipe()
    from_helper, replies = os.pipe()
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
    except BaseException as exc:
        for fd in (requests, to_helper, from_helper, replies):
            os.close(fd)
        if isinstance(exc, OSError):
            return None
        raise
    if pid != 0:
        os.close(requests)
        os.close(replies)
        return _Helper(pid, to_helper, from_helper)
    try:
        os.close(to_helper)
        os.close(from_helper)
        _serve(requests, replies)
    finally:
        os._exit(0)


def _forget() -> None:
    """In a forked child: close the copies of the helpers' pipes, which
    are this process's and not the child's."""
    for helper in _helpers:
        helper.close()
    _helpers.clear()


def _stop() -> None:
    """Close, kill and reap every helper."""
    while _helpers:
        _helpers.pop().end()


atexit.register(_stop)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)


def run_slices(run: Callable[..., list], count: int, *args) -> list:
    """``run(range(count), *args)``, with every slice after the first run
    in a helper."""
    first, *rest = _slices(count)
    try:
        request = pickle.dumps((run, args), pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        first, rest = range(count), []
    while len(_helpers) < len(rest) and (helper := _start()) is not None:
        _helpers.append(helper)
    asked = _helpers[: len(rest)]
    try:
        for part, helper in zip(rest, asked):
            helper.ask(request + pickle.dumps(part, pickle.HIGHEST_PROTOCOL))
        records = run(first, *args)
        for part, helper in itertools.zip_longest(rest, asked):
            value = None if helper is None else helper.answer()
            records += run(part, *args) if value is None else value
        return records
    finally:
        for helper in asked:
            if helper.busy:
                _helpers.remove(helper)
                helper.end()
