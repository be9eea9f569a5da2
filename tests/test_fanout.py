"""run_campaign's fan-out: forked children give the serial records, raise
the serial error, and leave no process behind."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from sfebounds import _fanout
from sfebounds import measurements as m

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="fans out only where os.fork and os.sched_getaffinity exist",
)

CAMPAIGNS = [m.gentle_instance, m.sequential_instance, m.learning_instance]
SRC = Path(m.__file__).resolve().parents[1]


@pytest.fixture
def forked(monkeypatch):
    """The pids that os.fork returns to the parent while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def use_cpus(monkeypatch):
    """Sets the number of CPUs the runner sees."""
    return lambda count: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def forks_for(count, cpus):
    return max(min(cpus, count // _fanout.MIN_SLICE), 1) - 1


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial(instance, count, seed, **kwargs):
    return m._records(instance.campaign, [[seed, idx] for idx in range(count)], **kwargs)


@pytest.mark.parametrize("count", [0, 1, 99, 100, 101, 129, 300, 1000])
@pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
def test_records_are_the_serial_records(use_cpus, forked, instance, count):
    # 1x1 matrices (min_dim=1) included: numpy reduces their axes in another order
    for dims in ({}, {"min_dim": 1, "max_dim": 3}):
        want = json.dumps(serial(instance, count, 21, **dims))
        for cpus in (1, 2, 3, 4):
            use_cpus(cpus)
            forked.clear()
            assert json.dumps(m.run_campaign(instance, count, 21, **dims)) == want
            assert len(forked) == forks_for(count, cpus)
    assert_no_children()


def test_slices_are_contiguous_in_index_order(use_cpus):
    use_cpus(4)
    assert _fanout._slices(129) == [range(0, 65), range(65, 129)]
    assert _fanout._slices(1003) == [range(0, 251), range(251, 502), range(502, 753), range(753, 1003)]
    assert _fanout._slices(99) == [range(0, 99)]
    assert _fanout._slices(0) == [range(0, 0)]


def test_stays_in_process_while_another_thread_runs(use_cpus, forked):
    use_cpus(4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        records = m.run_campaign(m.gentle_instance, 300, 2)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forked == []
    assert json.dumps(records) == json.dumps(serial(m.gentle_instance, 300, 2))


def outcome(fn, *args, **kwargs):
    try:
        return json.dumps(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)


# with 2 CPUs the parent runs instances 0-99 and the child 100-199
@pytest.mark.parametrize("bad", [{30}, {150}, {30, 150}, {150, 170}, {99, 100}])
@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_lowest_failing_instance_raises_what_the_serial_run_raises(use_cpus, forked, monkeypatch, bad, error):
    use_cpus(2)
    draw, kernel = m.learning_instance.campaign

    def failing(drawn):
        # a chunk that holds a bad instance raises, naming its lowest
        hit = sorted(d[0][1] for d in drawn if d[0][1] in bad)
        if hit:
            raise error(f"instance {hit[0]} fails")
        return kernel(drawn)

    monkeypatch.setattr(m.learning_instance, "campaign", (draw, failing))
    want = outcome(serial, m.learning_instance, 200, 5)
    assert want[0] is error
    assert outcome(m.run_campaign, m.learning_instance, 200, 5) == want
    assert len(forked) == 1
    assert_no_children()


def test_killed_child_has_its_slice_rerun(use_cpus, forked, monkeypatch):
    use_cpus(3)
    parent = os.getpid()
    draw, kernel = m.sequential_instance.campaign

    def kernel_killed_in_child(drawn):
        if os.getpid() != parent and any(d[0][1] == 250 for d in drawn):
            os.kill(os.getpid(), signal.SIGKILL)
        return kernel(drawn)

    monkeypatch.setattr(m.sequential_instance, "campaign", (draw, kernel_killed_in_child))
    records = m.run_campaign(m.sequential_instance, 300, 9)
    assert len(forked) == 2
    monkeypatch.setattr(m.sequential_instance, "campaign", (draw, kernel))
    assert json.dumps(records) == json.dumps(serial(m.sequential_instance, 300, 9))
    assert_no_children()


class Unpicklable(ValueError):
    """Pickles, but unpickling calls __init__ with the message alone."""

    def __init__(self, message, extra):
        super().__init__(message)


def test_exception_that_does_not_unpickle_is_raised_by_the_rerun(use_cpus, forked, monkeypatch):
    use_cpus(2)
    draw, kernel = m.gentle_instance.campaign

    def failing(drawn):
        if any(d[0][1] == 150 for d in drawn):
            raise Unpicklable("instance 150 fails", None)
        return kernel(drawn)

    monkeypatch.setattr(m.gentle_instance, "campaign", (draw, failing))
    with pytest.raises(Unpicklable, match="^instance 150 fails$"):
        m.run_campaign(m.gentle_instance, 200, 3)
    assert_no_children()


def test_slice_whose_fork_fails_runs_in_the_parent(use_cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    use_cpus(4)
    monkeypatch.setattr(os, "fork", no_fork)
    records = m.run_campaign(m.learning_instance, 300, 8)
    assert json.dumps(records) == json.dumps(serial(m.learning_instance, 300, 8))


def test_no_child_outlives_an_interrupt(use_cpus, forked, monkeypatch):
    # the child sleeps in its slice; the parent is interrupted in its own
    use_cpus(2)
    parent = os.getpid()
    draw, kernel = m.gentle_instance.campaign

    def interrupted(drawn):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(m.gentle_instance, "campaign", (draw, interrupted))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        m.run_campaign(m.gentle_instance, 200, 4)
    assert time.monotonic() - start < 30
    assert len(forked) == 1
    assert_no_children()


def test_fork_warning_of_threaded_processes_is_ignored(use_cpus, forked, monkeypatch):
    # Python 3.12+ warns on fork whenever the OS counts more than one
    # thread; the tests turn warnings into errors
    use_cpus(2)
    counting_fork = os.fork

    def warning_fork():
        message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child."
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return counting_fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    records = m.run_campaign(m.gentle_instance, 100, 6)
    assert len(forked) == 1
    assert json.dumps(records) == json.dumps(serial(m.gentle_instance, 100, 6))


def run_python(code, *args):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=env, timeout=120, check=True
    ).stdout


# stdout is a pipe, so Python buffers it: a child that flushed the buffer it
# inherited would print "before" twice
BUFFERED_CHILD = """
import os, sys
from sfebounds import measurements
assert not (sys.stdout.write_through or sys.stdout.line_buffering)
os.sched_getaffinity = lambda pid: {0, 1, 2}
print("before")
records = measurements.run_campaign(measurements.gentle_instance, 300, 0)
print("after", len(records))
"""


def test_buffered_stdout_is_written_once():
    assert run_python(BUFFERED_CHILD) == b"before\nafter 300\n"


CLI_CHILD = """
import os, sys
from sfebounds import cli
cpus = sorted(os.sched_getaffinity(0))
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {cpus[0]})
sys.exit(cli.main(["verify-lemmas", "--json", "--instances", "300", "--max-dim", "5", "--seed", "4"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_cli_output_does_not_depend_on_the_cpus():
    one, every = run_python(CLI_CHILD, "one"), run_python(CLI_CHILD, "all")
    assert one == every
    assert len(one.splitlines()) == 900
