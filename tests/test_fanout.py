"""run_campaign's fan-out: helper processes give the serial records, raise
the serial error, are forked once per process, and leave no process
behind.

A helper runs the module as it was when it was forked, so a test that
patches what a slice runs (an instance's ``campaign``) starts from new
helpers and ends them when it is done: the ``fresh_helpers`` fixture, which
``forked`` uses."""

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
def fresh_helpers():
    """No helper before the test, and none forked in it left after it."""
    _fanout._stop()
    yield
    _fanout._stop()


@pytest.fixture
def forked(monkeypatch, fresh_helpers):
    """The pids that os.fork returns to the parent while the test runs,
    from no helpers."""
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


def helper_pids():
    return [helper.pid for helper in _fanout._helpers]


def assert_only_helpers_left(forked):
    """Each forked process is a live helper, or was reaped."""
    live = helper_pids()
    assert set(live) <= set(forked)
    for pid in forked:
        if pid in live:
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)
        else:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


def assert_no_children_after_stop():
    _fanout._stop()
    assert _fanout._helpers == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial(instance, count, seed, **kwargs):
    return m._records(instance.campaign, [[seed, idx] for idx in range(count)], **kwargs)


@pytest.mark.parametrize("count", [0, 1, 99, 100, 101, 129, 300, 1000])
@pytest.mark.parametrize("instance", CAMPAIGNS, ids=lambda fn: fn.__name__)
def test_records_are_the_serial_records(use_cpus, forked, instance, count):
    # max_dim reaches the draws of every slice; each helper is forked once,
    # by the first campaign with a slice for it
    wants = [json.dumps(serial(instance, count, 21, **dims)) for dims in ({}, {"max_dim": 3})]
    for cpus in (1, 2, 3, 4):
        use_cpus(cpus)
        for dims, want in zip(({}, {"max_dim": 3}), wants):
            assert json.dumps(m.run_campaign(instance, count, 21, **dims)) == want
            assert len(forked) == len(_fanout._helpers) == forks_for(count, cpus)
    assert helper_pids() == forked
    assert_no_children_after_stop()


def test_three_campaigns_fork_each_helper_once(use_cpus, forked):
    use_cpus(3)
    for instance in CAMPAIGNS:
        records = m.run_campaign(instance, 300, 7)
        assert json.dumps(records) == json.dumps(serial(instance, 300, 7))
    assert len(forked) == 2
    assert helper_pids() == forked
    assert_only_helpers_left(forked)
    assert_no_children_after_stop()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd")
def test_helpers_stdio_is_dev_null(use_cpus, forked):
    use_cpus(2)
    m.run_campaign(m.gentle_instance, 100, 1)
    (pid,) = helper_pids()
    assert [os.readlink(f"/proc/{pid}/fd/{fd}") for fd in (0, 1, 2)] == [os.devnull] * 3


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
    # the helper raised, or was busy when the parent raised: it is reaped
    assert len(forked) == 1
    assert _fanout._helpers == []
    assert_only_helpers_left(forked)


class Unpicklable(ValueError):
    """Pickles, but unpickling calls __init__ with the message alone."""

    def __init__(self, message, extra):
        super().__init__(message)


def holds(drawn, idx):
    return any(d[0][1] == idx for d in drawn)


def kill_in_child(drawn, in_child):
    if in_child and holds(drawn, 250):
        os.kill(os.getpid(), signal.SIGKILL)


def raise_unpicklable(drawn, in_child):
    if holds(drawn, 150):
        raise Unpicklable("instance 150 fails", None)


def raise_in_child(drawn, in_child):
    if in_child:
        raise ValueError("fails in the child only")


def no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize(
    "cpus, instance, count, seed, fault, left",
    [
        pytest.param(3, m.sequential_instance, 300, 9, kill_in_child, 1, id="killed"),
        pytest.param(2, m.gentle_instance, 200, 3, raise_unpicklable, 0, id="unpicklable"),
        pytest.param(4, m.learning_instance, 300, 8, None, 0, id="fork-fails"),
        pytest.param(2, m.gentle_instance, 200, 3, raise_in_child, 0, id="raises-in-child-only"),
    ],
)
def test_slice_no_child_sends_is_rerun_in_the_parent(
    use_cpus, forked, monkeypatch, cpus, instance, count, seed, fault, left
):
    # fault(drawn, in_child) runs before each kernel call; None: no fork
    # starts.  A helper that sent nothing is reaped; `left` helpers stay
    use_cpus(cpus)
    if fault is None:
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        parent = os.getpid()
        draw, kernel = instance.campaign

        def faulty(drawn):
            fault(drawn, os.getpid() != parent)
            return kernel(drawn)

        monkeypatch.setattr(instance, "campaign", (draw, faulty))
    want = outcome(serial, instance, count, seed)
    assert outcome(m.run_campaign, instance, count, seed) == want
    assert len(forked) == (0 if fault is None else forks_for(count, cpus))
    assert len(_fanout._helpers) == left
    assert_only_helpers_left(forked)
    assert_no_children_after_stop()


@pytest.mark.parametrize("during", [False, True], ids=["between-campaigns", "during-a-slice"])
def test_killed_helper_is_replaced(use_cpus, forked, monkeypatch, during):
    use_cpus(2)
    want = json.dumps(serial(m.gentle_instance, 200, 3))
    parent = os.getpid()
    draw, kernel = m.gentle_instance.campaign

    def killing(drawn):
        # the helper waits in its slice; the parent kills it from its own
        if os.getpid() != parent:
            time.sleep(60)
        elif holds(drawn, 0):
            os.kill(helper_pids()[0], signal.SIGKILL)
        return kernel(drawn)

    if during:
        monkeypatch.setattr(m.gentle_instance, "campaign", (draw, killing))
    else:
        assert json.dumps(m.run_campaign(m.gentle_instance, 200, 3)) == want
        os.kill(forked[0], signal.SIGKILL)
    # the parent reruns the helper's slice, then reaps and drops it
    assert json.dumps(m.run_campaign(m.gentle_instance, 200, 3)) == want
    assert len(forked) == 1
    assert _fanout._helpers == []
    assert_only_helpers_left(forked)
    # the next campaign forks a new helper, which runs the unpatched kernel
    monkeypatch.setattr(m.gentle_instance, "campaign", (draw, kernel))
    assert json.dumps(m.run_campaign(m.gentle_instance, 200, 3)) == want
    assert len(forked) == 2
    assert helper_pids() == forked[1:]
    assert_only_helpers_left(forked)
    assert_no_children_after_stop()


def test_no_child_outlives_an_interrupt(use_cpus, forked, monkeypatch):
    # campaign seed 99: the helper sleeps in its slice and the parent is
    # interrupted in its own; the helper that got no slice stays
    use_cpus(3)
    parent = os.getpid()
    draw, kernel = m.gentle_instance.campaign

    def interrupted(drawn):
        if drawn[0][0][0] != 99:
            return kernel(drawn)
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(m.gentle_instance, "campaign", (draw, interrupted))
    assert json.dumps(m.run_campaign(m.gentle_instance, 300, 4)) == json.dumps(serial(m.gentle_instance, 300, 4))
    assert len(forked) == 2
    use_cpus(2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        m.run_campaign(m.gentle_instance, 200, 99)
    assert time.monotonic() - start < 30
    assert len(forked) == 2
    assert helper_pids() == forked[1:]
    assert_only_helpers_left(forked)
    assert_no_children_after_stop()


def test_request_that_does_not_pickle_runs_in_the_parent(use_cpus, forked):
    class Dim(int):
        """A max_dim of a local class, which pickle cannot send."""

    use_cpus(2)
    want = json.dumps(serial(m.gentle_instance, 200, 3, max_dim=5))
    for max_dim in (5, Dim(5), 5):
        assert json.dumps(m.run_campaign(m.gentle_instance, 200, 3, max_dim=max_dim)) == want
    assert len(forked) == 1
    assert helper_pids() == forked
    assert_only_helpers_left(forked)
    assert_no_children_after_stop()


def test_a_forked_child_leaves_the_helpers_alone(use_cpus, forked):
    # the child forgets the helpers, so stopping them there reaches none
    use_cpus(2)
    want = json.dumps(serial(m.gentle_instance, 100, 2))
    assert json.dumps(m.run_campaign(m.gentle_instance, 100, 2)) == want
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 2 if _fanout._helpers else 0
            _fanout._stop()
        finally:
            os._exit(code)
    forked.remove(pid)
    assert os.waitpid(pid, 0)[1] == 0
    assert json.dumps(m.run_campaign(m.gentle_instance, 100, 2)) == want
    assert len(forked) == 1
    assert helper_pids() == forked
    assert_only_helpers_left(forked)
    assert_no_children_after_stop()


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


def python_env():
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, env=python_env(), timeout=120, check=True
    ).stdout


def test_no_process_outlives_a_command():
    # the helpers hold no copy of the command's stdout, and are reaped
    # before it exits: its process group is empty once it has been reaped
    proc = subprocess.Popen(
        [sys.executable, "-m", "sfebounds", "verify-lemmas", "--instances", "200", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=python_env(),
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert (proc.returncode, err) == (0, b"")
    assert len(out.splitlines()) == 600
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


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
