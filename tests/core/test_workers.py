"""The shared process-worker layer (`repro.core.workers`).

Pins the pool semantics both `MatrixRunner` and the shard-session
dispatcher (sharded runs and the multi-tenant server) rely on: the
failure taxonomy, the retry budget, deadline kills, hook contracts, the
inline fast path, and the resident-worker contract (a worker is reused
until an attempt on it fails, then never again; nothing leaks).
"""

import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time

import pytest

from repro.core import workers
from repro.core.workers import (
    WorkerOutcome,
    WorkerPool,
    WorkerTask,
    format_task_error,
    kill_process,
    mp_context,
)
from repro.errors import ConfigurationError
from repro.observability import Tracer

# Pool workers are resident, so a file or socket a run leaves open now
# lives as long as the server: a leak fails here. (Pipe ends and child
# processes raise no ResourceWarning; the fd and zombie counts below
# cover those.)
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs a Linux /proc"
)


def _double(x):
    return x * 2


def _boom(message):
    raise ValueError(message)


def _hard_crash(code):
    os._exit(code)


def _sleepy(seconds):
    time.sleep(seconds)
    return "done"


def _flaky(flag_path):
    """Fails the first attempt, succeeds afterwards (file as state)."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("1")
        raise RuntimeError("first attempt fails")
    return "recovered"


_GLOBAL = {"value": "clean"}


def _read_global():
    return _GLOBAL["value"], os.getpid()


def _dirty_global_then_raise(flag_path):
    """First attempt dirties the module global and raises; the retry reads."""
    if os.path.exists(flag_path):
        return _read_global()
    with open(flag_path, "w") as fh:
        fh.write("1")
    _GLOBAL["value"] = "dirty"
    raise RuntimeError("left a mess")


def _cannot_rebuild():
    raise RuntimeError("cannot rebuild")


class _Unloadable:
    """Pickles in the worker, refuses to unpickle in the parent."""

    def __reduce__(self):
        return (_cannot_rebuild, ())


_WORKER_CONN = None
_real_worker_main = workers._worker_main


def _worker_main_publishing_conn(conn, tasks):
    """Stands in for ``_worker_main``: tasks can reach their worker's pipe."""
    global _WORKER_CONN
    _WORKER_CONN = conn
    _real_worker_main(conn, tasks)


def _die_mid_message():
    """Announce an 8 MiB result, write 1 MiB of it, then SIGKILL ourselves.

    The pipe holds far less than 1 MiB, so the write only returns once
    the parent is inside its read of the body.
    """
    header = struct.pack("!i", 8 << 20)
    os.write(_WORKER_CONN.fileno(), header + b"x" * (1 << 20))
    os.kill(os.getpid(), signal.SIGKILL)


def _wait_for(path):
    """Return once ``path`` exists (the pool's deadline bounds the wait)."""
    while not os.path.exists(path):
        time.sleep(0.01)
    return "released"


def _proc_state(pid):
    """The process state letter from ``/proc/<pid>/stat`` (None when gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


@pytest.fixture
def hard_timeout():
    """Fail the test, rather than hang the suite, after 30 s."""

    def expired(signum, frame):
        raise AssertionError("the pool hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _traced_body(x, tracer):
    tracer.counter("jobs")
    with tracer.span("work", phase="serve"):
        return x + 1


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(workers=0)

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(max_attempts=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(timeout=0)

    def test_backoff_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(retry_backoff=-0.1)


class TestFormatTaskError:
    def test_head_and_traceback_tail(self):
        try:
            _boom("nope")
        except ValueError as exc:
            text = format_task_error(exc)
        assert text.startswith("ValueError: nope")
        assert "_boom" in text


class TestInlineMode:
    def test_empty_task_list(self):
        assert WorkerPool().run([]) == []

    def test_payloads_aligned_with_input(self):
        pool = WorkerPool(workers=1)
        outcomes = pool.run(
            [WorkerTask(fn=_double, args=(i,)) for i in range(4)]
        )
        assert [o.payload for o in outcomes] == [0, 2, 4, 6]
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_inline_runs_in_parent_process(self):
        outcome = WorkerPool(workers=1).run([WorkerTask(fn=os.getpid)])[0]
        assert outcome.payload == os.getpid()
        assert outcome.worker == os.getpid()

    def test_error_taxonomy(self):
        pool = WorkerPool(workers=1, max_attempts=1)
        outcome = pool.run([WorkerTask(fn=_boom, args=("bad",))])[0]
        assert not outcome.ok
        assert outcome.payload is None
        assert outcome.error.startswith("ValueError: bad")

    def test_retry_recovers(self, tmp_path):
        flag = str(tmp_path / "flag")
        pool = WorkerPool(workers=1, max_attempts=2, retry_backoff=0.0)
        outcome = pool.run([WorkerTask(fn=_flaky, args=(flag,))])[0]
        assert outcome.ok
        assert outcome.payload == "recovered"
        assert outcome.attempts == 2

    def test_hooks_fire_in_order(self):
        seen = []
        pool = WorkerPool(workers=1, max_attempts=1)
        pool.run(
            [WorkerTask(fn=_double, args=(1,))],
            on_attempt=lambda i, a: seen.append(("attempt", i, a)),
            on_outcome=lambda o: seen.append(("outcome", o.index, o.ok)),
        )
        assert seen == [("attempt", 0, 1), ("outcome", 0, True)]

    def test_traced_task_carries_trace(self):
        outcome = WorkerPool().run(
            [WorkerTask(fn=_traced_body, args=(41,), traced=True)]
        )[0]
        assert outcome.payload == 42
        assert outcome.trace is not None
        assert outcome.trace["counters"]["jobs"] == 1

    def test_non_picklable_fn_works_inline(self):
        outcome = WorkerPool(workers=1).run(
            [WorkerTask(fn=lambda: "lambda-ok")]
        )[0]
        assert outcome.payload == "lambda-ok"


class TestProcessMode:
    def test_payload_round_trip(self):
        pool = WorkerPool(workers=2)
        outcomes = pool.run(
            [WorkerTask(fn=_double, args=(i,)) for i in range(5)]
        )
        assert [o.payload for o in outcomes] == [0, 2, 4, 6, 8]

    def test_runs_in_child_process(self):
        outcome = WorkerPool(workers=2).run([WorkerTask(fn=os.getpid)])[0]
        assert outcome.payload != os.getpid()
        assert outcome.worker == outcome.payload

    def test_crash_taxonomy_and_budget(self):
        pool = WorkerPool(workers=2, max_attempts=2, retry_backoff=0.0)
        outcome = pool.run([WorkerTask(fn=_hard_crash, args=(17,))])[0]
        assert not outcome.ok
        assert outcome.error == "worker crashed (exit code 17)"
        assert outcome.attempts == 2

    def test_timeout_taxonomy(self):
        pool = WorkerPool(
            workers=2, max_attempts=1, timeout=0.5, retry_backoff=0.0
        )
        outcome = pool.run([WorkerTask(fn=_sleepy, args=(30.0,))])[0]
        assert not outcome.ok
        assert outcome.error == (
            "TimeoutError: job exceeded the 0.5s wall-clock budget (killed)"
        )
        assert outcome.wall_seconds == 0.5

    def test_timeout_forces_isolation_with_one_worker(self):
        # Enforcing a deadline needs a killable process, so workers=1
        # with a timeout must still fork.
        outcome = WorkerPool(workers=1, timeout=30.0).run(
            [WorkerTask(fn=os.getpid)]
        )[0]
        assert outcome.payload != os.getpid()

    def test_structured_error_from_child(self):
        pool = WorkerPool(workers=2, max_attempts=1)
        outcome = pool.run([WorkerTask(fn=_boom, args=("far away",))])[0]
        assert outcome.error.startswith("ValueError: far away")

    def test_retry_recovers_across_processes(self, tmp_path):
        flag = str(tmp_path / "flag")
        pool = WorkerPool(workers=2, max_attempts=3, retry_backoff=0.0)
        outcome = pool.run([WorkerTask(fn=_flaky, args=(flag,))])[0]
        assert outcome.ok
        assert outcome.attempts == 2

    def test_bad_task_does_not_poison_good_ones(self):
        pool = WorkerPool(workers=2, max_attempts=1, retry_backoff=0.0)
        outcomes = pool.run(
            [
                WorkerTask(fn=_double, args=(3,)),
                WorkerTask(fn=_boom, args=("mid",)),
                WorkerTask(fn=_double, args=(4,)),
            ]
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[0].payload == 6 and outcomes[2].payload == 8

    def test_on_outcome_raise_aborts_pool(self):
        pool = WorkerPool(workers=2, max_attempts=1, retry_backoff=0.0)

        def fail_fast(outcome: WorkerOutcome) -> None:
            if not outcome.ok:
                raise RuntimeError(f"task {outcome.index} died")

        with pytest.raises(RuntimeError, match="died"):
            pool.run(
                [WorkerTask(fn=_boom, args=("x",)) for _ in range(3)],
                on_outcome=fail_fast,
            )

    def test_traced_task_in_child(self):
        outcome = WorkerPool(workers=2).run(
            [WorkerTask(fn=_traced_body, args=(1,), traced=True)]
        )[0]
        assert outcome.payload == 2
        assert outcome.trace["counters"]["jobs"] == 1


class TestResidentWorkers:
    def test_workers_are_reused_across_tasks(self):
        tracer = Tracer()
        outcomes = WorkerPool(workers=2).run(
            [WorkerTask(fn=os.getpid) for _ in range(12)], tracer=tracer
        )
        assert len({o.worker for o in outcomes}) == 2
        assert tracer.counters["pool.forks"] == 2
        assert tracer.counters["pool.dispatches"] == 12
        assert tracer.counters["pool.attempts.ok"] == 12
        assert tracer.counters["pool.result_bytes"] > 0
        assert tracer.counters["pool.queue_wait_s"] >= 0.0
        assert "pool.recycled" not in tracer.counters

    def test_forks_no_more_workers_than_tasks(self):
        tracer = Tracer()
        WorkerPool(workers=4).run([WorkerTask(fn=os.getpid)], tracer=tracer)
        assert tracer.counters["pool.forks"] == 1

    def test_raise_retires_the_worker(self, tmp_path):
        # One worker at a time (the deadline forces process mode), so
        # whatever follows the raise provably runs on the replacement.
        tracer = Tracer()
        pool = WorkerPool(workers=1, timeout=60.0, retry_backoff=0.0)
        outcomes = pool.run(
            [
                WorkerTask(fn=_read_global),
                WorkerTask(
                    fn=_dirty_global_then_raise, args=(str(tmp_path / "flag"),)
                ),
                WorkerTask(fn=_read_global),
                WorkerTask(fn=_read_global),
            ],
            tracer=tracer,
        )
        assert [o.attempts for o in outcomes] == [1, 2, 1, 1]
        assert [o.payload[0] for o in outcomes] == ["clean"] * 4
        first, *later = [o.payload[1] for o in outcomes]
        assert set(later) == {later[0]} and later[0] != first
        assert tracer.counters["pool.attempts.raised"] == 1
        assert tracer.counters["pool.recycled"] == 1
        assert tracer.counters["pool.forks"] == 2

    @pytest.mark.parametrize(
        "bad, kind, error",
        [
            (
                WorkerTask(fn=_hard_crash, args=(17,)),
                "crashed",
                "worker crashed (exit code 17)",
            ),
            (
                WorkerTask(fn=_sleepy, args=(30.0,)),
                "timed_out",
                "TimeoutError: job exceeded the 1.0s wall-clock budget (killed)",
            ),
        ],
        ids=["crash", "deadline"],
    )
    def test_failure_mid_window_costs_one_fork(self, bad, kind, error, tmp_path):
        # The tasks queued behind the bad one wait on a file that only
        # its outcome creates, so work is provably still queued when its
        # worker goes; the nap staggers their deadlines behind its own.
        gate = str(tmp_path / "gate")

        def open_gate(outcome):
            if outcome.index == 2:
                open(gate, "w").close()

        tasks = [WorkerTask(fn=_double, args=(i,)) for i in range(2)]
        tasks += [bad, WorkerTask(fn=_sleepy, args=(0.5,))]
        tasks += [WorkerTask(fn=_wait_for, args=(gate,)) for _ in range(4)]
        tracer = Tracer()
        pool = WorkerPool(workers=2, max_attempts=1, timeout=1.0)
        outcomes = pool.run(tasks, on_outcome=open_gate, tracer=tracer)
        assert [o.index for o in outcomes] == list(range(8))
        assert [o.ok for o in outcomes] == [True, True, False] + [True] * 5
        assert outcomes[2].error == error
        assert tracer.counters[f"pool.attempts.{kind}"] == 1
        assert tracer.counters["pool.recycled"] == 1
        assert tracer.counters["pool.forks"] == pool.workers + 1

    def test_worker_killed_while_idle_costs_an_attempt(self):
        def kill_worker(outcome):
            if outcome.index == 0:
                os.kill(outcome.worker, signal.SIGKILL)

        pool = WorkerPool(workers=1, timeout=60.0, retry_backoff=0.0)
        first, second = pool.run(
            [WorkerTask(fn=os.getpid), WorkerTask(fn=os.getpid)],
            on_outcome=kill_worker,
        )
        assert second.ok and second.attempts == 2
        assert second.worker != first.worker

    def test_on_outcome_raise_leaves_no_children(self):
        def fail_fast(outcome):
            if not outcome.ok:
                raise RuntimeError(f"task {outcome.index} died")

        pool = WorkerPool(workers=3, max_attempts=1)
        with pytest.raises(RuntimeError, match="task 2 died"):
            pool.run(
                [
                    WorkerTask(fn=_double, args=(1,)),  # leaves an idle worker
                    WorkerTask(fn=_sleepy, args=(30.0,)),  # still running
                    WorkerTask(fn=_boom, args=("x",)),
                ],
                on_outcome=fail_fast,
            )
        assert multiprocessing.active_children() == []

    def test_unloadable_result_leaves_no_children(self):
        with pytest.raises(RuntimeError, match="cannot rebuild"):
            WorkerPool(workers=2).run([WorkerTask(fn=_Unloadable)])
        assert multiprocessing.active_children() == []

    @needs_proc
    def test_thousand_tasks_leak_nothing(self):
        pool = WorkerPool(workers=2)
        pool.run([WorkerTask(fn=_double, args=(0,))])  # warm any lazy imports
        fds = len(os.listdir("/proc/self/fd"))
        tracer = Tracer()
        outcomes = pool.run(
            [WorkerTask(fn=_double, args=(i,)) for i in range(1000)],
            tracer=tracer,
        )
        assert [o.payload for o in outcomes] == [2 * i for i in range(1000)]
        assert tracer.counters["pool.forks"] == 2
        assert len(os.listdir("/proc/self/fd")) == fds
        assert multiprocessing.active_children() == []
        assert all(_proc_state(pid) is None for pid in {o.worker for o in outcomes})

    def test_kill_mid_message_is_a_crash_not_a_hang(self, hard_timeout, monkeypatch):
        monkeypatch.setattr(workers, "_worker_main", _worker_main_publishing_conn)
        pool = WorkerPool(workers=2, max_attempts=1)
        outcomes = pool.run(
            [WorkerTask(fn=_die_mid_message), WorkerTask(fn=_double, args=(2,))]
        )
        assert outcomes[0].error == "worker crashed (exit code -9)"
        assert outcomes[1].payload == 4

    @needs_proc
    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        # Siblings hold copies of each other's pipe ends, so an orphan
        # never reads EOF; it has to notice the parent's death itself.
        script = (
            "import os, signal, sys, time\n"
            "from repro.core.workers import WorkerPool, WorkerTask\n"
            "def nap(stem):\n"
            "    open(stem + str(os.getpid()), 'w').close()\n"
            "    time.sleep(0.2)\n"
            "def die(outcome):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "tasks = [WorkerTask(fn=nap, args=(sys.argv[1],)) for _ in range(6)]\n"
            "WorkerPool(workers=2).run(tasks, on_outcome=die)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "pid-")],
            env=env,
            timeout=60,
        )
        assert done.returncode == -signal.SIGKILL
        pids = [int(name[len("pid-"):]) for name in os.listdir(tmp_path)]
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while any(_proc_state(p) not in (None, "Z") for p in pids):
            assert time.monotonic() < deadline, "orphaned workers linger"
            time.sleep(0.05)


class TestSharedHelpers:
    def test_mp_context_prefers_fork(self):
        context = mp_context()
        assert context.get_start_method() in ("fork", "spawn", "forkserver")

    def test_kill_process_terminates(self):
        context = mp_context()
        proc = context.Process(target=time.sleep, args=(60,))
        proc.start()
        kill_process(proc)
        assert not proc.is_alive()
