"""The shared process-worker layer.

Both multi-process execution stacks in the benchmark — the matrix
runner's job pool (:class:`~repro.core.runner.MatrixRunner`) and the
shard-session dispatcher (:func:`~repro.core.sharded.run_shard_sessions`,
behind ``Benchmark.run_sharded_streaming`` and the multi-tenant
:class:`~repro.core.tenancy.BenchmarkServer`) — need the same
hardening: resident worker processes fed task indexes over one duplex
pipe each, ``connection.wait`` multiplexing, wall-clock kill deadlines,
an exponential-backoff retry budget shared by raises, crashes, and
timeouts, and per-job :class:`~repro.observability.Tracer` threading.

A worker serves attempt after attempt for as long as every one of them
succeeds, so a task gets fresh arguments (callers build a fresh SUT per
attempt through ``sut_factory()``) but not a fresh interpreter, and
must not depend on one. An attempt that raised, crashed or hit its
deadline retires its worker for good: every retry — and whatever would
have run next on that worker — lands in a fresh fork.

:class:`WorkerPool` is that machinery, factored out once. Callers
submit :class:`WorkerTask` s (a picklable ``fn`` plus positional args)
and receive :class:`WorkerOutcome` s aligned with the task list; two
optional hooks — ``on_attempt`` (fired before every execution) and
``on_outcome`` (fired at final resolution) — let callers keep their own
bookkeeping (manifest records, checkpoints, retry-time cleanup) without
duplicating any transport, retry, or kill logic.

Failure taxonomy (identical across callers, pinned by the runner's
hardening suite):

* an exception inside ``fn`` travels back structured as
  ``"<Type>: <message>\\n<last-3-frame traceback tail>"``;
* a hard crash (segfault, OOM-kill, ``os._exit``) surfaces as EOF on
  the pipe and becomes ``"worker crashed (exit code N)"``;
* a task still running at its deadline is killed and becomes
  ``"TimeoutError: job exceeded the <T>s wall-clock budget (killed)"``.

All three consume attempts from the same ``max_attempts`` budget with
``retry_backoff * 2**(attempt-1)`` seconds between tries.

When ``workers == 1`` and no timeout is set there is nothing to
isolate, so the pool runs tasks inline (in-process) with identical
attempt/backoff/error semantics — the mode the in-process benchmark
service relies on to keep non-picklable SUT factories working.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.observability import NULL_TRACER, Tracer

__all__ = [
    "WorkerOutcome",
    "WorkerPool",
    "WorkerTask",
    "kill_process",
    "mp_context",
]


def mp_context():
    """The multiprocessing context shared by every process pool here.

    Prefers ``fork`` so factories defined in scripts stay picklable;
    falls back to the platform default where fork is unavailable.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context()


def kill_process(proc: Any) -> None:
    """Terminate a worker process, escalating to SIGKILL if it lingers."""
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join()


def format_task_error(exc: BaseException) -> str:
    """The pool's structured error string for an in-task exception.

    ``"<Type>: <message>"`` plus the last three frames of the traceback
    — enough to locate the raise without shipping the whole stack
    through the pipe.
    """
    tail = "".join(traceback.format_tb(exc.__traceback__)[-3:]).rstrip()
    head = f"{type(exc).__name__}: {exc}"
    return f"{head}\n{tail}" if tail else head


@dataclass
class WorkerTask:
    """One unit of work for the pool.

    Attributes:
        fn: The callable to execute. With ``fork`` available it may be
            any callable; on spawn-only platforms it must be picklable
            (a module-level function, class, or ``functools.partial``).
        args: Positional arguments passed to ``fn``.
        label: Optional display/grouping label (callers' bookkeeping).
        traced: When true, the pool builds a fresh
            :class:`~repro.observability.Tracer` per attempt and calls
            ``fn(*args, tracer=tracer)``; the finished trace's
            ``to_dict()`` payload lands on the outcome.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    label: str = ""
    traced: bool = False


@dataclass
class WorkerOutcome:
    """Final resolution of one task (success or exhausted budget).

    Attributes:
        index: Position of the task in the submitted list.
        payload: ``fn``'s return value (``None`` on failure). Travels
            through a pipe in process mode, so it must be picklable.
        error: ``None`` on success; otherwise the last attempt's error
            string (see the module docstring for the taxonomy).
        attempts: Executions consumed (1 for a clean first run).
        wall_seconds: Wall time of the resolving attempt (the timeout
            value for a killed attempt, 0.0 for a hard crash).
        worker: Pid of the resolving process (the parent's own pid in
            inline mode).
        trace: Serialized :class:`~repro.observability.Trace` for
            successful traced tasks; ``None`` otherwise.
    """

    index: int
    payload: Any = None
    error: Optional[str] = None
    attempts: int = 1
    wall_seconds: float = 0.0
    worker: int = 0
    trace: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether the task produced a payload."""
        return self.error is None


def _attempt(task: WorkerTask) -> Tuple[Any, Optional[str], float, Optional[dict]]:
    """Execute one attempt of ``task``; never raise.

    Returns ``(payload, error, wall_seconds, trace_dict)`` — the same
    quadruple the process shim pipes home, so inline and process modes
    share one failure taxonomy.
    """
    start = time.perf_counter()
    try:
        if task.traced:
            tracer = Tracer()
            payload = task.fn(*task.args, tracer=tracer)
            trace = tracer.finish().to_dict()
        else:
            payload = task.fn(*task.args)
            trace = None
        return payload, None, time.perf_counter() - start, trace
    except Exception as exc:  # structured failure: the pool survives
        wall = time.perf_counter() - start
        return None, format_task_error(exc), wall, None


def _worker_main(conn, tasks: Sequence[WorkerTask]) -> None:
    """Resident child-process entry point: serve attempts until told to stop.

    The parent sends the index of the task to run (the list itself is
    inherited under ``fork``, and rides in as the process argument
    elsewhere) and ``None`` to shut down: siblings forked later hold
    copies of the pipe's parent end, so its EOF cannot be the signal.
    A parent that died without saying so is seen on its sentinel.
    """
    parent = multiprocessing.parent_process().sentinel
    pid = os.getpid()
    try:
        while parent not in connection.wait([conn, parent]):
            index = conn.recv()
            if index is None:
                break
            conn.send((*_attempt(tasks[index]), pid))
    finally:
        conn.close()


def _retire(conn, proc) -> None:
    """Shut one worker down for good: sentinel, close, join."""
    try:
        conn.send(None)
    except OSError:  # it crashed: nobody left to tell
        pass
    conn.close()
    proc.join()


@dataclass
class _TaskState:
    """Parent-side scheduling state for one submitted task."""

    ready_at: float
    attempts: int = 0


class WorkerPool:
    """Executes tasks across processes with retries, deadlines, and kills.

    Args:
        workers: Concurrent process slots. ``1`` with no ``timeout``
            runs tasks inline (in-process) — same semantics, nothing to
            isolate.
        max_attempts: Executions per task before it resolves as failed.
            Crashes, timeouts, and in-task exceptions all consume
            attempts.
        timeout: Per-attempt wall-clock budget in seconds; an attempt
            still running at the deadline is killed. ``None`` disables
            deadlines. Enforcing a timeout requires process isolation,
            so ``workers=1`` with a timeout still forks.
        retry_backoff: Base of the exponential backoff between attempts
            (``retry_backoff * 2**(attempt-1)`` seconds).
    """

    def __init__(
        self,
        workers: int = 1,
        max_attempts: int = 2,
        timeout: Optional[float] = None,
        retry_backoff: float = 0.25,
    ) -> None:
        """Validate and store the pool knobs (see class docstring)."""
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.workers = int(workers)
        self.max_attempts = int(max_attempts)
        self.timeout = timeout
        self.retry_backoff = float(retry_backoff)

    def run(
        self,
        tasks: Sequence[WorkerTask],
        on_attempt: Optional[Callable[[int, int], None]] = None,
        on_outcome: Optional[Callable[[WorkerOutcome], None]] = None,
        tracer=None,
    ) -> List[WorkerOutcome]:
        """Execute every task; return outcomes aligned with the input.

        Args:
            tasks: The work list; outcomes come back in the same order
                regardless of completion order.
            on_attempt: ``(index, attempt)`` hook fired immediately
                before each execution (first attempt is 1). Callers use
                it for attempt bookkeeping and retry-time cleanup.
            on_outcome: Hook fired once per task at final resolution
                (success or exhausted budget), in completion order. An
                exception raised here aborts the pool: running workers
                are killed and the exception propagates.
            tracer: Optional :class:`~repro.observability.Tracer`; process
                mode counts ``pool.forks``, ``pool.recycled`` (workers
                retired by a failed attempt), ``pool.dispatches``,
                ``pool.attempts.{ok,raised,crashed,timed_out}``,
                ``pool.queue_wait_s`` (ready → dispatched) and
                ``pool.result_bytes`` (pickled results read) on it.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.workers == 1 and self.timeout is None:
            return self._run_inline(tasks, on_attempt, on_outcome)
        return self._run_processes(
            tasks, on_attempt, on_outcome, NULL_TRACER if tracer is None else tracer
        )

    # -- inline mode -----------------------------------------------------------------

    def _run_inline(
        self,
        tasks: List[WorkerTask],
        on_attempt: Optional[Callable[[int, int], None]],
        on_outcome: Optional[Callable[[WorkerOutcome], None]],
    ) -> List[WorkerOutcome]:
        """In-process execution with identical attempt/backoff semantics."""
        outcomes: List[WorkerOutcome] = []
        pid = os.getpid()
        for index, task in enumerate(tasks):
            for attempt in range(1, self.max_attempts + 1):
                if on_attempt is not None:
                    on_attempt(index, attempt)
                payload, error, wall, trace = _attempt(task)
                if error is None or attempt >= self.max_attempts:
                    outcome = WorkerOutcome(
                        index=index,
                        payload=payload,
                        error=error,
                        attempts=attempt,
                        wall_seconds=wall,
                        worker=pid,
                        trace=trace,
                    )
                    break
                if self.retry_backoff > 0:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
        return outcomes

    # -- process mode ----------------------------------------------------------------

    def _run_processes(
        self,
        tasks: List[WorkerTask],
        on_attempt: Optional[Callable[[int, int], None]],
        on_outcome: Optional[Callable[[WorkerOutcome], None]],
        tracer,
    ) -> List[WorkerOutcome]:
        """Fan tasks across resident worker processes; survive bad tasks.

        A worker is forked only when a ready task finds none idle, so a
        run costs at most ``min(workers, tasks)`` forks plus one per
        failed attempt; ``connection.wait`` multiplexes the pipes, so
        the scheduler notices a finished attempt immediately and a
        *hard* crash as EOF. Crashes, timeouts, and structured in-task
        errors all retire their worker and feed the same retry budget.
        """
        context = mp_context()
        states = [_TaskState(ready_at=time.monotonic()) for _ in tasks]
        queue: Deque[int] = deque(range(len(tasks)))
        idle: List[Tuple[Any, Any]] = []  # (conn, process), no attempt in flight
        # conn -> (task index, process, kill deadline or None)
        running: Dict[Any, Tuple[int, Any, Optional[float]]] = {}
        outcomes: List[Optional[WorkerOutcome]] = [None] * len(tasks)

        def settle(kind: str, outcome: WorkerOutcome) -> None:
            """Re-queue a failed attempt with backoff, or resolve the task."""
            tracer.counter(f"pool.attempts.{kind}")
            state = states[outcome.index]
            if outcome.error is not None:
                tracer.counter("pool.recycled")
                if state.attempts < self.max_attempts:
                    state.ready_at = time.monotonic() + (
                        self.retry_backoff * (2 ** (state.attempts - 1))
                    )
                    queue.append(outcome.index)
                    return
            outcome.attempts = state.attempts
            outcomes[outcome.index] = outcome
            if on_outcome is not None:
                on_outcome(outcome)

        try:
            while queue or running:
                while len(running) < self.workers:
                    index = self._next_ready(queue, states)
                    if index is None:
                        break
                    states[index].attempts += 1
                    tracer.counter("pool.dispatches")
                    tracer.counter(
                        "pool.queue_wait_s",
                        time.monotonic() - states[index].ready_at,
                    )
                    if on_attempt is not None:
                        on_attempt(index, states[index].attempts)
                    if idle:
                        conn, proc = idle.pop()
                    else:
                        conn, child_end = context.Pipe()
                        proc = context.Process(
                            target=_worker_main, args=(child_end, tasks)
                        )
                        proc.start()
                        child_end.close()  # the worker owns that end now
                        tracer.counter("pool.forks")
                    try:
                        conn.send(index)
                    except OSError:
                        pass  # died while idle: reads as EOF below
                    deadline = (
                        time.monotonic() + self.timeout
                        if self.timeout is not None
                        else None
                    )
                    running[conn] = (index, proc, deadline)

                if not running:
                    # Everything left is backing off; sleep to the
                    # earliest retry gate.
                    gate = min(states[i].ready_at for i in queue)
                    delay = gate - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue

                readable = connection.wait(
                    list(running), timeout=self._wait_timeout(running, queue, states)
                )
                for conn in readable:
                    index, proc, _deadline = running.pop(conn)
                    try:
                        data = conn.recv_bytes()
                    except (EOFError, OSError):
                        # A worker answers every index it is sent, so
                        # EOF (OSError: mid-message) == hard crash.
                        _retire(conn, proc)
                        settle(
                            "crashed",
                            WorkerOutcome(
                                index,
                                error=f"worker crashed (exit code {proc.exitcode})",
                                worker=proc.pid or 0,
                            ),
                        )
                        continue
                    tracer.counter("pool.result_bytes", len(data))
                    idle.append((conn, proc))  # owned, even if loads() raises
                    payload, error, wall, trace, pid = pickle.loads(data)
                    if error is not None:
                        _retire(*idle.pop())
                    settle(
                        "ok" if error is None else "raised",
                        WorkerOutcome(
                            index, payload, error,
                            wall_seconds=wall, worker=pid, trace=trace,
                        ),
                    )
                now = time.monotonic()
                for conn, (index, proc, deadline) in list(running.items()):
                    if deadline is not None and now >= deadline:
                        del running[conn]
                        kill_process(proc)
                        conn.close()
                        settle(
                            "timed_out",
                            WorkerOutcome(
                                index,
                                error=f"TimeoutError: job exceeded the "
                                f"{self.timeout}s wall-clock budget (killed)",
                                wall_seconds=self.timeout or 0.0,
                                worker=proc.pid or 0,
                            ),
                        )
        finally:
            # Done or interrupted (KeyboardInterrupt, a raising hook, …):
            # never leak worker processes.
            for conn, (_index, proc, _deadline) in running.items():
                kill_process(proc)
                conn.close()
            for conn, proc in idle:
                _retire(conn, proc)
        return [outcome for outcome in outcomes if outcome is not None]

    @staticmethod
    def _next_ready(
        queue: Deque[int], states: List[_TaskState]
    ) -> Optional[int]:
        """Pop the first queued task whose backoff gate has opened."""
        now = time.monotonic()
        for _ in range(len(queue)):
            index = queue.popleft()
            if states[index].ready_at <= now:
                return index
            queue.append(index)
        return None

    def _wait_timeout(
        self,
        running: Dict[Any, Tuple[int, Any, Optional[float]]],
        queue: Deque[int],
        states: List[_TaskState],
    ) -> Optional[float]:
        """How long ``connection.wait`` may block.

        Bounded by the earliest kill deadline and — when a worker slot
        is free — the earliest retry gate; ``None`` (block until an
        attempt finishes) when neither applies.
        """
        bounds = [
            deadline
            for (_i, _p, deadline) in running.values()
            if deadline is not None
        ]
        if queue and len(running) < self.workers:
            bounds.extend(states[i].ready_at for i in queue)
        if not bounds:
            return None
        return max(0.0, min(bounds) - time.monotonic())
