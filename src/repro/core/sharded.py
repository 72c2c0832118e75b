"""Sharded streaming: shared-nothing workers, one merged summary.

The scale-out half of the streaming tentpole (DESIGN.md §10): a
scenario is partitioned into :class:`~repro.core.streaming.ShardSpec`
slices — contiguous segment ranges, or arrival-index ranges for
single-segment runs — and each shard executes
``VirtualClockDriver.run_streaming_shard`` in its own process with its
own :class:`~repro.core.streaming.StreamingRecorder`. The parent merges
the shards' accumulator ``state_dict()`` payloads (every ``Online*``
accumulator is additive — see the ``merge`` methods in
:mod:`repro.metrics`) and finalizes once, producing a
:class:`~repro.core.streaming.StreamingRunSummary`.

Equivalence contract (pinned by ``benchmarks/bench_sharded.py`` and
``tests/core/test_sharded.py``): when every shard boundary drains — the
previous shard's servers go idle before the next shard's first arrival
— and the SUT's service times don't depend on cross-shard execution
state, the merged summary's integer-count metrics are *bit-identical*
to the unsharded ``run_streaming``; float ``fsum``-style summaries are
bit-identical under segment sharding and agree to float tolerance under
arrival slicing (block boundaries differ, so the ``np.sum`` partials
differ). The executor records the drain check's verdict in the
summary's ``sharding["boundaries_drained"]`` field rather than guessing.

Process hardening is the shared :class:`~repro.core.workers.WorkerPool`
layer — the same transport, kill deadlines, and exponential-backoff
retry budget :class:`~repro.core.runner.MatrixRunner` runs on — so a
crashed or wedged shard re-runs without poisoning the merge.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario
from repro.core.streaming import (
    ColumnSpiller,
    ShardSpec,
    StreamingRunSummary,
    write_sharded_manifest,
)
from repro.core.sut import SystemUnderTest
from repro.core.workers import WorkerPool, WorkerTask
from repro.errors import ConfigurationError, RunnerError

__all__ = [
    "ShardedStreamingExecutor",
    "ensure_merge_protocol",
    "merge_shard_payloads",
    "plan_shards",
    "run_sharded_streaming",
    "shard_spill_directory",
]


def shard_spill_directory(spill_dir, index: int) -> Path:
    """The subdirectory shard ``index`` spills its columns into."""
    return Path(spill_dir) / f"shard-{index:03d}"


def plan_shards(scenario: Scenario, n_shards: int) -> List[ShardSpec]:
    """Partition ``scenario`` into at most ``n_shards`` stream slices.

    Multi-segment scenarios split into contiguous segment ranges,
    greedily balanced by each segment's exact projected arrival count
    (every shard gets at least one segment, so the shard count caps at
    the segment count). A single-segment scenario splits into equal
    arrival-index ranges instead — the one case where a segment's
    interior is divisible without touching the workload RNG stream.

    The plan is deterministic: same scenario, same shards.
    """
    if n_shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {n_shards}")
    n_segments = len(scenario.segments)
    if n_segments == 0 or n_shards == 1:
        return [ShardSpec(0, 1, 0, n_segments)]
    if n_segments == 1:
        segment = scenario.segments[0]
        total = int(
            segment.spec.arrivals.projected_count(0.0, segment.duration)
        )
        shards = max(1, min(n_shards, total))
        if shards == 1:
            return [ShardSpec(0, 1, 0, 1)]
        bounds = [round(i * total / shards) for i in range(shards + 1)]
        return [
            ShardSpec(i, shards, 0, 1, bounds[i], bounds[i + 1])
            for i in range(shards)
        ]
    counts = [
        int(segment.spec.arrivals.projected_count(0.0, segment.duration))
        for segment in scenario.segments
    ]
    total = sum(counts)
    shards = min(n_shards, n_segments)
    bounds = [0]
    acc = 0
    for i, count in enumerate(counts):
        acc += count
        cut = len(bounds)  # 1-based index of the boundary about to close
        if cut >= shards:
            break
        if (n_segments - (i + 1)) <= (shards - cut):
            # Must cut: exactly one segment left per remaining shard.
            bounds.append(i + 1)
        elif acc * shards >= total * cut:
            bounds.append(i + 1)
    bounds.append(n_segments)
    return [
        ShardSpec(i, len(bounds) - 1, bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
    ]


def _build_accumulators(
    scenario: Scenario,
    accumulator_factory: Optional[Callable[[Scenario], Sequence[Any]]],
    sla: Optional[float],
) -> List[Any]:
    """The shard accumulator set, built from the *full* scenario.

    Every shard (and the parent's merge template) calls this with the
    same arguments, so grids, change points, and segment boundaries
    anchor identically and shard states merge cleanly.
    """
    if accumulator_factory is not None:
        return list(accumulator_factory(scenario))
    from repro.metrics import streaming_accumulators

    return streaming_accumulators(scenario, sla=sla, plan=scenario.fault_plan)


def _run_shard(
    sut_factory: Callable[[], SystemUnderTest],
    scenario: Scenario,
    config: DriverConfig,
    shard: ShardSpec,
    accumulator_factory: Optional[Callable[[Scenario], Sequence[Any]]],
    sla: Optional[float],
    spill_dir,
) -> dict:
    """Execute one shard end to end (worker-side body)."""
    driver = VirtualClockDriver(config)
    accumulators = _build_accumulators(scenario, accumulator_factory, sla)
    spiller = (
        ColumnSpiller(shard_spill_directory(spill_dir, shard.index))
        if spill_dir is not None
        else None
    )
    sut = sut_factory()
    return driver.run_streaming_shard(
        sut, scenario, shard, accumulators, spiller
    )


def ensure_merge_protocol(accumulators: Sequence[Any]) -> None:
    """Reject accumulators that cannot merge across processes.

    Every accumulator whose state crosses a process boundary must
    implement ``state_dict()`` / ``merge()`` (instance) and
    ``from_state()`` (class); raising up front beats a cryptic failure
    after the shards have already burned their CPU time.
    """
    for accumulator in accumulators:
        for method in ("state_dict", "merge"):
            if not hasattr(accumulator, method):
                raise ConfigurationError(
                    f"accumulator {accumulator.name!r} lacks {method}(); "
                    "sharded streaming needs the merge protocol"
                )
        if not hasattr(type(accumulator), "from_state"):
            raise ConfigurationError(
                f"accumulator {accumulator.name!r} lacks from_state(); "
                "sharded streaming needs the merge protocol"
            )


class ShardedStreamingExecutor:
    """Runs a scenario's shards in worker processes and merges the states.

    Args:
        config: Driver knobs shared by every shard (default
            :class:`~repro.core.driver.DriverConfig`).
        n_shards: Requested shard count; :func:`plan_shards` may cap it
            (segment count, arrival count).
        max_attempts: Per-shard attempt budget — a crashed, failed, or
            timed-out shard re-runs until the budget is spent, then the
            whole run raises :class:`~repro.errors.RunnerError`.
        shard_timeout: Optional per-attempt wall-clock kill deadline in
            seconds.
        retry_backoff: Base delay before a retry; doubles per attempt.
    """

    def __init__(
        self,
        config: Optional[DriverConfig] = None,
        n_shards: int = 2,
        max_attempts: int = 2,
        shard_timeout: Optional[float] = None,
        retry_backoff: float = 0.25,
    ) -> None:
        """Validate the knobs and bind the shared driver config."""
        if n_shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {n_shards}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ConfigurationError("shard_timeout must be > 0")
        if retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")
        self.config = config or DriverConfig()
        self.n_shards = int(n_shards)
        self.max_attempts = int(max_attempts)
        self.shard_timeout = shard_timeout
        self.retry_backoff = float(retry_backoff)

    def run(
        self,
        sut_factory: Callable[[], SystemUnderTest],
        scenario: Scenario,
        accumulator_factory: Optional[
            Callable[[Scenario], Sequence[Any]]
        ] = None,
        sla: Optional[float] = None,
        spill_dir=None,
        tracer=None,
    ) -> StreamingRunSummary:
        """Execute ``scenario`` across shards; return the merged summary.

        Args:
            sut_factory: Zero-argument picklable callable building a
                fresh SUT — each shard (and each retry) gets its own
                instance, so SUT state never leaks across processes.
            accumulator_factory: Optional picklable
                ``scenario -> accumulators`` override; the produced
                accumulators must implement the merge protocol
                (``state_dict`` / ``from_state`` / ``merge``). Default:
                :func:`repro.metrics.streaming_accumulators`.
            sla: SLA threshold handed to the default accumulator set.
            spill_dir: When set, each shard spills to a subdirectory and
                the merged manifest stitches them back together (see
                :func:`~repro.core.streaming.write_sharded_manifest`).
            tracer: Optional :class:`~repro.observability.Tracer` handed
                to the worker pool (``pool.*`` counters).
        """
        template = _build_accumulators(scenario, accumulator_factory, sla)
        ensure_merge_protocol(template)
        shards = plan_shards(scenario, self.n_shards)
        if spill_dir is not None:
            Path(spill_dir).mkdir(parents=True, exist_ok=True)
        if len(shards) == 1 and self.shard_timeout is None:
            payloads = [
                _run_shard(
                    sut_factory,
                    scenario,
                    self.config,
                    shards[0],
                    accumulator_factory,
                    sla,
                    spill_dir,
                )
            ]
            attempts = [1]
        else:
            payloads, attempts = self._run_pool(
                sut_factory,
                scenario,
                shards,
                accumulator_factory,
                sla,
                spill_dir,
                tracer,
            )
        return merge_shard_payloads(
            scenario, shards, payloads, attempts, template, spill_dir
        )

    # -- process pool ----------------------------------------------------------------

    def _run_pool(
        self,
        sut_factory,
        scenario,
        shards: List[ShardSpec],
        accumulator_factory,
        sla,
        spill_dir,
        tracer,
    ):
        """Run every shard on the shared :class:`WorkerPool`, fail-fast.

        One worker slot per shard (shards are the unit of scale-out);
        retry-time spill cleanup rides the ``on_attempt`` hook, and an
        exhausted budget raises :class:`~repro.errors.RunnerError`
        through the ``on_outcome`` hook — the pool kills the surviving
        shard processes on the way out.
        """
        tasks = [
            WorkerTask(
                fn=_run_shard,
                args=(
                    sut_factory,
                    scenario,
                    self.config,
                    shard,
                    accumulator_factory,
                    sla,
                    spill_dir,
                ),
                label=f"shard-{shard.index}",
            )
            for shard in shards
        ]
        pool = WorkerPool(
            workers=len(tasks),
            max_attempts=self.max_attempts,
            timeout=self.shard_timeout,
            retry_backoff=self.retry_backoff,
        )

        def on_attempt(index: int, attempt: int) -> None:
            if attempt > 1 and spill_dir is not None:
                # A failed attempt may have left partial shard files;
                # the retry rebuilds the directory.
                shutil.rmtree(
                    shard_spill_directory(spill_dir, shards[index].index),
                    ignore_errors=True,
                )

        def on_outcome(outcome) -> None:
            if outcome.error is not None:
                raise RunnerError(
                    f"shard {outcome.index} failed after "
                    f"{outcome.attempts} attempts: {outcome.error}"
                )

        outcomes = pool.run(
            tasks, on_attempt=on_attempt, on_outcome=on_outcome, tracer=tracer
        )
        payloads = [outcome.payload for outcome in outcomes]
        attempts = [outcome.attempts for outcome in outcomes]
        missing = [i for i, payload in enumerate(payloads) if payload is None]
        if missing:  # pragma: no cover — on_outcome raises first
            raise RunnerError(f"shards {missing} produced no payload")
        return payloads, attempts


def merge_shard_payloads(
    scenario: Scenario,
    shards: List[ShardSpec],
    payloads: List[dict],
    attempts: List[int],
    template: List[Any],
    spill_dir=None,
) -> StreamingRunSummary:
    """Fold shard payloads into one finalized summary.

    Shards merge in stream order — accumulator merges, count dict
    insertion order (which fixes the merged vocabularies), training
    events, and spill manifests all rely on it. Shared by
    :class:`ShardedStreamingExecutor` and the multi-tenant
    :class:`~repro.core.tenancy.BenchmarkServer` (each tenant session is
    a shard set merged exactly this way).
    """
    names = [accumulator.name for accumulator in template]
    merged: Optional[List[Any]] = None
    for payload in payloads:
        if [name for name, _state in payload["states"]] != names:
            raise RunnerError(
                "shard accumulator sets diverged: expected "
                f"{names}, shard {payload['index']} sent "
                f"{[name for name, _state in payload['states']]}"
            )
        rebuilt = [
            type(accumulator).from_state(state)
            for accumulator, (_name, state) in zip(
                template, payload["states"]
            )
        ]
        if merged is None:
            merged = rebuilt
        else:
            for mine, theirs in zip(merged, rebuilt):
                mine.merge(theirs)
    assert merged is not None

    op_counts: Dict[str, int] = {}
    segment_counts: Dict[str, int] = {}
    training_events = []
    num_queries = 0
    max_completion = 0.0
    for payload in payloads:
        for op, count in payload["op_counts"].items():
            op_counts[op] = op_counts.get(op, 0) + count
        for label, count in payload["segment_counts"].items():
            segment_counts[label] = segment_counts.get(label, 0) + count
        training_events.extend(payload["training_events"])
        num_queries += payload["num_queries"]
        if payload["max_completion"] > max_completion:
            max_completion = payload["max_completion"]

    drained = True
    for previous, following in zip(payloads, payloads[1:]):
        first = following["first_arrival"]
        if first is not None and previous["final_busy"] > first:
            drained = False
    sharding = {
        "shards": len(shards),
        "plan": [shard.to_dict() for shard in shards],
        "attempts": list(attempts),
        "shard_queries": [payload["num_queries"] for payload in payloads],
        "boundaries_drained": drained,
    }

    spill = None
    if spill_dir is not None:
        spill = write_sharded_manifest(
            spill_dir,
            [payload["spill"] for payload in payloads],
            list(op_counts.keys()),
            list(segment_counts.keys()),
        )

    boundaries = scenario.segment_boundaries()
    duration = boundaries[-1][2] if boundaries else 0.0
    horizon = max(duration, max_completion)
    metrics = {
        accumulator.name: accumulator.finalize(horizon)
        for accumulator in merged
    }
    return StreamingRunSummary(
        sut_name=payloads[0]["sut_name"],
        scenario_name=scenario.name,
        segments=boundaries,
        training_events=training_events,
        scenario_description=scenario.describe(),
        sut_description=payloads[0]["sut_description"],
        num_queries=num_queries,
        max_completion=max_completion,
        op_counts=op_counts,
        segment_counts=segment_counts,
        metrics=metrics,
        spill=spill,
        sharding=sharding,
    )


def run_sharded_streaming(
    sut_factory: Callable[[], SystemUnderTest],
    scenario: Scenario,
    shards: int = 2,
    config: Optional[DriverConfig] = None,
    accumulator_factory: Optional[Callable[[Scenario], Sequence[Any]]] = None,
    sla: Optional[float] = None,
    spill_dir=None,
    max_attempts: int = 2,
    shard_timeout: Optional[float] = None,
    retry_backoff: float = 0.25,
) -> StreamingRunSummary:
    """One-call convenience around :class:`ShardedStreamingExecutor`."""
    executor = ShardedStreamingExecutor(
        config=config,
        n_shards=shards,
        max_attempts=max_attempts,
        shard_timeout=shard_timeout,
        retry_backoff=retry_backoff,
    )
    return executor.run(
        sut_factory,
        scenario,
        accumulator_factory=accumulator_factory,
        sla=sla,
        spill_dir=spill_dir,
    )
