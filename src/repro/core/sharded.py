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

One dispatcher serves every sharded run: a :class:`ShardSession` is
(SUT factory, scenario, shard plan), and :func:`run_shard_sessions`
runs any number of them on one :class:`~repro.core.workers.WorkerPool`
— a :class:`~repro.core.tenancy.BenchmarkServer` window's tenants, or
the single session behind ``Benchmark.run_sharded_streaming``. The pool
supplies the transport, kill deadlines, and exponential-backoff retry
budget :class:`~repro.core.runner.MatrixRunner` runs on, so a crashed or
wedged shard re-runs without poisoning the merge.

Equivalence contract (pinned by ``benchmarks/bench_sharded.py`` and
``tests/core/test_sharded.py``): when every shard boundary drains — the
previous shard's servers go idle before the next shard's first arrival
— and the SUT's service times don't depend on cross-shard execution
state, the merged summary's integer-count metrics are *bit-identical*
to the unsharded ``run_streaming``; float ``fsum``-style summaries are
bit-identical under segment sharding and agree to float tolerance under
arrival slicing (block boundaries differ, so the ``np.sum`` partials
differ). The merge records the drain check's verdict in the summary's
``sharding["boundaries_drained"]`` field rather than guessing.
"""
from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario
from repro.core.streaming import (
    ColumnSpiller,
    ShardSpec,
    StreamingRunSummary,
    write_sharded_manifest,
)
from repro.core.sut import SystemUnderTest
from repro.core.workers import WorkerOutcome, WorkerPool, WorkerTask
from repro.errors import ConfigurationError, RunnerError
from repro.observability import NULL_TRACER

__all__ = [
    "ShardSession",
    "ensure_merge_protocol",
    "merge_shard_payloads",
    "plan_shards",
    "run_shard_sessions",
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
    session: ShardSession, config: DriverConfig, shard: ShardSpec
) -> dict:
    """Execute one shard of ``session`` end to end (worker-side body)."""
    driver = VirtualClockDriver(config)
    accumulators = _build_accumulators(
        session.scenario, session.accumulator_factory, session.sla
    )
    spiller = (
        ColumnSpiller(shard_spill_directory(session.spill_dir, shard.index))
        if session.spill_dir is not None
        else None
    )
    sut = session.sut_factory()
    return driver.run_streaming_shard(
        sut, session.scenario, shard, accumulators, spiller
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


@dataclass(eq=False)
class ShardSession:
    """One SUT × scenario run as a shard plan, and how it resolved.

    The unit :func:`run_shard_sessions` dispatches: one
    :class:`~repro.core.tenancy.BenchmarkServer` tenant, or the single
    session behind ``Benchmark.run_sharded_streaming``. Once it has run,
    exactly one of ``summary`` and ``error`` is set.
    """

    name: str
    sut_factory: Callable[[], SystemUnderTest]
    scenario: Scenario
    plan: List[ShardSpec]
    template: List[Any]
    sla: Optional[float] = None
    spill_dir: Optional[Path] = None
    accumulator_factory: Optional[Callable[[Scenario], Sequence[Any]]] = None
    outcomes: Dict[int, WorkerOutcome] = field(default_factory=dict)
    summary: Optional[StreamingRunSummary] = None
    error: Optional[str] = None

    @classmethod
    def open(
        cls,
        name: str,
        sut_factory: Callable[[], SystemUnderTest],
        scenario: Scenario,
        shards: int,
        accumulator_factory=None,
        sla: Optional[float] = None,
        spill_dir=None,
    ) -> "ShardSession":
        """Plan a session; reject non-mergeable accumulators up front.

        Never calls ``sut_factory`` — only the shard workers build SUTs.
        With ``spill_dir`` set, the shards spill into ``shard-NNN/``
        subdirectories of it and the merge writes the stitched manifest
        there.
        """
        template = _build_accumulators(scenario, accumulator_factory, sla)
        ensure_merge_protocol(template)
        return cls(
            name,
            sut_factory,
            scenario,
            plan_shards(scenario, shards),
            template,
            sla,
            None if spill_dir is None else Path(spill_dir),
            accumulator_factory,
        )

    @property
    def attempts(self) -> List[int]:
        """Per-shard attempt counts, in shard order."""
        return [self.outcomes[shard.index].attempts for shard in self.plan]

    @property
    def wall_seconds(self) -> float:
        """Summed wall time of the shards' resolving attempts."""
        return sum(self.outcomes[shard.index].wall_seconds for shard in self.plan)


def run_shard_sessions(
    entries: Sequence[Tuple[ShardSession, ShardSpec]],
    config: DriverConfig,
    pool: WorkerPool,
    tracer=None,
) -> None:
    """Run every ``(session, shard)`` entry on ``pool``; resolve each session.

    The one place shard work becomes pool tasks. ``entries`` is the
    dispatch order (the server interleaves its tenants' plans). A retry
    first removes the partial ``shard-NNN`` spill its failed attempt
    may have left. A failed shard fails only its own session, whose
    ``error`` names the first such shard; every other session merges
    its shard payloads into ``summary``.
    """
    tasks = [
        WorkerTask(
            fn=_run_shard,
            args=(session, config, shard),
            label=f"{session.name}/shard-{shard.index}",
        )
        for session, shard in entries
    ]

    def on_attempt(index: int, attempt: int) -> None:
        session, shard = entries[index]
        if attempt > 1 and session.spill_dir is not None:
            shutil.rmtree(
                shard_spill_directory(session.spill_dir, shard.index),
                ignore_errors=True,
            )

    tracer = NULL_TRACER if tracer is None else tracer
    outcomes = pool.run(tasks, on_attempt=on_attempt, tracer=tracer)
    for outcome, (session, shard) in zip(outcomes, entries):
        session.outcomes[shard.index] = outcome
    for session in dict.fromkeys(session for session, _shard in entries):
        ordered = [session.outcomes[shard.index] for shard in session.plan]
        for shard, outcome in zip(session.plan, ordered):
            if outcome.error is not None:
                session.error = (
                    f"shard {shard.index} failed after {outcome.attempts} "
                    f"attempts: {outcome.error}"
                )
                break
        else:
            with tracer.span(f"merge:{session.name}", phase="report"):
                session.summary = merge_shard_payloads(
                    session.scenario,
                    session.plan,
                    [outcome.payload for outcome in ordered],
                    session.attempts,
                    session.template,
                    session.spill_dir,
                )


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
    events, and spill manifests all rely on it.
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
