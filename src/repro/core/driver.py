"""The discrete-event benchmark driver.

Replaces the paper's separate-machine load generator with a virtual-clock
simulation (substitution documented in DESIGN.md §2): queries arrive
open-loop from the workload's arrival process and are served by a
FIFO queue over ``servers`` parallel slots, with per-query service times
taken from the SUT's (genuinely executed) operations. This yields the
timestamp sequences the Fig 1 metrics need — queueing delay builds when
the SUT is slower than the offered load and drains as it specializes,
which is what produces the characteristic "slow start, catches up"
cumulative curve of Fig 1b.

There is one execution path. Each segment is executed in
interrupt-bounded slices through ``execute_batch``; the returned service
times are held and queued (FIFO kernel, block append) only where the
server pool changes — before a retrain or a point fault is charged, and
at the segment end — so ticks that ask for nothing cut no queue block.
It is pinned bit-for-bit to a scalar oracle in ``tests/`` that serves
one query at a time through a heap of server free times.

Training placement:

* The scenario's ``initial_training`` runs *before* query time 0; its
  event is recorded with a negative start so the execution timeline
  stays aligned across SUTs with different training budgets.
* A segment's ``training_before`` phase blocks the server at the
  segment boundary (the paper's "two separate execution phases with
  possible retraining of the models in-between").
* ``on_tick`` retrains requested by the SUT block the server inline —
  the "CPU overheads of retraining a model" that §V-D2 says should
  visibly dent throughput.

Fault injection:

When the scenario carries a :class:`~repro.faults.FaultPlan`, the driver
wraps it in a :class:`~repro.faults.FaultClock`. Window faults perturb
service times keyed on arrival time (an elementwise kernel, so any
slicing gives the same bits); point faults (stalls, crashes) are merged
with the tick stream into one per-segment interrupt sequence, so they
interleave with arrivals using the exact same fire-before-arrival
semantics as ticks — which is what keeps the driver bit-identical to the
scalar oracle under faults. A crash blocks every server for the recovery
period, then calls ``sut.on_crash``; a returned cold-retrain budget
extends the outage and is recorded as a training event like any online
retrain. With no plan set the fault machinery reduces to the original
tick loop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.hardware import CPU, HardwareProfile
from repro.core.phases import (
    TrainingEvent,
    TrainingPhase,
    event_to_telemetry,
    make_event,
)
from repro.core.queueing import fifo_multi_server, fifo_single_server
from repro.core.results import ColumnarRecorder, RunResult
from repro.core.scenario import Scenario
from repro.core.sut import KeyColumnPairs, SystemUnderTest
from repro.errors import DriverError
from repro.faults import FaultClock, StallFault
from repro.faults.plan import PointFault
from repro.observability import NULL_TRACER
from repro.workloads.generators import QueryBatch


#: Block bound when ``DriverConfig.block_size`` is unset: a segment of a
#: SUT that is never ticked is otherwise one block as long as the segment.
DEFAULT_BLOCK_SIZE = 65_536

#: Lower clamp on every service time a SUT reports (and on its
#: fault-perturbed value), so no query completes in zero time.
MIN_SERVICE_TIME = 1e-9


@dataclass
class DriverConfig:
    """Driver knobs.

    Attributes:
        online_hardware: Profile charged for SUT-initiated online
            retraining (§V-B: "the fraction of system resources to
            dedicate for online training" — here, which resources).
        max_queries: Safety valve on total queries per run.
        jitter_arrivals: Randomize arrival offsets within each second.
        servers: Number of parallel service slots. 1 models a single
            worker; higher values model a concurrency level, letting
            scenarios exercise the "fluctuations in query load and
            concurrency" the paper lists. Online retraining blocks
            *every* server (a stop-the-world rebuild).
        block_size: Cap on queries per block, of both kinds: each
            interrupt-free slice is chopped into execute blocks of at
            most this many queries before ``execute_batch``, and held
            services are queued and appended before a queue block
            would pass it, bounding both working sets. ``None`` (the
            default) means :data:`DEFAULT_BLOCK_SIZE`, not "unbounded".
            Results are bit-identical at any block size (the FIFO kernel
            carries queue state across calls and fault perturbation is
            keyed on arrival times); only tracer block counters differ.
    """

    online_hardware: HardwareProfile = CPU
    max_queries: int = 2_000_000
    jitter_arrivals: bool = True
    servers: int = 1
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise DriverError(f"servers must be >= 1, got {self.servers}")
        if self.block_size is not None and self.block_size < 1:
            raise DriverError(
                f"block_size must be >= 1, got {self.block_size}"
            )

    def describe(self) -> dict:
        """JSON-friendly description (part of the runner's cache key).

        ``block_size`` appears only when set, so cache keys and golden
        manifests from default-config runs are unchanged by the
        streaming subsystem (mirroring the scenario's conditional
        ``faults`` key).
        """
        out = {
            "online_hardware": self.online_hardware.name,
            "max_queries": self.max_queries,
            "jitter_arrivals": self.jitter_arrivals,
            "servers": self.servers,
        }
        if self.block_size is not None:
            out["block_size"] = self.block_size
        return out


class _InterruptStream:
    """Merged tick + point-fault sequence for one segment.

    Tick times are produced by the same repeated float addition the
    original tick loops used (``t += tick_interval`` starting from the
    segment start), so a fault-free stream is bit-identical to the
    pre-faults driver; a ``first_tick`` of ``inf`` carries no ticks at
    all. Point faults (already restricted to the segment's
    ``[start, end)`` window, sorted by time) are interleaved by time;
    when a fault coincides exactly with a tick, the tick fires first —
    the tie-break is fixed so the driver and the scalar oracle agree.
    """

    __slots__ = ("_next_tick", "_interval", "_faults", "_idx")

    def __init__(
        self, first_tick: float, tick_interval: float, faults: List[PointFault]
    ) -> None:
        self._next_tick = first_tick
        self._interval = tick_interval
        self._faults = faults
        self._idx = 0

    def peek(self) -> float:
        """Time of the next interrupt (``inf`` when there is none)."""
        if self._idx < len(self._faults):
            at = self._faults[self._idx].at
            if at < self._next_tick:
                return at
        return self._next_tick

    def pop(self) -> Tuple[float, Optional[PointFault]]:
        """Consume the next interrupt: ``(time, fault-or-None-for-tick)``."""
        if self._idx < len(self._faults):
            fault = self._faults[self._idx]
            if fault.at < self._next_tick:
                self._idx += 1
                return fault.at, fault
        t = self._next_tick
        self._next_tick += self._interval
        return t, None


class VirtualClockDriver:
    """Runs a scenario against a SUT on a virtual clock.

    Args:
        config: Driver knobs.
        tracer: Observability sink (:class:`~repro.observability.Tracer`)
            receiving per-segment/per-batch serve spans, train/adapt
            spans carrying the run's training events, and driver
            counters. Defaults to the no-op
            :data:`~repro.observability.NULL_TRACER`, which keeps the
            hot path allocation-free; tracing never changes the
            produced :class:`RunResult`.
    """

    def __init__(
        self, config: Optional[DriverConfig] = None, tracer=None
    ) -> None:
        """Bind the driver to ``config`` and an optional tracer."""
        self.config = config or DriverConfig()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._fault_clock: Optional[FaultClock] = None

    def run(self, sut: SystemUnderTest, scenario: Scenario) -> RunResult:
        """Execute ``scenario`` against ``sut`` and return the record."""
        recorder = ColumnarRecorder()
        training_events, _ = self._execute(sut, scenario, recorder)
        with self.tracer.span("collect-result", phase="report"):
            return RunResult(
                sut_name=sut.name,
                scenario_name=scenario.name,
                columns=recorder.build(),
                segments=scenario.segment_boundaries(),
                training_events=training_events,
                scenario_description=scenario.describe(),
                sut_description=sut.describe(),
            )

    def run_streaming(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        accumulators=None,
        sla: Optional[float] = None,
        spill_dir=None,
    ):
        """Execute ``scenario`` in bounded memory; return the summary.

        Same execution as :meth:`run` — same kernels, same RNG streams,
        same fault and training semantics — but completed blocks fold
        into online metric accumulators instead of accumulating in a
        result buffer, so resident memory is bounded by the largest
        segment's arrival arrays plus one O(block) working set, not the
        run length. Set ``config.block_size`` to bound the execution
        blocks themselves.

        Args:
            accumulators: Metric accumulators to fold (objects with
                ``name`` / ``fold(block)`` / ``finalize(horizon)``);
                default: :func:`repro.metrics.streaming_accumulators`
                for the scenario (with ``sla``, and the scenario's
                fault plan when set).
            sla: SLA threshold handed to the default accumulator set.
            spill_dir: When set, spill raw query columns to sharded
                files in this directory (see
                :class:`~repro.core.streaming.ColumnSpiller`).

        Returns:
            :class:`~repro.core.streaming.StreamingRunSummary` with
            every accumulator's finalized payload under ``metrics``.
        """
        from repro.core.streaming import (
            ColumnSpiller,
            StreamingRecorder,
            StreamingRunSummary,
        )

        if accumulators is None:
            from repro.metrics import streaming_accumulators

            accumulators = streaming_accumulators(
                scenario, sla=sla, plan=scenario.fault_plan
            )
        spiller = ColumnSpiller(spill_dir) if spill_dir is not None else None
        if spiller is not None:
            spiller.tracer = self.tracer
        recorder = StreamingRecorder(accumulators=accumulators, spiller=spiller)
        training_events, _ = self._execute(sut, scenario, recorder)
        with self.tracer.span("collect-result", phase="report"):
            boundaries = scenario.segment_boundaries()
            duration = boundaries[-1][2] if boundaries else 0.0
            horizon = max(duration, recorder.max_completion)
            metrics = {
                acc.name: acc.finalize(horizon) for acc in recorder.accumulators
            }
            spill = (
                spiller.finish(recorder.op_vocab, recorder.segment_vocab)
                if spiller is not None
                else None
            )
            return StreamingRunSummary(
                sut_name=sut.name,
                scenario_name=scenario.name,
                segments=boundaries,
                training_events=training_events,
                scenario_description=scenario.describe(),
                sut_description=sut.describe(),
                num_queries=recorder.count,
                max_completion=recorder.max_completion,
                op_counts=recorder.op_counts(),
                segment_counts=recorder.segment_counts(),
                metrics=metrics,
                spill=spill,
            )

    def run_streaming_shard(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        shard,
        accumulators,
        spiller=None,
    ) -> dict:
        """Execute one shard of ``scenario``; return its mergeable payload.

        The worker half of sharded streaming (see
        :func:`~repro.core.sharded.run_shard_sessions`): runs the
        shard's slice through the normal streaming machinery, but
        instead of finalizing, snapshots every accumulator's
        ``state_dict()`` so the parent can merge shard states and
        finalize once.

        Args:
            shard: The :class:`~repro.core.streaming.ShardSpec` naming
                this worker's segment (and optional arrival) range.
            accumulators: Accumulators built from the *full* scenario —
                grids, change points, and segment boundaries must anchor
                identically across shards for states to merge.
            spiller: Optional shard-local
                :class:`~repro.core.streaming.ColumnSpiller`.

        Returns:
            A picklable dict with the shard's counts, vocab-ordered
            ``op_counts`` / ``segment_counts``, training events,
            ``(name, state_dict)`` pairs per accumulator, the shard's
            spill manifest, plus ``first_arrival`` / ``final_busy``
            timestamps for the executor's drain check.
        """
        from repro.core.streaming import StreamingRecorder

        if spiller is not None:
            spiller.tracer = self.tracer
        recorder = StreamingRecorder(
            accumulators=list(accumulators), spiller=spiller
        )
        training_events, server_free = self._execute(
            sut, scenario, recorder, shard=shard
        )
        manifest = (
            spiller.finish(recorder.op_vocab, recorder.segment_vocab)
            if spiller is not None
            else None
        )
        return {
            "index": shard.index,
            "sut_name": sut.name,
            "sut_description": sut.describe(),
            "num_queries": recorder.count,
            "max_completion": recorder.max_completion,
            "first_arrival": recorder.first_arrival,
            "final_busy": max(server_free) if server_free else 0.0,
            "op_counts": recorder.op_counts(),
            "segment_counts": recorder.segment_counts(),
            "training_events": training_events,
            "states": [
                (acc.name, acc.state_dict()) for acc in recorder.accumulators
            ],
            "spill": manifest,
        }

    def _replay_segment_state(
        self, sut: SystemUnderTest, segment, seg_start: float
    ) -> None:
        """Apply a pre-shard segment's SUT state changes, queries skipped.

        Shards replay the segments before their range so the SUT enters
        the shard with the same trained model and injected data as the
        unsharded run; the training event is discarded (the owning shard
        records it) and no queries execute. Tick-driven adaptation inside
        skipped segments is *not* replayed — exact for a SUT that does
        not listen to ticks (``listens_to_ticks`` is false) or whose
        service times ignore tick state, a documented approximation
        otherwise (DESIGN.md §10).
        """
        if segment.training_before is not None:
            self._run_training_phase(
                sut, segment.training_before, start_at=seg_start
            )
        self._inject(sut, segment)

    @staticmethod
    def _inject(sut: SystemUnderTest, segment) -> None:
        """Hand the segment's injected keys (valueless) to the SUT."""
        keys = segment.data_injection
        if keys is not None and keys.size:
            sut.inject(KeyColumnPairs(keys, values=[None] * keys.size))

    def _execute(
        self, sut: SystemUnderTest, scenario: Scenario, recorder, shard=None
    ) -> Tuple[List[TrainingEvent], List[float]]:
        """Drive ``scenario`` against ``sut``, appending into ``recorder``.

        The recorder-agnostic core shared by :meth:`run` (columnar,
        retain-everything) and :meth:`run_streaming` (bounded-memory
        folds): any object with the :class:`ColumnarRecorder`
        ``intern_*`` / ``reserve`` / ``append_block`` interface works.
        With a :class:`~repro.core.streaming.ShardSpec` in ``shard``,
        only that slice of the scenario executes: earlier
        segments are replayed for SUT state, later ones skipped, and an
        arrival range slices the single executed segment's batch without
        touching the workload RNG stream. Returns the run's training
        events plus the final per-server busy times (sharded runs use
        the latter to verify queue drain at shard boundaries).
        """
        training_events: List[TrainingEvent] = []
        tracer = self.tracer
        sut.attach_tracer(tracer)
        # Per-run fault state; None keeps every fault branch untaken.
        self._fault_clock = (
            FaultClock(scenario.fault_plan) if scenario.fault_plan else None
        )

        # Initial load + offline training happen before query time zero.
        with tracer.span("setup", phase="serve", sut=sut.name,
                         scenario=scenario.name):
            keys = scenario.initial_keys
            sut.setup(KeyColumnPairs(() if keys is None else keys))
        if scenario.initial_training is not None:
            event = self._run_training_phase(
                sut, scenario.initial_training, start_at=None
            )
            # Every shard trains (SUT state), only shard 0 records the
            # event — the merged timeline must list it exactly once.
            if event is not None and (shard is None or shard.index == 0):
                training_events.append(event)

        # Min-heap of per-server next-free times (k parallel workers).
        server_free: List[float] = [0.0] * self.config.servers
        heapq.heapify(server_free)
        seg_start = 0.0
        total_queries = 0
        # Lazily interned op codes: op_map[batch code] -> recorder code,
        # filled in first-occurrence order (the scalar oracle's per-query
        # first-sight vocabulary). Sized from the first batch: the op
        # vocabulary belongs to the batch type (``batch.op_names``).
        op_map: Optional[np.ndarray] = None
        for seg_index, segment in enumerate(scenario.segments):
            seg_end = seg_start + segment.duration
            if shard is not None:
                if seg_index >= shard.segment_hi:
                    break
                if seg_index < shard.segment_lo:
                    with tracer.span(
                        f"segment-replay:{segment.label}",
                        phase="serve",
                        index=seg_index,
                    ):
                        self._replay_segment_state(sut, segment, seg_start)
                    seg_start = seg_end
                    continue
            with tracer.span(
                f"segment:{segment.label}", phase="serve", index=seg_index
            ):
                # Between-segment retraining blocks every server.
                if segment.training_before is not None:
                    event = self._run_training_phase(
                        sut,
                        segment.training_before,
                        start_at=max(seg_start, max(server_free)),
                    )
                    if event is not None:
                        training_events.append(event)
                        server_free = [max(f, event.end) for f in server_free]
                        heapq.heapify(server_free)
                self._inject(sut, segment)

                workload = segment.spec.build_workload(
                    seed=scenario.seed * 1_000_003 + seg_index
                )
                # Check the projected count *before* materializing arrival
                # arrays: an oversized segment must not allocate first.
                projected = workload.spec.arrivals.projected_count(
                    0.0, segment.duration
                )
                if total_queries + projected > self.config.max_queries:
                    raise DriverError(
                        f"scenario generates > {self.config.max_queries} queries "
                        f"(segment {segment.label!r} alone projects {projected}); "
                        "reduce rates or durations"
                    )
                local = workload.spec.arrivals.arrivals(
                    np.random.default_rng(scenario.seed * 7 + seg_index),
                    0.0,
                    segment.duration,
                    jitter=self.config.jitter_arrivals,
                )
                arrivals = local + seg_start
                if shard is not None and shard.arrival_lo is not None:
                    # Generate the full segment batch so the workload RNG
                    # stream matches the unsharded run bitwise, then
                    # execute only this shard's arrival-index slice (a
                    # zero-copy view).
                    batch = workload.next_batch(arrivals).slice(
                        shard.arrival_lo, shard.arrival_hi
                    )
                    arrivals = batch.arrivals
                else:
                    batch = workload.next_batch(arrivals)
                total_queries += arrivals.size
                if op_map is None:
                    op_map = np.full(len(batch.op_names), -1, dtype=np.int32)
                recorder.reserve(arrivals.size)
                segment_code = recorder.intern_segment(segment.label)
                tracer.counter("driver.segments")
                tracer.counter("driver.queries", arrivals.size)

                server_free = self._run_segment(
                    sut,
                    scenario,
                    batch,
                    seg_start,
                    seg_end,
                    segment_code,
                    server_free,
                    recorder,
                    op_map,
                    training_events,
                )
            seg_start = seg_end

        sut.teardown()
        return training_events, server_free

    # -- segment execution -------------------------------------------------------------

    def _run_segment(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        batch: QueryBatch,
        seg_start: float,
        seg_end: float,
        segment_code: int,
        server_free: List[float],
        recorder: ColumnarRecorder,
        op_map: np.ndarray,
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Serve one segment: execute blocks, then queue blocks.

        The scalar oracle fires every interrupt (tick or point fault) with
        ``time <= arrival`` before each arrival; slicing the arrival
        array at each interrupt with ``searchsorted(..., side="left")``
        reproduces that interleaving exactly — queries strictly before
        the interrupt run first, then it fires, and trailing interrupts
        fill out to the segment end. ``execute_batch`` is called on each
        such slice, chopped at ``block_size``.

        The executed service times are held until the queue must settle:
        before a tick that retrains is charged, before a point fault,
        at the segment end, and before the held rows would pass
        ``block_size``. Only then do the FIFO kernel, op interning and
        ``recorder.append_block`` run, once over the whole held run of
        rows. The kernel threads its free-time state through
        consecutive calls and nothing the SUT sees depends on it, so
        these cuts move no timestamp.
        """
        arrivals = batch.arrivals
        n = len(batch)
        block = self.config.block_size or DEFAULT_BLOCK_SIZE
        stream = self._interrupts(sut, seg_start, seg_end, scenario)
        held: List[np.ndarray] = []  # services of rows [lo, idx), unqueued
        lo = idx = 0

        def settle(server_free: List[float]) -> List[float]:
            """Queue the held rows ``[lo, idx)`` and append them as a block."""
            nonlocal lo
            if idx == lo:
                return server_free
            self.tracer.counter("driver.queue_blocks")
            rows = slice(lo, idx)
            services = held[0] if len(held) == 1 else np.concatenate(held)
            held.clear()
            if self.config.servers == 1:
                starts, completions, server_free[0] = fifo_single_server(
                    arrivals[rows], services, server_free[0]
                )
            else:
                starts, completions, server_free = fifo_multi_server(
                    arrivals[rows], services, server_free
                )
            del services  # only the timestamps reach the recorder's fold
            ops = batch.ops[rows]
            op_codes = op_map[ops]
            if (op_codes < 0).any():
                # Intern the new ops in first-occurrence order (matches the
                # scalar oracle's lazy first-sight vocabulary).
                uniq, first = np.unique(ops, return_index=True)
                for u in uniq[np.argsort(first)]:
                    if op_map[u] < 0:
                        op_map[u] = recorder.intern_op(batch.op_names[int(u)])
                op_codes = op_map[ops]
            recorder.append_block(
                arrivals[rows], starts, completions, op_codes, segment_code
            )
            lo = idx
            return server_free

        while True:
            at = stream.peek()
            end = n if at >= seg_end else idx + int(
                np.searchsorted(arrivals[idx:], at, side="left")
            )
            for a in range(idx, end, block):
                b = min(a + block, end)
                if b - lo > block:
                    server_free = settle(server_free)
                held.append(self._execute_block(sut, batch.slice(a, b)))
                idx = b
            if at >= seg_end:
                return settle(server_free)
            server_free = self._fire_interrupt(
                sut, stream, server_free, training_events, settle
            )

    def _execute_block(self, sut: SystemUnderTest, sub: QueryBatch) -> np.ndarray:
        """Run one execute block on the SUT; return its clamped services."""
        self.tracer.counter("driver.batches")
        self.tracer.counter("driver.batched_queries", len(sub))
        with self.tracer.span("batch", phase="serve", queries=len(sub)):
            services = np.maximum(
                MIN_SERVICE_TIME,
                np.asarray(
                    sut.execute_batch(sub, float(sub.arrivals[0])), dtype=np.float64
                ),
            )
        if self._fault_clock is not None and self._fault_clock.has_window_faults:
            services = np.maximum(
                MIN_SERVICE_TIME,
                self._fault_clock.perturb_batch(services, sub.arrivals),
            )
        return services

    # -- helpers ---------------------------------------------------------------------

    def _interrupts(
        self,
        sut: SystemUnderTest,
        seg_start: float,
        seg_end: float,
        scenario: Scenario,
    ) -> _InterruptStream:
        """Build the segment's merged tick + point-fault stream.

        Ticks are in it only for a SUT that listens to them
        (:attr:`SystemUnderTest.listens_to_ticks`; a duck-typed SUT
        without the attribute keeps every tick).
        """
        faults: List[PointFault] = []
        if self._fault_clock is not None:
            faults = self._fault_clock.point_faults_in(seg_start, seg_end)
        listens = getattr(sut, "listens_to_ticks", True)
        return _InterruptStream(
            seg_start if listens else math.inf, scenario.tick_interval, faults
        )

    def _fire_interrupt(
        self,
        sut: SystemUnderTest,
        stream: _InterruptStream,
        server_free: List[float],
        training_events: List[TrainingEvent],
        settle: Optional[Callable[[List[float]], List[float]]] = None,
    ) -> List[float]:
        """Consume and apply the stream's next interrupt.

        A tick is delivered first; ``settle`` (the segment's queue-block
        cut, when given) runs only if the interrupt is about to change
        the server pool — a tick that retrains, or a point fault.
        """
        now, fault = stream.pop()
        if fault is None:
            nominal = self._deliver_tick(sut, now)
            if nominal is None:
                return server_free
        if settle is not None:
            server_free = settle(server_free)
        if fault is None:
            return self._charge_tick(now, nominal, server_free, training_events)
        return self._fire_fault(sut, fault, server_free, training_events)

    def _fire_fault(
        self,
        sut: SystemUnderTest,
        fault: PointFault,
        server_free: List[float],
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Apply one point fault to the server pool.

        Both stalls and crashes block *new* service on every server
        until the outage ends; queries already in flight complete as
        scheduled (the pause stops work from starting, not finishing).
        A crash additionally fires ``sut.on_crash``; if the SUT reports
        a cold retrain, it runs once the process is back up and the
        busiest server has drained, extending the outage and landing in
        ``training_events`` so the cost metrics price it.
        """
        self.tracer.counter("driver.faults")
        if isinstance(fault, StallFault):
            self.tracer.counter("driver.fault_stalls")
            span = self.tracer.start_span(
                "fault:stall", phase="fault", at=fault.at, duration=fault.duration
            )
            self.tracer.end_span()
            resume = fault.at + fault.duration
            blocked = [max(f, resume) for f in server_free]
            heapq.heapify(blocked)
            return blocked
        self.tracer.counter("driver.fault_crashes")
        span = self.tracer.start_span(
            "fault:crash",
            phase="fault",
            at=fault.at,
            recovery_seconds=fault.recovery_seconds,
        )
        try:
            nominal = sut.on_crash(fault.at)
        finally:
            self.tracer.end_span()
        resume = fault.at + fault.recovery_seconds
        blocked = [max(f, resume) for f in server_free]
        if nominal and nominal > 0:
            event = make_event(
                start=max(blocked),
                nominal_seconds=float(nominal),
                hardware=self.config.online_hardware,
                online=True,
                label="crash-retrain",
            )
            training_events.append(event)
            if span is not None:
                span.attrs["training_event"] = event_to_telemetry(event)
            blocked = [max(f, event.end) for f in blocked]
        heapq.heapify(blocked)
        return blocked

    def _run_training_phase(
        self,
        sut: SystemUnderTest,
        phase: TrainingPhase,
        start_at: Optional[float],
    ) -> Optional[TrainingEvent]:
        """Run a blocking offline phase; returns its event (or None).

        The phase runs inside a train-phase span so its *wall* time is
        measured; when training actually happened, the resulting
        :class:`TrainingEvent` (virtual-time accounting) is attached to
        that span as a ``training_event`` attribute, which is what
        :func:`repro.metrics.cost.phases_from_trace` reads back.
        """
        span = self.tracer.start_span("offline-train", phase="train")
        try:
            used = float(sut.offline_train(phase.budget_seconds))
        finally:
            self.tracer.end_span()
        if used <= 0:
            return None
        if used > phase.budget_seconds + 1e-9:
            raise DriverError(
                f"SUT {sut.name!r} used {used}s of a {phase.budget_seconds}s budget"
            )
        wall = phase.hardware.wall_time(used)
        start = -wall if start_at is None else start_at
        event = make_event(
            start=start,
            nominal_seconds=used,
            hardware=phase.hardware,
            online=False,
            label="offline",
        )
        self.tracer.counter("driver.offline_trainings")
        if span is not None:
            span.attrs["training_event"] = event_to_telemetry(event)
        return event

    def _deliver_tick(self, sut: SystemUnderTest, now: float) -> Optional[float]:
        """Deliver one tick; return the requested retrain's nominal time.

        ``None`` when the SUT asks for nothing (or a non-positive time).
        """
        self.tracer.counter("driver.ticks")
        nominal = sut.on_tick(now)
        return float(nominal) if nominal and nominal > 0 else None

    def _charge_tick(
        self,
        now: float,
        nominal: float,
        server_free: List[float],
        training_events: List[TrainingEvent],
    ) -> List[float]:
        """Charge a tick's online retrain to every server.

        An online retrain is stop-the-world: it starts once the busiest
        server drains and blocks every server until it finishes.
        """
        event = make_event(
            start=max(now, max(server_free)),
            nominal_seconds=nominal,
            hardware=self.config.online_hardware,
            online=True,
            label="online-retrain",
        )
        training_events.append(event)
        # Marker span carrying the measured event; the SUT's own adapt
        # span (inside on_tick) holds the wall time of the rebuild.
        span = self.tracer.start_span("online-retrain", phase="adapt")
        self.tracer.end_span()
        if span is not None:
            span.attrs["training_event"] = event_to_telemetry(event)
        self.tracer.counter("driver.online_retrains")
        blocked = [max(f, event.end) for f in server_free]
        heapq.heapify(blocked)
        return blocked
