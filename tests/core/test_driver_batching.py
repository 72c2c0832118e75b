"""The batched driver is pinned, bit for bit, to the scalar oracle.

:class:`VirtualClockDriver` must reproduce :class:`ScalarReferenceDriver`
(``tests/reference_driver.py``) exactly: same result columns, same
vocabularies, same training events, same SUT-side counters. Both consume
the same vectorized :class:`QueryBatch` per segment, so every remaining
difference — the FIFO kernel, tick/batch slicing, bulk index lookups,
deferred observation hooks, block appends — is under test here.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest
from tests.reference_driver import ScalarReferenceDriver

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.queueing import fifo_single_server
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.faults import CrashFault, FaultPlan, StallFault
from repro.observability import NullTracer, Tracer
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution, ZipfDistribution
from repro.workloads.drift import AbruptDrift
from repro.workloads.generators import (
    KVOperation,
    OperationMix,
    WorkloadSpec,
    simple_spec,
)
from repro.workloads.patterns import ConstantArrivals

COLUMNS = ("arrivals", "starts", "completions", "op_codes", "segment_codes")


class _RetrainEveryTick(TraditionalKVStore):
    """Listens to ticks; every tick asks for a short stop-the-world retrain."""

    def on_tick(self, now):
        return 0.01


def _mixed_scenario(seed: int = 11, extra_segments: Optional[List[Segment]] = None):
    """Two segments: steady reads, then a drifting mixed-op workload."""
    mix = OperationMix(
        {
            KVOperation.READ: 0.7,
            KVOperation.INSERT: 0.15,
            KVOperation.SCAN: 0.1,
            KVOperation.UPDATE: 0.05,
        }
    )
    spec_reads = simple_spec("s0", UniformDistribution(0, 1000), rate=300.0)
    spec_mixed = WorkloadSpec(
        name="s1",
        mix=mix,
        key_drift=AbruptDrift(
            [UniformDistribution(0, 1000), ZipfDistribution(0, 1000, theta=1.2)],
            [1.0],
        ),
        arrivals=ConstantArrivals(300.0),
        scan_length_mean=16,
    )
    segments = [
        Segment(spec=spec_reads, duration=2.0),
        Segment(spec=spec_mixed, duration=2.0),
    ]
    if extra_segments:
        segments.extend(extra_segments)
    return Scenario(
        name="mixed",
        segments=segments,
        seed=seed,
        initial_keys=np.linspace(0, 1000, 2000),
    )


def _run_both(sut_factory, scenario_factory, tracer_factory=None, **config_kwargs):
    out = []
    for driver_cls in (VirtualClockDriver, ScalarReferenceDriver):
        config = DriverConfig(**config_kwargs)
        tracer = tracer_factory() if tracer_factory is not None else None
        out.append(
            driver_cls(config, tracer=tracer).run(sut_factory(), scenario_factory())
        )
    return tuple(out)


def _assert_identical(batched, scalar):
    for name in COLUMNS:
        assert np.array_equal(
            getattr(batched.columns, name), getattr(scalar.columns, name)
        ), f"column {name!r} diverged"
    assert batched.columns.op_vocab == scalar.columns.op_vocab
    assert batched.columns.segment_vocab == scalar.columns.segment_vocab
    assert [
        (e.start, e.end, e.nominal_seconds, e.online)
        for e in batched.training_events
    ] == [
        (e.start, e.end, e.nominal_seconds, e.online)
        for e in scalar.training_events
    ]
    # The SUT's genuine work (index counters, drift checks, retrains)
    # must match too — batching may not change what the system measured.
    assert batched.sut_description == scalar.sut_description


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("servers", [1, 4])
    def test_traditional_store(self, servers):
        batched, scalar = _run_both(
            TraditionalKVStore, _mixed_scenario, servers=servers
        )
        _assert_identical(batched, scalar)
        assert batched.columns.arrivals.size > 1000

    @pytest.mark.parametrize("servers", [1, 4])
    def test_learned_store_with_retrains(self, servers):
        """Adaptive SUT: drift detection and online retrains fire in the
        driver and the oracle at the same ticks with the same nominal costs."""
        batched, scalar = _run_both(
            LearnedKVStore, _mixed_scenario, servers=servers
        )
        _assert_identical(batched, scalar)

    def test_zero_arrival_segment(self):
        """A rate-0 segment contributes no queries but still ticks."""
        quiet = Segment(
            spec=simple_spec("quiet", UniformDistribution(0, 1000), rate=0.0),
            duration=3.0,
        )
        batched, scalar = _run_both(
            TraditionalKVStore,
            lambda: _mixed_scenario(extra_segments=[quiet]),
        )
        _assert_identical(batched, scalar)
        assert "quiet" in batched.columns.segment_vocab

    def test_tiny_duration_segment(self):
        """A near-zero-duration segment (usually empty) stays aligned."""
        blip = Segment(
            spec=simple_spec("blip", UniformDistribution(0, 1000), rate=500.0),
            duration=1e-6,
        )
        batched, scalar = _run_both(
            TraditionalKVStore,
            lambda: _mixed_scenario(extra_segments=[blip]),
        )
        _assert_identical(batched, scalar)

    def test_truncate_max_queries_mid_batch(self):
        """Truncation cuts the same arrivals in the driver and the oracle."""
        batched, scalar = _run_both(
            TraditionalKVStore,
            _mixed_scenario,
            max_queries=700,
            truncate_max_queries=True,
        )
        _assert_identical(batched, scalar)
        assert batched.columns.arrivals.size == 700

    @pytest.mark.parametrize("interrupt", ["tick", "fault"])
    def test_interrupts_tied_with_arrivals(self, interrupt):
        """An interrupt at an arrival's exact time fires before that query.

        Unjittered 4 q/s arrivals sit on odd multiples of 1/8 s. Ticks
        every 1/8 s, or a stall and a crash placed on two arrivals, tie
        with them exactly, so cutting a slice on the wrong side of a tie
        changes the columns.
        """
        spec = simple_spec("grid", UniformDistribution(0, 1000), rate=4.0)
        plan = FaultPlan([
            StallFault(at=1.375, duration=0.05),
            CrashFault(at=2.625, recovery_seconds=0.1),
        ])

        def scenario():
            return Scenario(
                name="ties",
                segments=[Segment(spec=spec, duration=4.0)],
                seed=3,
                initial_keys=np.linspace(0, 1000, 500),
                tick_interval=0.125,
                fault_plan=plan if interrupt == "fault" else None,
            )

        sut_factory = _RetrainEveryTick if interrupt == "tick" else TraditionalKVStore
        batched, scalar = _run_both(sut_factory, scenario, jitter_arrivals=False)
        _assert_identical(batched, scalar)
        assert batched.columns.arrivals.size == 16

    def test_truncation_off_still_raises(self):
        from repro.errors import DriverError

        with pytest.raises(DriverError):
            VirtualClockDriver(DriverConfig(max_queries=700)).run(
                TraditionalKVStore(), _mixed_scenario()
            )


class TestTracingInvariance:
    """Tracing is observational: it may never change a run's results."""

    @pytest.mark.parametrize("sut_factory", [TraditionalKVStore, LearnedKVStore])
    def test_batched_equals_scalar_with_tracing_enabled(self, sut_factory):
        """The bit-identity invariant holds with a live tracer attached."""
        batched, scalar = _run_both(
            sut_factory, _mixed_scenario, tracer_factory=Tracer
        )
        _assert_identical(batched, scalar)

    @pytest.mark.parametrize("tracer_factory", [None, NullTracer, Tracer])
    def test_result_payload_identical_across_tracers(self, tracer_factory):
        """No tracer, NullTracer, and full Tracer: byte-identical results."""
        import json

        config = DriverConfig()
        tracer = tracer_factory() if tracer_factory is not None else None
        result = VirtualClockDriver(config, tracer=tracer).run(
            LearnedKVStore(), _mixed_scenario()
        )
        payload = json.dumps(result.to_dict(), sort_keys=True)
        baseline = VirtualClockDriver(DriverConfig()).run(
            LearnedKVStore(), _mixed_scenario()
        )
        assert payload == json.dumps(baseline.to_dict(), sort_keys=True)

    def test_trace_counts_agree_with_result(self):
        """The trace's driver counters match the run record exactly."""
        tracer = Tracer()
        result = VirtualClockDriver(DriverConfig(), tracer=tracer).run(
            LearnedKVStore(), _mixed_scenario()
        )
        trace = tracer.finish()
        assert trace.counter("driver.queries") == result.num_queries
        assert trace.counter("driver.segments") == len(result.segments)
        online = sum(1 for e in result.training_events if e.online)
        assert trace.counter("driver.online_retrains") == online
        # Per-batch spans cover every query served through the fast path.
        assert trace.counter("driver.batched_queries") == result.num_queries
        batch_spans = [s for s in trace.walk() if s.name == "batch"]
        assert len(batch_spans) == trace.counter("driver.batches")
        assert sum(s.attrs["queries"] for s in batch_spans) == result.num_queries

    def test_no_open_spans_after_run(self):
        tracer = Tracer()
        VirtualClockDriver(DriverConfig(), tracer=tracer).run(
            TraditionalKVStore(), _mixed_scenario()
        )
        assert tracer.open_spans == 0


class TestExecuteOnlyFallback:
    """Third-party SUTs that only implement ``execute`` keep working."""

    class MinimalSUT(SystemUnderTest):
        def __init__(self):
            super().__init__("minimal")
            self.calls: List[float] = []

        def setup(self, pairs):
            pass

        def execute(self, query, now):
            self.calls.append(now)
            return 1e-4 + (query.key % 7) * 1e-6

    def test_default_execute_batch_loops(self):
        batched, scalar = _run_both(self.MinimalSUT, _mixed_scenario)
        _assert_identical(batched, scalar)

    def test_now_is_arrival_time(self):
        sut = self.MinimalSUT()
        result = VirtualClockDriver().run(sut, _mixed_scenario())
        assert np.array_equal(
            np.asarray(sut.calls), result.columns.arrivals
        )


class TestFifoKernel:
    @staticmethod
    def _scalar_fifo(arrivals, services, free):
        starts, completions = [], []
        for a, s in zip(arrivals, services):
            start = max(float(a), free)
            completion = start + float(s)
            free = completion
            starts.append(start)
            completions.append(completion)
        return np.asarray(starts), np.asarray(completions), free

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_loop_exactly(self, seed):
        """Random overload/idle mixtures: exact float equality."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5000))
        arrivals = np.sort(rng.uniform(0.0, 10.0, n))
        # Alternate regimes so both kernel branches get exercised.
        services = rng.uniform(0.0, 2.5 / max(n, 1), n)
        services[rng.uniform(size=n) < 0.3] *= 50.0
        free = float(rng.uniform(0.0, 0.5))
        ref = self._scalar_fifo(arrivals, services, free)
        got = fifo_single_server(arrivals, services, free)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])
        assert ref[2] == got[2]

    def test_empty_batch(self):
        starts, completions, free = fifo_single_server(
            np.empty(0), np.empty(0), 3.5
        )
        assert starts.size == 0 and completions.size == 0
        assert free == 3.5

    def test_tie_arrival_equals_completion(self):
        """An arrival exactly at the previous completion starts there."""
        arrivals = np.asarray([0.0, 1.0, 2.0])
        services = np.asarray([1.0, 1.0, 1.0])
        starts, completions, free = fifo_single_server(arrivals, services)
        assert starts.tolist() == [0.0, 1.0, 2.0]
        assert completions.tolist() == [1.0, 2.0, 3.0]
        assert free == 3.0
