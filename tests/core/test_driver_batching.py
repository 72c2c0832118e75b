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
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.core.test_tick_contract import PLAN
from tests.core.test_tick_contract import _scenario as _tick_scenario
from tests.reference_driver import ScalarReferenceDriver
from tests.reporting.test_report_fold import _BlockCount
from tests.result_helpers import assert_same_result

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.queueing import fifo_single_server
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.faults import CrashFault, FaultPlan, StallFault
from repro.observability import NullTracer, Tracer
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import (
    HotspotDistribution,
    UniformDistribution,
    ZipfDistribution,
)
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

    def test_drifting_hotspots_with_retrains_reach_the_scan(self, monkeypatch):
        """``drift_stream`` in miniature: an adaptive store under hotspots
        alternating 0.1 ↔ 0.7 near saturation, retrains blocking the
        server, the queue building and draining. The FIFO kernel's scan
        fills short and long periods, and the columns still match."""
        from repro.core import queueing

        periods = []
        scan = queueing._scan

        def spy(a, s, free, starts, completions):
            k = scan(a, s, free, starts, completions)
            head = np.flatnonzero(np.r_[True, a[1:k] >= completions[: k - 1]])
            periods.extend(np.diff(head, append=k).tolist())
            return k

        monkeypatch.setattr(queueing, "_scan", spy)

        def scenario():
            segments = [
                Segment(
                    spec=simple_spec(
                        f"hot-{i}",
                        HotspotDistribution(
                            0.0, 1000.0, hot_start=fraction * 1000.0,
                            hot_width=50.0, hot_fraction=0.9,
                        ),
                        rate=5000.0,
                    ),
                    duration=0.4,
                )
                for i, fraction in enumerate([0.1, 0.7, 0.1, 0.7])
            ]
            return Scenario(
                name="drift-stream-shape",
                segments=segments,
                seed=5,
                initial_keys=np.sort(np.random.default_rng(1).uniform(0, 1000, 4000)),
                tick_interval=0.25,
            )

        batched, scalar = _run_both(
            lambda: LearnedKVStore(max_fanout=64, retrain_cooldown=0.5), scenario
        )
        _assert_identical(batched, scalar)
        cols = batched.columns
        waits = cols.starts - cols.arrivals
        assert any(e.online for e in batched.training_events)
        assert 0.0 < np.mean(waits > 0) < 1.0 and waits.max() > 0.1
        assert max(periods) > queueing._SHORT
        assert any(1 < p <= queueing._SHORT for p in periods)

    def test_truncation_off_still_raises(self):
        from repro.errors import DriverError

        with pytest.raises(DriverError):
            VirtualClockDriver(DriverConfig(max_queries=700)).run(
                TraditionalKVStore(), _mixed_scenario()
            )


def _acting_store(acting):
    """Listens to every tick; only the ticks numbered in ``acting`` retrain.

    Ticks are numbered from 0 in delivery order.
    """
    sut = TraditionalKVStore()
    delivered = []

    def on_tick(now):
        delivered.append(now)
        return 0.02 if len(delivered) - 1 in acting else None

    sut.on_tick = on_tick
    return sut


class TestQueueBlocks:
    """Execute blocks end at every tick; queue blocks only where one acts."""

    #: Ticks of ``test_tick_contract``'s three 2 s segments at a 0.1 s
    #: interval that fall at 0.5, 1.2, 2.7 and 5.0 s: inside a segment,
    #: with rows on both sides of each.
    ACTING = frozenset({5, 12, 27, 50})

    @staticmethod
    def _scenario(plan=None):
        return _tick_scenario(0.1, plan)

    def test_a_queue_block_per_segment_and_acting_tick(self):
        tracer = Tracer()
        result = VirtualClockDriver(tracer=tracer).run(
            _acting_store(self.ACTING), self._scenario()
        )
        blocks = len(result.segments) + len(self.ACTING)
        assert tracer.counters["driver.queue_blocks"] == blocks
        assert tracer.counters["driver.online_retrains"] == len(self.ACTING)
        assert tracer.counters["driver.batches"] > 5 * blocks
        summary = VirtualClockDriver().run_streaming(
            _acting_store(self.ACTING), self._scenario(), accumulators=[_BlockCount()]
        )
        assert summary.metrics["blocks"] == blocks

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("block_size", [1, 7, 4096, 10_000])
    def test_columns_equal_the_scalar_oracle(self, block_size, faulted):
        plan = PLAN if faulted else None
        runs = [
            driver_cls(DriverConfig(block_size=block_size)).run(
                _acting_store(self.ACTING), self._scenario(plan)
            )
            for driver_cls in (VirtualClockDriver, ScalarReferenceDriver)
        ]
        _assert_identical(*runs)
        assert sum(e.online for e in runs[0].training_events) == len(self.ACTING)

    def test_queue_blocks_counter_on_a_grid(self):
        """16 unjittered arrivals at 4 q/s (odd multiples of 1/8 s), a tick
        every 0.5 s: eight execute blocks of two rows. ``block_size=7``
        packs the queue 6 + 2 up to the acting tick at 2.0 s, then 6 + 2."""
        spec = simple_spec("grid", UniformDistribution(0, 1000), rate=4.0)
        scenario = Scenario(
            name="grid",
            segments=[Segment(spec=spec, duration=4.0)],
            seed=3,
            initial_keys=np.linspace(0, 1000, 500),
            tick_interval=0.5,
        )
        tracer = Tracer()
        config = DriverConfig(block_size=7, jitter_arrivals=False)
        result = VirtualClockDriver(config, tracer=tracer).run(
            _acting_store({4}), scenario
        )
        assert result.num_queries == 16
        assert tracer.counters["driver.batches"] == 8
        assert tracer.counters["driver.queue_blocks"] == 4
        scalar = ScalarReferenceDriver(config).run(_acting_store({4}), scenario)
        _assert_identical(result, scalar)


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
        """No tracer, NullTracer, and full Tracer: bit-identical results."""
        config = DriverConfig()
        tracer = tracer_factory() if tracer_factory is not None else None
        result = VirtualClockDriver(config, tracer=tracer).run(
            LearnedKVStore(), _mixed_scenario()
        )
        baseline = VirtualClockDriver(DriverConfig()).run(
            LearnedKVStore(), _mixed_scenario()
        )
        assert_same_result(result, baseline)

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


FIFO_FAMILIES = (
    "grid", "zero_gaps", "alternating", "busy_chain", "idle", "near_tie_1e9",
)


@st.composite
def fifo_inputs(draw):
    """``(arrivals, services, free)`` from one adversarial family.

    ``grid`` puts arrivals and completions on the integers (exact ties);
    ``alternating`` flips idle↔busy every query; ``near_tie_1e9`` keeps
    gaps and services within a few ulps of 1e9-scale timestamps, where the
    kernel's approximate scan misreads heads. ``free`` lands before, on or
    after the first arrival.
    """
    family = draw(st.sampled_from(FIFO_FAMILIES))
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "grid":
        arrivals = np.cumsum(rng.integers(0, 3, n)).astype(np.float64)
        services = rng.integers(1, 4, n).astype(np.float64)
    elif family == "zero_gaps":
        gaps = np.where(rng.random(n) < 0.5, 0.0, rng.exponential(1.0, n))
        arrivals = np.cumsum(gaps)
        services = rng.exponential(0.7, n) + 1e-9
    elif family == "alternating":
        # Gaps of 1: a 1.25 service holds the next query, a 0.5 one does not.
        arrivals = np.arange(n, dtype=np.float64)
        services = np.where(np.arange(n) % 2 == 0, 1.25, 0.5)
    elif family == "busy_chain":
        arrivals = np.cumsum(rng.exponential(1.0, n))
        services = rng.exponential(5.0, n) + 1e-9
    elif family == "idle":
        arrivals = np.cumsum(rng.exponential(1.0, n) + 0.1)
        services = rng.uniform(1e-6, 0.1, n)
    else:
        arrivals = 1e9 + np.cumsum(rng.exponential(1e-7, n))
        services = rng.exponential(1e-7, n) + 1e-12
    offset = float(services[:4].sum())
    free = {
        "before": arrivals[0] - offset,
        "on": arrivals[0],
        "after": arrivals[0] + offset,
    }[draw(st.sampled_from(("before", "on", "after")))]
    return arrivals, services, float(free)


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

    @staticmethod
    def _assert_bits(got, ref):
        """Starts, completions and the free time agree bit for bit."""
        for g, r in zip(got[:2], ref[:2]):
            g = np.asarray(g, dtype=np.float64)
            r = np.asarray(r, dtype=np.float64)
            assert np.array_equal(g.view(np.uint64), r.view(np.uint64))
        assert np.float64(got[2]).view(np.uint64) == np.float64(ref[2]).view(np.uint64)

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

    @settings(max_examples=150, deadline=None)
    @given(fifo_inputs())
    def test_adversarial_families_match_scalar_bits(self, inputs):
        arrivals, services, free = inputs
        self._assert_bits(
            fifo_single_server(arrivals, services, free),
            self._scalar_fifo(arrivals, services, free),
        )

    @settings(max_examples=80, deadline=None)
    @given(fifo_inputs(), st.lists(st.floats(0.0, 1.0), max_size=3))
    def test_split_blocks_thread_free_to_the_unsplit_result(self, inputs, cuts):
        """Any cut, with ``free`` threaded through, changes no bit — the
        driver's block and tick slicing relies on it."""
        arrivals, services, free = inputs
        whole = fifo_single_server(arrivals, services, free)
        bounds = [0, *sorted(int(c * arrivals.size) for c in cuts), arrivals.size]
        starts, completions = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            s, c, free = fifo_single_server(arrivals[lo:hi], services[lo:hi], free)
            starts.append(s)
            completions.append(c)
        self._assert_bits((np.concatenate(starts), np.concatenate(completions), free), whole)

    def test_near_ties_resume_after_a_mismatch(self, monkeypatch):
        """At 1e9 scale, gaps and services of ~1 ulp make the scan's heads
        wrong; the kernel keeps the verified prefix, resumes, and still
        matches the scalar loop."""
        from repro.core import queueing

        scans = []
        scan = queueing._scan

        def spy(a, *rest):
            k = scan(a, *rest)
            scans.append((a.size, k))
            return k

        monkeypatch.setattr(queueing, "_scan", spy)
        rng = np.random.default_rng(0)
        arrivals = 1e9 + np.cumsum(rng.exponential(1e-7, 20_000))
        services = rng.exponential(1e-7, 20_000) + 1e-12
        self._assert_bits(
            fifo_single_server(arrivals, services, 0.0),
            self._scalar_fifo(arrivals, services, 0.0),
        )
        assert any(k < size for size, k in scans)

    @pytest.mark.parametrize("load", [None, 1.02, 0.4])
    def test_long_blocks_match_scalar_bits(self, load):
        """65,536 rows — alternating one-query flips, or Poisson arrivals at
        a load: long periods, doubling runs and windowed scans."""
        n = 65_536
        if load is None:
            arrivals = np.arange(n, dtype=np.float64)
            services = np.where(np.arange(n) % 2 == 0, 1.25, 0.5)
        else:
            rng = np.random.default_rng(7)
            arrivals = np.cumsum(rng.exponential(1.0, n))
            services = rng.exponential(load, n)
        self._assert_bits(
            fifo_single_server(arrivals, services, 0.0),
            self._scalar_fifo(arrivals, services, 0.0),
        )

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
