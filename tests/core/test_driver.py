"""The virtual-clock driver: queueing, ticks, training placement."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.errors import DriverError
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import KVQuery, simple_spec


class FakeSUT(SystemUnderTest):
    """Scriptable SUT: constant service time, optional tick retrains."""

    def __init__(
        self,
        service_time: float = 0.001,
        train_uses: float = 0.0,
        tick_retrain_at: Optional[float] = None,
        tick_nominal: float = 2.0,
    ) -> None:
        super().__init__("fake")
        self.service_time = service_time
        self.train_uses = train_uses
        self.tick_retrain_at = tick_retrain_at
        self.tick_nominal = tick_nominal
        self.executed: List[KVQuery] = []
        self.ticks: List[float] = []
        self.injected: List[Tuple[float, object]] = []
        self._retrained = False

    def setup(self, pairs):
        self.loaded = list(pairs)

    def inject(self, pairs):
        self.injected.extend(pairs)

    def execute(self, query, now):
        self.executed.append(query)
        return self.service_time

    def offline_train(self, budget_seconds):
        used = min(budget_seconds, self.train_uses)
        if used > 0:
            self.training.add(used)
        return used

    def on_tick(self, now):
        self.ticks.append(now)
        if (
            self.tick_retrain_at is not None
            and now >= self.tick_retrain_at
            and not self._retrained
        ):
            self._retrained = True
            return self.tick_nominal
        return None


def _scenario(rate=20.0, duration=5.0, segments=1, **kwargs):
    segs = [
        Segment(
            spec=simple_spec(f"s{i}", UniformDistribution(0, 100), rate=rate),
            duration=duration,
        )
        for i in range(segments)
    ]
    return Scenario(name="test", segments=segs, seed=5, **kwargs)


class TestBasicRun:
    def test_all_arrivals_executed(self):
        sut = FakeSUT()
        result = VirtualClockDriver().run(sut, _scenario())
        assert result.num_queries == len(sut.executed)
        assert result.num_queries == pytest.approx(100, abs=2)

    def test_records_have_ordered_timestamps(self):
        result = VirtualClockDriver().run(FakeSUT(), _scenario())
        cols = result.columns
        assert (cols.arrivals <= cols.starts).all()
        assert (cols.starts < cols.completions).all()

    def test_completion_order_fifo(self):
        result = VirtualClockDriver().run(FakeSUT(), _scenario())
        completions = result.columns.completions.tolist()
        assert completions == sorted(completions)

    def test_segment_labels_attached(self):
        result = VirtualClockDriver().run(FakeSUT(), _scenario(segments=2))
        labels = set(result.columns.segment_names())
        assert labels == {"s0", "s1"}

    def test_deterministic(self):
        a = VirtualClockDriver().run(FakeSUT(), _scenario())
        b = VirtualClockDriver().run(FakeSUT(), _scenario())
        assert a.columns.completions.tolist() == b.columns.completions.tolist()

    def test_max_queries_guard(self):
        config = DriverConfig(max_queries=10)
        with pytest.raises(DriverError):
            VirtualClockDriver(config).run(FakeSUT(), _scenario(rate=100.0))

    def test_max_queries_checked_before_materializing(self, monkeypatch):
        """The guard fires on the projected count — before any arrival
        array for the offending segment is generated (regression: it used
        to materialize the full array first, then raise)."""
        from repro.workloads.patterns import ArrivalProcess

        def _explode(self, rng, start, end, jitter=True):
            raise AssertionError("arrival array materialized despite overflow")

        monkeypatch.setattr(ArrivalProcess, "arrivals", _explode)
        config = DriverConfig(max_queries=10)
        with pytest.raises(DriverError, match="projects"):
            VirtualClockDriver(config).run(FakeSUT(), _scenario(rate=100.0))

    def test_max_queries_overflow_spans_segments(self):
        """Earlier segments' counts accumulate into the projection."""
        config = DriverConfig(max_queries=150)
        # Two segments of ~100 queries each: neither alone overflows.
        with pytest.raises(DriverError):
            VirtualClockDriver(config).run(
                FakeSUT(), _scenario(rate=20.0, duration=5.0, segments=2)
            )

    def test_projected_count_matches_arrivals(self):
        spec = simple_spec("s", UniformDistribution(0, 100), rate=17.0)
        rng = np.random.default_rng(3)
        actual = spec.arrivals.arrivals(rng, 0.0, 7.5).size
        assert spec.arrivals.projected_count(0.0, 7.5) == actual


class TestQueueing:
    def test_overload_builds_queue(self):
        """Service slower than arrivals -> latencies grow over the run."""
        sut = FakeSUT(service_time=0.1)  # capacity 10/s < offered 20/s
        result = VirtualClockDriver().run(sut, _scenario(rate=20.0))
        cols = result.columns
        latencies = cols.latencies[np.argsort(cols.arrivals, kind="stable")]
        assert latencies[-1] > latencies[0]
        assert latencies[-1] > 1.0

    def test_underload_latency_equals_service(self):
        sut = FakeSUT(service_time=0.001)
        result = VirtualClockDriver().run(sut, _scenario(rate=20.0))
        assert result.columns.latencies.max() < 0.01


class TestTraining:
    def test_initial_training_before_time_zero(self):
        sut = FakeSUT(train_uses=4.0)
        scn = _scenario(initial_training=TrainingPhase(budget_seconds=10.0))
        result = VirtualClockDriver().run(sut, scn)
        assert len(result.training_events) == 1
        event = result.training_events[0]
        assert event.start == pytest.approx(-4.0)
        assert not event.online
        assert event.nominal_seconds == pytest.approx(4.0)

    def test_budget_overuse_rejected(self):
        class Greedy(FakeSUT):
            def offline_train(self, budget_seconds):
                return budget_seconds + 1.0

        scn = _scenario(initial_training=TrainingPhase(budget_seconds=1.0))
        with pytest.raises(DriverError):
            VirtualClockDriver().run(Greedy(), scn)

    def test_zero_use_no_event(self):
        scn = _scenario(initial_training=TrainingPhase(budget_seconds=10.0))
        result = VirtualClockDriver().run(FakeSUT(train_uses=0.0), scn)
        assert result.training_events == []

    def test_between_segment_training_blocks(self):
        sut = FakeSUT(train_uses=2.0)
        scn = _scenario(segments=1)
        scn.segments.append(
            Segment(
                spec=simple_spec("s1", UniformDistribution(0, 100), rate=20.0),
                duration=5.0,
                training_before=TrainingPhase(budget_seconds=2.0),
            )
        )
        result = VirtualClockDriver().run(sut, scn)
        events = [e for e in result.training_events if e.start >= 0]
        assert len(events) == 1
        assert events[0].start >= 5.0  # at the segment boundary
        # Queries arriving right after the boundary wait out the retrain.
        cols = result.columns
        late = cols.starts[(cols.arrivals >= 5.0) & (cols.arrivals < 5.5)]
        assert late.size and late.min() >= events[0].end - 1e-9

    def test_online_tick_retrain_charged(self):
        sut = FakeSUT(tick_retrain_at=2.0, tick_nominal=1.5)
        result = VirtualClockDriver().run(sut, _scenario(duration=6.0))
        online = [e for e in result.training_events if e.online]
        assert len(online) == 1
        assert online[0].nominal_seconds == pytest.approx(1.5)
        # Server stalls: some query completes after the retrain window.
        assert (result.columns.starts >= online[0].end).any()


class TestTicks:
    def test_tick_cadence(self):
        sut = FakeSUT()
        VirtualClockDriver().run(sut, _scenario(duration=5.0))
        assert len(sut.ticks) == pytest.approx(5, abs=1)

    def test_tick_interval_configurable(self):
        sut = FakeSUT()
        scn = _scenario(duration=5.0)
        scn.tick_interval = 0.5
        VirtualClockDriver().run(sut, scn)
        assert len(sut.ticks) == pytest.approx(10, abs=1)


class TestDataInjection:
    def test_injection_delivered(self):
        sut = FakeSUT()
        scn = _scenario(segments=1)
        scn.segments.append(
            Segment(
                spec=simple_spec("s1", UniformDistribution(0, 100), rate=10.0),
                duration=3.0,
                data_injection=np.asarray([1.0, 2.0, 3.0]),
            )
        )
        VirtualClockDriver().run(sut, scn)
        assert sut.injected == [(1.0, None), (2.0, None), (3.0, None)]

    def test_shard_replay_injects_what_the_owning_shard_does(self):
        from repro.core.streaming import ShardSpec, StreamingRecorder

        scn = _scenario(segments=3)
        scn.segments[1].data_injection = np.asarray([1.0, 2.0, 3.0])
        owner, later = FakeSUT(), FakeSUT()
        for sut, lo in ((owner, 1), (later, 2)):
            VirtualClockDriver()._execute(
                sut, scn, StreamingRecorder(), shard=ShardSpec(lo, 3, lo, lo + 1)
            )
        assert later.injected == owner.injected == [(1.0, None), (2.0, None), (3.0, None)]

    def test_initial_keys_loaded(self):
        sut = FakeSUT()
        scn = _scenario()
        scn.initial_keys = np.asarray([5.0, 6.0])
        VirtualClockDriver().run(sut, scn)
        assert sut.loaded == [(5.0, 0), (6.0, 1)]


class TestMultiServer:
    def test_invalid_server_count(self):
        with pytest.raises(Exception):
            DriverConfig(servers=0)

    def test_more_servers_higher_capacity(self):
        """An overloaded single server recovers with parallel slots."""
        slow = FakeSUT(service_time=0.1)  # 10 q/s per slot vs 20 offered
        single = VirtualClockDriver(DriverConfig(servers=1)).run(
            slow, _scenario(rate=20.0)
        )
        fast = FakeSUT(service_time=0.1)
        quad = VirtualClockDriver(DriverConfig(servers=4)).run(
            fast, _scenario(rate=20.0)
        )
        assert quad.columns.latencies.max() < 1.0
        assert single.columns.latencies.max() > 1.0

    def test_parallel_starts_overlap(self):
        sut = FakeSUT(service_time=0.5)
        result = VirtualClockDriver(DriverConfig(servers=2)).run(
            sut, _scenario(rate=4.0, duration=5.0)
        )
        # With 2 servers, two queries can be in service simultaneously.
        cols = result.columns
        order = np.argsort(cols.starts, kind="stable")
        starts, completions = cols.starts[order], cols.completions[order]
        assert (starts[1:] < completions[:-1]).sum() > 0

    def test_online_retrain_blocks_all_servers(self):
        sut = FakeSUT(service_time=0.01, tick_retrain_at=2.0, tick_nominal=1.0)
        result = VirtualClockDriver(DriverConfig(servers=3)).run(
            sut, _scenario(rate=20.0, duration=6.0)
        )
        online = [e for e in result.training_events if e.online]
        assert len(online) == 1
        stall_end = online[0].end
        cols = result.columns
        during = cols.starts[
            (online[0].start < cols.arrivals) & (cols.arrivals < stall_end)
        ]
        assert during.size and (during >= stall_end - 1e-9).all()

    def test_single_server_unchanged_by_refactor(self):
        a = VirtualClockDriver(DriverConfig(servers=1)).run(FakeSUT(), _scenario())
        b = VirtualClockDriver().run(FakeSUT(), _scenario())
        assert a.columns.completions.tolist() == b.columns.completions.tolist()
