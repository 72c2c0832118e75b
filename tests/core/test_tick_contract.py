"""Ticks go to the systems that listen, and only to them.

A SUT that overrides ``on_tick`` (in a subclass, on the instance, or
behind a delegating proxy) must see exactly the ticks it saw before the
driver learned to skip them — the digests below were taken at the parent
commit (6819892), where every SUT was ticked. A SUT that leaves the
default in place is never ticked, and nothing it can observe changes:
its result is the same at every ``tick_interval`` and on every path.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from tests.reference_driver import ScalarReferenceDriver

from repro.core.benchmark import Benchmark
from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.core.streaming import load_spilled_columns
from repro.faults import CrashFault, FaultPlan, LatencyFault, StallFault
from repro.observability import Tracer
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import HotspotDistribution, UniformDistribution
from repro.workloads.generators import simple_spec

SEGMENT = 2.0
INTERVALS = (0.1, 1.0, SEGMENT)
COLUMNS = ("arrivals", "starts", "completions", "op_codes", "segment_codes")

#: The crash ties with the tick at 3.0 (interval 1.0), the stall with the
#: first tick of the last segment (every interval): the tick fires first.
PLAN = FaultPlan(
    [
        LatencyFault(start=0.5, end=0.8, multiplier=3.0),
        CrashFault(at=3.0, recovery_seconds=0.1),
        StallFault(at=4.0, duration=0.05),
    ]
)


def _scenario(tick_interval=1.0, plan=None, rate=400.0):
    hot = HotspotDistribution(
        0.0, 1000.0, hot_start=700.0, hot_width=50.0, hot_fraction=0.9
    )
    dists = (UniformDistribution(0.0, 1000.0), hot, UniformDistribution(0.0, 1000.0))
    return Scenario(
        name="tick-contract",
        segments=[
            Segment(spec=simple_spec(f"s{i}", d, rate=rate), duration=SEGMENT, label=f"s{i}")
            for i, d in enumerate(dists)
        ],
        seed=9,
        initial_keys=np.linspace(0.0, 1000.0, 2000),
        initial_training=TrainingPhase(budget_seconds=10.0),
        tick_interval=tick_interval,
        fault_plan=plan,
    )


def _learned():
    return LearnedKVStore(max_fanout=64, retrain_cooldown=0.5, drift_window=128)


class _LoggingLearned(LearnedKVStore):
    """Listens by subclass override; logs what the driver delivers."""

    def __init__(self, log):
        super().__init__(max_fanout=64, retrain_cooldown=0.5, drift_window=128)
        self.log = log

    def on_tick(self, now):
        self.log.append(("tick", now))
        return super().on_tick(now)

    def on_crash(self, now):
        self.log.append(("crash", now))
        return super().on_crash(now)


class _Proxy:
    """Delegating proxy (the shape of ``perf.tracing.ProxySUT``)."""

    def __init__(self, sut, log):
        self._sut = sut
        self._log = log

    def __getattr__(self, name):
        return getattr(self._sut, name)

    def on_tick(self, now):
        self._log.append(("tick", now))
        return self._sut.on_tick(now)


def _patched(log):
    """A traditional store that listens through an instance attribute."""
    sut = TraditionalKVStore()

    def on_tick(now):
        log.append(("tick", now))
        return 0.02 if len(log) == 3 else None

    sut.on_tick = on_tick
    return sut


LISTENERS = {
    "subclass": _LoggingLearned,
    "patched": _patched,
    "proxy": lambda log: _Proxy(_learned(), log),
}


def _digest(result, log) -> str:
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(np.ascontiguousarray(getattr(result.columns, name)).data)
    events = [(e.start, e.duration, e.label) for e in result.training_events]
    h.update(repr((log, events)).encode())
    return h.hexdigest()[:16]


def _run_listener(kind, interval, faulted, driver_cls=VirtualClockDriver):
    log = []
    scenario = _scenario(interval, PLAN if faulted else None)
    return driver_cls().run(LISTENERS[kind](log), scenario), log


def _expected_ticks(interval):
    """The driver's tick times: repeated addition from each segment start."""
    out = []
    for i in range(3):
        t, end = i * SEGMENT, (i + 1) * SEGMENT
        while t < end:
            out.append(t)
            t += interval
    return out


def _columns_equal(a, b):
    """Byte equality of the timestamps, value equality of the codes."""
    return all(
        np.array_equal(getattr(a, n).view(np.uint64), getattr(b, n).view(np.uint64))
        for n in COLUMNS[:3]
    ) and all(np.array_equal(getattr(a, n), getattr(b, n)) for n in COLUMNS[3:])


#: ``_digest`` of every listener case at the parent commit.
PARENT_DIGESTS = {
    ('patched', 0.1, False): '04fd2932b55dec6a',
    ('patched', 0.1, True): 'c0688dbf250b6ee0',
    ('patched', 1.0, False): '957591c7976bff1b',
    ('patched', 1.0, True): 'ce0d592e9b99dd26',
    ('patched', 2.0, False): '3e82197a16e47d6c',
    ('patched', 2.0, True): '47ac4460acb6db2f',
    ('proxy', 0.1, False): 'bdd03014d3f79b6d',
    ('proxy', 0.1, True): '2639fe49fbfbf695',
    ('proxy', 1.0, False): 'e8f813cc9fb6d5b5',
    ('proxy', 1.0, True): '3e89459ff41325cd',
    ('proxy', 2.0, False): '6d4354ed519b6385',
    ('proxy', 2.0, True): '6933006f3e7dfd18',
    ('subclass', 0.1, False): 'bdd03014d3f79b6d',
    ('subclass', 0.1, True): '810c708dae05150d',
    ('subclass', 1.0, False): 'e8f813cc9fb6d5b5',
    ('subclass', 1.0, True): '20d6b4740153d8ca',
    ('subclass', 2.0, False): '6d4354ed519b6385',
    ('subclass', 2.0, True): '8bd779c30d17474b',
    ('tickless', 1.0, False): 'e9a6ae09a7a896c2',
    ('tickless', 1.0, True): '9e759720b48b5460',
}


class TestListeningSUT:
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("interval", INTERVALS)
    @pytest.mark.parametrize("kind", sorted(LISTENERS))
    def test_ticks_and_columns_equal_the_parent_commit(self, kind, interval, faulted):
        result, log = _run_listener(kind, interval, faulted)
        ticks = [t for what, t in log if what == "tick"]
        assert ticks == _expected_ticks(interval)
        assert _digest(result, log) == PARENT_DIGESTS[kind, interval, faulted]
        scalar, scalar_log = _run_listener(
            kind, interval, faulted, driver_cls=ScalarReferenceDriver
        )
        assert scalar_log == log
        assert _columns_equal(scalar.columns, result.columns)

    def test_tick_fires_before_a_fault_at_the_same_instant(self):
        _, log = _run_listener("subclass", 1.0, faulted=True)
        at = log.index(("crash", 3.0))
        assert log[at - 1] == ("tick", 3.0)

    def test_listening_is_derived_from_on_tick(self):
        log = []
        assert not TraditionalKVStore().listens_to_ticks
        assert _learned().listens_to_ticks
        assert _patched(log).listens_to_ticks
        assert _Proxy(_learned(), log).listens_to_ticks
        assert not _Proxy(TraditionalKVStore(), log).listens_to_ticks

    def test_ticks_counter_is_ticks_delivered(self):
        for sut, delivered in ((_learned(), 6), (TraditionalKVStore(), 0)):
            tracer = Tracer()
            VirtualClockDriver(tracer=tracer).run(sut, _scenario())
            assert tracer.counters.get("driver.ticks", 0) == delivered


class _DuckSUT:
    """Not a ``SystemUnderTest``, no ``listens_to_ticks``: keeps every tick."""

    name = "duck"

    def __init__(self):
        self.ticks = []

    def attach_tracer(self, tracer):
        pass

    def setup(self, pairs):
        pass

    def offline_train(self, budget_seconds):
        return 0.0

    def execute_batch(self, batch, now):
        return np.full(len(batch), 1e-4)

    def on_tick(self, now):
        self.ticks.append(now)

    def teardown(self):
        pass

    def describe(self):
        return {"name": self.name}


def test_duck_typed_sut_keeps_every_tick():
    sut = _DuckSUT()
    VirtualClockDriver().run(sut, _scenario(0.1))
    assert sut.ticks == _expected_ticks(0.1)


class _CountingStore(TraditionalKVStore):
    """Tickless; counts the driver's ``execute_batch`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def execute_batch(self, batch, now):
        self.calls.append(len(batch))
        return super().execute_batch(batch, now)


class TestTicklessSUT:
    def _reference(self, plan=None):
        return VirtualClockDriver().run(TraditionalKVStore(), _scenario(1.0, plan))

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_columns_do_not_depend_on_the_tick_interval(self, faulted):
        plan = PLAN if faulted else None
        reference = self._reference(plan)
        assert _digest(reference, []) == PARENT_DIGESTS["tickless", 1.0, faulted]
        for interval in INTERVALS:
            result = VirtualClockDriver().run(
                TraditionalKVStore(), _scenario(interval, plan)
            )
            assert _columns_equal(result.columns, reference.columns), interval

    @pytest.mark.parametrize("interval", INTERVALS)
    def test_scalar_batched_streaming_and_sharded_agree(self, interval, tmp_path):
        reference = self._reference().columns
        scalar = ScalarReferenceDriver().run(
            TraditionalKVStore(), _scenario(interval)
        )
        assert _columns_equal(scalar.columns, reference)
        VirtualClockDriver().run_streaming(
            TraditionalKVStore(), _scenario(interval), spill_dir=tmp_path / "stream"
        )
        assert _columns_equal(load_spilled_columns(tmp_path / "stream"), reference)
        merged = Benchmark().run_sharded_streaming(
            TraditionalKVStore,
            _scenario(interval),
            shards=2,
            spill_dir=tmp_path / "sharded",
        )
        assert merged.sharding["boundaries_drained"]
        assert _columns_equal(load_spilled_columns(tmp_path / "sharded"), reference)

    def test_point_faults_still_cut_the_batch(self):
        sut = _CountingStore()
        VirtualClockDriver().run(sut, _scenario(0.1, PLAN))
        # One block per segment, plus one cut at the crash inside segment
        # 1; the stall sits on a segment boundary and cuts nothing.
        assert len(sut.calls) == 4

    def test_a_tick_free_segment_is_cut_at_the_block_bound_only(self):
        sut = _CountingStore()
        scenario = _scenario(0.1, rate=50_000.0)
        result = VirtualClockDriver().run(sut, scenario)
        assert result.num_queries == 300_000
        per_segment = [
            int(result.segment_mask(f"s{i}").sum()) for i in range(3)
        ]
        assert len(sut.calls) == sum(math.ceil(n / 65_536) for n in per_segment)
        assert max(sut.calls) <= 65_536
        assert sum(sut.calls) == 300_000
        whole = VirtualClockDriver(DriverConfig(block_size=300_000)).run(
            TraditionalKVStore(), scenario
        )
        assert _columns_equal(whole.columns, result.columns)
