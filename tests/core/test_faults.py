"""Fault injection: plan validation, the clock, and driver semantics."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from tests.reference_driver import ScalarReferenceDriver

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.errors import ConfigurationError
from repro.faults import (
    CrashFault,
    DegradationFault,
    FaultClock,
    FaultPlan,
    LatencyFault,
    StallFault,
)
from repro.metrics import cost_breakdown
from repro.observability import Tracer
from repro.suts.analytic import (
    AnalyticDriver,
    AnalyticWorkload,
    LearnedOptimizerSUT,
    TraditionalOptimizerSUT,
    build_analytic_catalog,
)
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import NoDrift
from repro.workloads.generators import simple_spec


class ConstantSUT(SystemUnderTest):
    """Fixed service time; optionally reports a cold-retrain on crash."""

    def __init__(self, service_time=0.001, crash_retrain_seconds=None):
        super().__init__("constant")
        self.service_time = service_time
        self.crash_retrain_seconds = crash_retrain_seconds
        self.crashes = []

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        return self.service_time

    def on_crash(self, now):
        self.crashes.append(now)
        return self.crash_retrain_seconds


def _scenario(rate=50.0, duration=10.0, plan=None, seed=5):
    return Scenario(
        name="faulty",
        segments=[
            Segment(
                spec=simple_spec("s0", UniformDistribution(0, 100), rate=rate),
                duration=duration,
            )
        ],
        seed=seed,
        fault_plan=plan,
    )


def _run(plan=None, driver_cls=VirtualClockDriver, sut=None, tracer=None,
         **scenario_kw):
    driver = driver_cls(DriverConfig(), tracer=tracer)
    return driver.run(sut or ConstantSUT(), _scenario(plan=plan, **scenario_kw))


def _columns_equal(a, b):
    ca, cb = a.columns, b.columns
    return (
        np.array_equal(ca.arrivals, cb.arrivals)
        and np.array_equal(ca.starts, cb.starts)
        and np.array_equal(ca.completions, cb.completions)
        and np.array_equal(ca.latencies, cb.latencies)
    )


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan([])
        assert len(FaultPlan([])) == 0
        assert FaultPlan([StallFault(at=1.0, duration=0.5)])

    def test_validation_rejects_bad_windows(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([LatencyFault(start=5.0, end=5.0, multiplier=2.0)])
        with pytest.raises(ConfigurationError):
            FaultPlan([LatencyFault(start=0.0, end=5.0, multiplier=0.0)])
        with pytest.raises(ConfigurationError):
            FaultPlan([DegradationFault(start=3.0, end=1.0, added_seconds=0.1)])

    def test_validation_rejects_bad_points(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([StallFault(at=-1.0, duration=0.5)])
        with pytest.raises(ConfigurationError):
            FaultPlan([CrashFault(at=1.0, recovery_seconds=-0.1)])

    def test_duplicate_point_times_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([
                StallFault(at=2.0, duration=0.5),
                CrashFault(at=2.0, recovery_seconds=1.0),
            ])

    def test_point_faults_sorted_windows_in_plan_order(self):
        plan = FaultPlan([
            StallFault(at=9.0, duration=1.0),
            LatencyFault(start=0.0, end=4.0, multiplier=2.0),
            CrashFault(at=2.0, recovery_seconds=0.5),
        ])
        assert [f.at for f in plan.point_faults] == [2.0, 9.0]
        assert [f.kind for f in plan.window_faults] == ["latency"]

    def test_degraded_windows_sorted(self):
        plan = FaultPlan([
            StallFault(at=9.0, duration=1.0),
            LatencyFault(start=0.0, end=4.0, multiplier=2.0),
        ])
        assert plan.degraded_windows() == [
            (0.0, 4.0, "latency"),
            (9.0, 10.0, "stall"),
        ]

    def test_describe_roundtrip(self):
        plan = FaultPlan([
            LatencyFault(start=1.0, end=2.0, multiplier=3.0),
            DegradationFault(start=4.0, end=6.0, added_seconds=0.01),
            StallFault(at=7.0, duration=0.5),
            CrashFault(at=8.0, recovery_seconds=1.5),
        ])
        clone = FaultPlan.from_dict(plan.describe())
        assert clone.describe() == plan.describe()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict([{"kind": "meteor", "at": 1.0}])


class TestFaultClock:
    def test_latency_window_scales_inside_only(self):
        clock = FaultClock(
            FaultPlan([LatencyFault(start=2.0, end=4.0, multiplier=10.0)])
        )
        services = np.full(4, 0.001)
        arrivals = np.array([1.0, 2.0, 3.999, 4.0])
        clock.perturb_batch(services, arrivals)
        np.testing.assert_allclose(services, [0.001, 0.01, 0.01, 0.001])

    def test_scalar_matches_batch(self):
        """Length-1 calls (the scalar oracle's) equal one whole-array call."""
        plan = FaultPlan([
            LatencyFault(start=0.0, end=5.0, multiplier=3.7),
            DegradationFault(start=3.0, end=8.0, added_seconds=0.013),
        ])
        clock = FaultClock(plan)
        rng = np.random.default_rng(0)
        services = rng.uniform(1e-4, 1e-2, 64)
        arrivals = np.sort(rng.uniform(0.0, 10.0, 64))
        batched = clock.perturb_batch(services.copy(), arrivals)
        scalar = np.concatenate([
            clock.perturb_batch(services[i : i + 1].copy(), arrivals[i : i + 1])
            for i in range(services.size)
        ])
        assert np.array_equal(batched, scalar)

    def test_point_faults_in_bounds(self):
        plan = FaultPlan([
            StallFault(at=1.0, duration=0.1),
            CrashFault(at=5.0, recovery_seconds=0.1),
            StallFault(at=9.0, duration=0.1),
        ])
        clock = FaultClock(plan)
        assert [f.at for f in clock.point_faults_in(0.0, 5.0)] == [1.0]
        assert [f.at for f in clock.point_faults_in(5.0, 10.0)] == [5.0, 9.0]


class TestDriverFaults:
    PLAN = FaultPlan([
        LatencyFault(start=1.0, end=3.0, multiplier=5.0),
        DegradationFault(start=4.0, end=6.0, added_seconds=0.004),
        StallFault(at=6.5, duration=0.8),
        CrashFault(at=8.0, recovery_seconds=0.5),
    ])

    def test_scalar_batched_bit_identical_under_faults(self):
        batched = _run(plan=self.PLAN)
        scalar = _run(plan=self.PLAN, driver_cls=ScalarReferenceDriver)
        assert _columns_equal(batched, scalar)

    def test_deterministic_across_runs(self):
        first = _run(plan=self.PLAN)
        second = _run(plan=self.PLAN)
        assert _columns_equal(first, second)

    def test_out_of_horizon_plan_is_identity(self):
        late = FaultPlan([
            LatencyFault(start=500.0, end=600.0, multiplier=9.0),
            StallFault(at=700.0, duration=1.0),
        ])
        assert _columns_equal(_run(plan=late), _run(plan=None))

    def test_latency_window_slows_affected_queries(self):
        plain = _run(plan=None)
        slowed = _run(
            plan=FaultPlan([LatencyFault(start=2.0, end=8.0, multiplier=50.0)])
        )
        inside = (plain.columns.arrivals >= 2.0) & (plain.columns.arrivals < 8.0)
        assert (
            slowed.columns.latencies[inside] > plain.columns.latencies[inside]
        ).all()
        outside_before = plain.columns.arrivals < 2.0
        assert np.array_equal(
            slowed.columns.latencies[outside_before],
            plain.columns.latencies[outside_before],
        )

    def test_stall_delays_arrivals_in_window(self):
        stall = FaultPlan([StallFault(at=5.0, duration=1.0)])
        result = _run(plan=stall, rate=100.0)
        cols = result.columns
        during = (cols.arrivals >= 5.0) & (cols.arrivals < 6.0)
        assert during.any()
        # Nothing that arrived during the stall may start before it ends.
        assert (cols.starts[during] >= 6.0).all()

    def test_crash_emits_retrain_event_and_counters(self):
        tracer = Tracer()
        sut = ConstantSUT(crash_retrain_seconds=2.0)
        result = _run(
            plan=FaultPlan([CrashFault(at=5.0, recovery_seconds=1.0)]),
            sut=sut,
            tracer=tracer,
        )
        assert sut.crashes == [5.0]
        retrains = [
            e for e in result.training_events if e.label == "crash-retrain"
        ]
        assert len(retrains) == 1
        assert retrains[0].online
        assert retrains[0].start >= 6.0  # after the recovery outage
        trace = tracer.finish()
        assert trace.counter("driver.faults") == 1
        assert trace.counter("driver.fault_crashes") == 1
        assert any(s.phase == "fault" and s.name == "fault:crash"
                   for s in trace.walk())

    def test_stall_counter_and_span(self):
        tracer = Tracer()
        _run(plan=FaultPlan([StallFault(at=3.0, duration=0.5)]), tracer=tracer)
        trace = tracer.finish()
        assert trace.counter("driver.fault_stalls") == 1
        assert any(s.name == "fault:stall" for s in trace.walk())


class TestScenarioFaultSurface:
    def test_describe_key_only_when_plan_set(self):
        assert "faults" not in _scenario().describe()
        described = _scenario(plan=TestDriverFaults.PLAN).describe()
        assert [f["kind"] for f in described["faults"]] == [
            "latency", "degradation", "stall", "crash",
        ]

    def test_empty_plan_normalized_to_none(self):
        scenario = _scenario(plan=FaultPlan([]))
        assert scenario.fault_plan is None
        assert "faults" not in scenario.describe()

    def test_fingerprint_changes_with_plan(self):
        base = _scenario()
        faulted = replace(base, fault_plan=TestDriverFaults.PLAN)
        assert base.fingerprint() != faulted.fingerprint()


class TestAnalyticDriverFaults:
    # AnalyticWorkload is a stateful generator, so every run needs fresh
    # catalog + workload instances (fixtures would leak RNG state from
    # the first run into the second and break the identity check).

    PLAN = FaultPlan([
        LatencyFault(start=1.0, end=3.0, multiplier=4.0),
        StallFault(at=4.0, duration=0.5),
        CrashFault(at=6.0, recovery_seconds=0.5),
    ])

    @staticmethod
    def _workload():
        return AnalyticWorkload(
            threshold_drift=NoDrift(UniformDistribution(0.0, 300.0)),
            window=50.0,
            join_fraction=0.5,
            seed=9,
        )

    def _run(self, plan, sut_cls=TraditionalOptimizerSUT, scalar=False):
        catalog = build_analytic_catalog(n_orders=1200, n_customers=120, seed=4)
        sut = sut_cls(catalog)
        driver = AnalyticDriver(seed=1, fault_plan=plan)
        segments = [("seg", self._workload(), 8.0, 12.0)]
        if scalar:
            scenario = driver._scenario(segments, "analytic", None)
            return ScalarReferenceDriver().run(sut, scenario)
        return driver.run(sut, segments)

    @pytest.mark.parametrize(
        "sut_cls",
        [TraditionalOptimizerSUT, LearnedOptimizerSUT],
        ids=["static", "learned"],
    )
    def test_scalar_batched_identical_under_faults(self, sut_cls):
        # The learned SUT is stateful: the mid-segment crash must reset
        # it *between* the queries around t=6, in the driver and the
        # oracle alike — columns and the end-of-run learned state (in
        # sut_description) agree.
        batched = self._run(self.PLAN, sut_cls)
        scalar = self._run(self.PLAN, sut_cls, scalar=True)
        assert _columns_equal(batched, scalar)
        assert batched.sut_description == scalar.sut_description

    def test_crash_resets_learned_optimizer(self):
        catalog = build_analytic_catalog(n_orders=1200, n_customers=120, seed=4)
        tracer = Tracer()
        sut = LearnedOptimizerSUT(catalog, seed=2, warmup_queries=5)
        driver = AnalyticDriver(
            seed=1,
            tracer=tracer,
            fault_plan=FaultPlan([CrashFault(at=4.0, recovery_seconds=0.5)]),
        )
        driver.run(sut, [("seg", self._workload(), 8.0, 10.0)])
        assert tracer.finish().counter("optimizer.crash_resets") == 1

    def test_crash_retrain_is_recorded_and_priced(self):
        """Nominal seconds returned by ``on_crash`` on the analytic path
        extend the outage *and* land in ``training_events``."""
        result = AnalyticDriver(
            seed=1,
            fault_plan=FaultPlan([CrashFault(at=4.0, recovery_seconds=0.5)]),
        ).run(
            ConstantSUT(crash_retrain_seconds=2.0),
            [("seg", self._workload(), 8.0, 10.0)],
        )
        (event,) = result.training_events
        assert event.label == "crash-retrain" and event.online
        assert event.start >= 4.5 and event.nominal_seconds == 2.0
        cols = result.columns
        after = cols.arrivals >= 4.0
        assert after.any() and (cols.starts[after] >= event.start + 2.0).all()
        assert cost_breakdown(result).training_cost > 0
