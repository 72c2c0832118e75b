"""Fig 1d cost metrics: DBA step function, TCO, crossover, trace adapter."""

from __future__ import annotations

import numpy as np
import pytest
from tests.result_helpers import rows_to_columns

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.hardware import CPU
from repro.core.phases import TrainingEvent, TrainingPhase, event_to_telemetry
from repro.core.results import RunResult
from repro.core.scenario import Scenario, Segment
from repro.errors import ConfigurationError
from repro.metrics.cost import (
    DBAModel,
    TCOModel,
    cost_breakdown,
    phases_from_trace,
    training_cost_to_outperform,
)
from repro.observability import Span, Trace, Tracer


class TestDBAModel:
    def test_step_costs(self):
        dba = DBAModel(hourly_rate=100.0, hours_per_level=(0.0, 10.0, 50.0))
        assert dba.cost_of_level(0) == 0.0
        assert dba.cost_of_level(1) == 1000.0
        assert dba.cost_of_level(2) == 5000.0

    def test_level_at_cost(self):
        dba = DBAModel(hourly_rate=100.0, hours_per_level=(0.0, 10.0, 50.0))
        assert dba.level_at_cost(0.0) == 0
        assert dba.level_at_cost(999.0) == 0
        assert dba.level_at_cost(1000.0) == 1
        assert dba.level_at_cost(1e9) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DBAModel(hours_per_level=(5.0, 1.0))
        with pytest.raises(ConfigurationError):
            DBAModel(hours_per_level=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            DBAModel(hourly_rate=-5.0)
        with pytest.raises(ConfigurationError):
            DBAModel().cost_of_level(99)


class TestTCO:
    def test_traditional_includes_retunes(self):
        tco = TCOModel(hardware_monthly=100.0, horizon_months=12.0)
        once = tco.traditional_tco(tuning_level=1, retunes=0)
        thrice = tco.traditional_tco(tuning_level=1, retunes=2)
        assert thrice - once == pytest.approx(2 * tco.dba.cost_of_level(1))

    def test_learned_scales_with_sessions(self):
        tco = TCOModel(hardware_monthly=100.0, horizon_months=12.0)
        base = tco.learned_tco(training_cost_per_session=2.0, sessions=0)
        many = tco.learned_tco(training_cost_per_session=2.0, sessions=10)
        assert many - base == pytest.approx(20.0)

    def test_hardware_floor_shared(self):
        tco = TCOModel(hardware_monthly=100.0, horizon_months=12.0)
        assert tco.traditional_tco(0) == tco.learned_tco(0.0, 0) == 1200.0


class TestCostBreakdown:
    def _result(self):
        rows = [(float(i), float(i), float(i) + 0.1, "read", "a") for i in range(100)]
        return RunResult(
            sut_name="x",
            scenario_name="s",
            columns=rows_to_columns(rows),
            segments=[("a", 0.0, 100.0)],
            training_events=[
                TrainingEvent(start=-1, duration=1, nominal_seconds=1,
                              hardware_name="cpu", cost=0.5, online=False)
            ],
        )

    def test_breakdown_components(self):
        breakdown = cost_breakdown(self._result(), serving_dollars_per_hour=3.6)
        assert breakdown.training_cost == pytest.approx(0.5)
        assert breakdown.execution_cost == pytest.approx(100.0 / 3600.0 * 3.6)
        assert breakdown.total_cost == breakdown.training_cost + breakdown.execution_cost
        assert breakdown.cost_per_kquery == pytest.approx(breakdown.total_cost / 0.1)


class TestPhasesFromTrace:
    """The trace is a second, exact source of the training timeline."""

    def _hand_built_trace(self, events):
        """Trace shaped like the driver's: train/adapt spans with the
        ``training_event`` attribute."""
        spans = []
        for i, event in enumerate(events):
            phase = "adapt" if event.online else "train"
            spans.append(
                Span(
                    name=f"retrain-{i}",
                    phase=phase,
                    start=float(i),
                    end=float(i) + 0.25,
                    attrs={"training_event": event_to_telemetry(event)},
                )
            )
        return Trace(spans=spans)

    def _events(self):
        return [
            TrainingEvent(start=-2.0, duration=2.0, nominal_seconds=2.0,
                          hardware_name="cpu", cost=0.375, online=False),
            TrainingEvent(start=10.0, duration=0.5, nominal_seconds=0.5,
                          hardware_name="cpu", cost=0.125, online=True,
                          label="drift-retrain"),
        ]

    def test_round_trip_exact(self):
        events = self._events()
        rebuilt = phases_from_trace(self._hand_built_trace(events))
        assert rebuilt == events  # frozen dataclass: field-exact equality

    def test_cost_breakdown_matches_hand_built_fixture_exactly(self):
        """cost_breakdown fed from the trace equals the result's own."""
        events = self._events()
        rows = [(float(i), float(i), float(i) + 0.1, "read", "a") for i in range(50)]
        result = RunResult(
            sut_name="x", scenario_name="s",
            columns=rows_to_columns(rows),
            segments=[("a", 0.0, 50.0)], training_events=events,
        )
        from_result = cost_breakdown(result)
        from_trace = cost_breakdown(
            result, training_events=phases_from_trace(self._hand_built_trace(events))
        )
        assert from_trace == from_result  # frozen dataclass, exact floats

    def test_driver_trace_reproduces_run_training_events(self):
        """End to end: a traced adaptive run's trace rebuilds the exact
        TrainingEvents the RunResult carries — offline phase included."""
        from repro.suts.kv_learned import LearnedKVStore
        from repro.workloads.distributions import UniformDistribution, ZipfDistribution
        from repro.workloads.drift import AbruptDrift
        from repro.workloads.generators import KVOperation, OperationMix, WorkloadSpec
        from repro.workloads.patterns import ConstantArrivals

        spec = WorkloadSpec(
            name="drift",
            mix=OperationMix({KVOperation.READ: 1.0}),
            key_drift=AbruptDrift(
                [UniformDistribution(0, 1000), ZipfDistribution(0, 1000, theta=1.3)],
                [1.5],
            ),
            arrivals=ConstantArrivals(400.0),
        )
        scenario = Scenario(
            name="traced",
            segments=[Segment(spec=spec, duration=4.0)],
            seed=3,
            initial_keys=np.linspace(0, 1000, 1500),
            initial_training=TrainingPhase(budget_seconds=5.0, hardware=CPU),
        )
        tracer = Tracer()
        result = VirtualClockDriver(DriverConfig(), tracer=tracer).run(
            LearnedKVStore(max_fanout=64, retrain_cooldown=1.0,
                           drift_window=256),
            scenario,
        )
        assert result.training_events, "fixture must produce training"
        rebuilt = phases_from_trace(tracer.finish())
        assert rebuilt == sorted(result.training_events, key=lambda e: e.start)
        assert cost_breakdown(result, training_events=rebuilt) == cost_breakdown(result)

    def test_empty_trace_yields_no_events(self):
        assert phases_from_trace(Trace()) == []


class TestCrossover:
    LEVELS = [(0.0, 100.0), (600.0, 130.0), (3000.0, 150.0)]

    def test_learned_wins_immediately(self):
        curve = [(0.0, 120.0), (10.0, 160.0)]
        assert training_cost_to_outperform(curve, self.LEVELS) == 0.0

    def test_crossover_in_middle(self):
        curve = [(0.0, 50.0), (100.0, 90.0), (500.0, 120.0), (2000.0, 170.0)]
        # At $500 learned=120 vs traditional(500)=100 -> crossover at 500.
        assert training_cost_to_outperform(curve, self.LEVELS) == 500.0

    def test_never_crosses(self):
        curve = [(0.0, 10.0), (10_000.0, 20.0)]
        assert training_cost_to_outperform(curve, self.LEVELS) is None

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            training_cost_to_outperform([], self.LEVELS)
