"""Resilience metrics on synthetic and driver-produced faulted runs."""

from __future__ import annotations

import numpy as np
import pytest
from tests.result_helpers import rows_to_columns

from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.faults import CrashFault, FaultPlan, LatencyFault, StallFault
from repro.metrics.resilience import (
    area_lost_to_faults,
    degraded_sla_mass,
    fault_recovery_times,
    resilience_report,
)

PLAN = FaultPlan([
    LatencyFault(start=4.0, end=6.0, multiplier=10.0),
    StallFault(at=10.0, duration=4.0),
])


def _result(rate=8.0, duration=20.0, stall_at=None, stall_len=0.0,
            slow=None, name="synthetic", faults=None):
    """Synthetic run: steady 10ms latency, optional stall/slow windows.

    rate=8 keeps the 1/rate arrival step exactly representable, so
    window-boundary comparisons have no float-accumulation surprises.
    """
    rows = []
    t = 0.0
    while t < duration:
        completion = t + 0.01
        if slow is not None and slow[0] <= t < slow[1]:
            completion = t + 0.1
        if stall_at is not None and stall_at <= t < stall_at + stall_len:
            completion = stall_at + stall_len + 0.01
        rows.append((t, min(t, completion - 0.01), completion, "read", "a"))
        t += 1.0 / rate
    return RunResult(
        sut_name=name,
        scenario_name="scn",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, duration)],
        scenario_description=(
            {"faults": faults.describe()} if faults else None
        ),
    )


class TestFaultRecoveryTimes:
    def test_shrugged_off_fault_scores_zero(self):
        result = _result()  # no actual disturbance
        impacts = fault_recovery_times(result, plan=PLAN)
        assert [i.kind for i in impacts] == ["latency", "stall"]
        assert all(i.recovery_seconds == 0.0 for i in impacts)

    def test_stall_scores_positive_recovery(self):
        result = _result(stall_at=10.0, stall_len=4.0)
        impacts = fault_recovery_times(
            result, plan=FaultPlan([StallFault(at=10.0, duration=4.0)]),
            window=1.0,
        )
        # The backlog only drains after the stall lifts at t=14.
        assert impacts[0].recovery_seconds == pytest.approx(4.0)

    def test_plan_recovered_from_run_record(self):
        result = _result(faults=PLAN)
        impacts = fault_recovery_times(result)  # no explicit plan
        assert [i.at for i in impacts] == [4.0, 10.0]

    def test_missing_plan_raises(self):
        with pytest.raises(ConfigurationError):
            fault_recovery_times(_result())


class TestDegradedSlaMass:
    def test_only_degraded_arrivals_attributed(self):
        # 0.1s latency inside [4, 6): 16 queries, 0.09s over a 0.01s SLA
        # each — but only those arrivals fall in the fault window.
        result = _result(slow=(4.0, 6.0))
        mass = degraded_sla_mass(
            result, sla=0.01,
            plan=FaultPlan([LatencyFault(start=4.0, end=6.0, multiplier=10.0)]),
        )
        assert mass == pytest.approx(16 * 0.09)

    def test_violations_outside_windows_ignored(self):
        result = _result(slow=(12.0, 14.0))  # slow outside the fault window
        mass = degraded_sla_mass(
            result, sla=0.01,
            plan=FaultPlan([LatencyFault(start=4.0, end=6.0, multiplier=10.0)]),
        )
        assert mass == 0.0

    def test_overlapping_windows_count_each_query_once(self):
        result = _result(slow=(4.0, 6.0))
        plan = FaultPlan([
            LatencyFault(start=4.0, end=6.0, multiplier=10.0),
            LatencyFault(start=4.0, end=6.0, multiplier=2.0),
        ])
        mass = degraded_sla_mass(result, sla=0.01, plan=plan)
        assert mass == pytest.approx(16 * 0.09)

    def test_invalid_sla_rejected(self):
        with pytest.raises(ConfigurationError):
            degraded_sla_mass(_result(), sla=0.0, plan=PLAN)


class TestAreaLost:
    def test_identical_runs_lose_nothing(self):
        assert area_lost_to_faults(_result(), _result()) == pytest.approx(0.0)

    def test_stalled_run_loses_positive_area(self):
        baseline = _result()
        faulted = _result(stall_at=10.0, stall_len=4.0)
        assert area_lost_to_faults(faulted, baseline) > 0.0


class TestResilienceReport:
    def test_full_report(self):
        baseline = _result()
        faulted = _result(stall_at=10.0, stall_len=4.0, faults=PLAN)
        report = resilience_report(
            faulted, sla=0.01, baseline=baseline, window=1.0
        )
        assert report.sut_name == "synthetic"
        assert len(report.impacts) == 2
        assert report.recovered_faults >= 1
        assert report.worst_recovery_seconds >= 4.0
        assert report.degraded_sla_mass > 0.0
        assert report.area_lost > 0.0

    def test_optional_sections_skipped(self):
        report = resilience_report(_result(faults=PLAN))
        assert report.degraded_sla_mass is None
        assert report.area_lost is None


class TestEndToEnd:
    def test_driver_run_scores_cleanly(self, tiny_dataset):
        """A real faulted run flows through every resilience kernel."""
        from dataclasses import replace

        from repro.core.driver import DriverConfig, VirtualClockDriver
        from repro.core.scenario import Scenario, Segment
        from repro.suts.kv_traditional import TraditionalKVStore
        from repro.workloads.distributions import UniformDistribution
        from repro.workloads.generators import simple_spec

        scenario = Scenario(
            name="resilience-e2e",
            segments=[Segment(
                spec=simple_spec("s0", UniformDistribution(0, 100), rate=200.0),
                duration=10.0,
            )],
            seed=3,
            initial_keys=tiny_dataset.keys,
        )
        plan = FaultPlan([
            StallFault(at=4.0, duration=1.0),
            CrashFault(at=7.0, recovery_seconds=0.5),
        ])
        driver = VirtualClockDriver(DriverConfig())
        baseline = driver.run(TraditionalKVStore(), scenario)
        faulted = driver.run(
            TraditionalKVStore(), replace(scenario, fault_plan=plan)
        )
        report = resilience_report(
            faulted, sla=0.01, baseline=baseline
        )
        assert [i.kind for i in report.impacts] == ["stall", "crash"]
        assert report.area_lost > 0.0
        assert np.isfinite(report.area_lost)
