"""Regression tests for three metric-correctness bugs.

Each test failed against the pre-columnar implementations:

1. ``recovery_time`` returned ``0.0`` ("instant recovery") when the
   pre-change window was idle, because ``before == 0`` made the target
   ``0.0`` and the first window trivially passed.
2. ``latency_bands`` / ``multi_latency_bands`` accumulated
   ``t += interval`` in a float loop, so band edges drifted away from
   ``RunResult.throughput_series``'s ``np.arange`` edges on long runs
   (observed: 6 mis-bucketed bands and ~1e-10 start drift over 10k
   intervals of 0.1 s).
3. ``area_between_systems`` linearly interpolated step-function
   cumulative curves onto a sampling grid, biasing the area whenever
   completions fell between grid points.
"""

from __future__ import annotations

import numpy as np
import pytest
from tests.result_helpers import rows_to_columns

from repro.core.results import RunResult
from repro.metrics.adaptability import area_between_systems, recovery_time
from repro.metrics.sla import latency_bands, multi_latency_bands


def _one_query_run(completion: float, horizon: float, name: str) -> RunResult:
    return RunResult(
        sut_name=name,
        scenario_name="s",
        columns=rows_to_columns([(0.0, 0.0, completion, "read", "a")]),
        segments=[("a", 0.0, horizon)],
    )


class TestRecoveryTimeIdleBaseline:
    def test_idle_pre_change_window_returns_none(self):
        # All traffic starts at the change; there is nothing to recover to.
        rows = [
            (t, t, t + 0.01, "read", "b")
            for t in np.arange(10.0, 20.0, 0.1).tolist()
        ]
        result = RunResult(
            sut_name="x",
            scenario_name="s",
            columns=rows_to_columns(rows),
            segments=[("a", 0.0, 10.0), ("b", 10.0, 20.0)],
        )
        assert recovery_time(result, change_time=10.0, window=5.0) is None

    def test_empty_run_returns_none(self):
        result = RunResult(
            sut_name="x", scenario_name="s", columns=rows_to_columns([]),
            segments=[("a", 0.0, 10.0)],
        )
        assert recovery_time(result, change_time=5.0) is None

    def test_active_baseline_still_measured(self):
        rows = [
            (t, t, t + 0.01, "read", "a")
            for t in np.arange(0.0, 20.0, 0.1).tolist()
        ]
        result = RunResult(
            sut_name="x",
            scenario_name="s",
            columns=rows_to_columns(rows),
            segments=[("a", 0.0, 10.0), ("b", 10.0, 20.0)],
        )
        assert recovery_time(result, change_time=10.0, window=2.0) == 0.0


class TestBandEdgesMatchThroughputSeries:
    """Band totals vs throughput counts on a 10k-interval run.

    Completions sit exactly on the ``np.arange`` grid, where the old
    accumulated edges drifted past them.
    """

    INTERVAL = 0.1
    HORIZON = 1000.0

    def _run(self) -> RunResult:
        edges = np.arange(0.0, self.HORIZON + self.INTERVAL, self.INTERVAL)
        completions = edges[:-1]
        rows = [
            (max(c - 0.05, 0.0), max(c - 0.01, 0.0), c, "read", "a")
            for c in completions.tolist()
        ]
        return RunResult(
            sut_name="x",
            scenario_name="s",
            columns=rows_to_columns(rows),
            segments=[("a", 0.0, self.HORIZON)],
        )

    def test_latency_bands_agree_bucket_for_bucket(self):
        result = self._run()
        times, counts = result.throughput_series(interval=self.INTERVAL)
        bands = latency_bands(result, sla=1.0, interval=self.INTERVAL)
        assert len(bands) == times.size
        assert [b.start for b in bands] == times.tolist()
        assert [b.total for b in bands] == counts.astype(int).tolist()

    def test_multi_latency_bands_agree_bucket_for_bucket(self):
        result = self._run()
        times, counts = result.throughput_series(interval=self.INTERVAL)
        rows = multi_latency_bands(
            result, thresholds=[0.02, 0.2], interval=self.INTERVAL
        )
        assert len(rows) == times.size
        assert [t for t, _ in rows] == times.tolist()
        assert [sum(c) for _, c in rows] == counts.astype(int).tolist()


class TestAreaBetweenSystemsExact:
    def test_hand_computed_two_query_case(self):
        # A completes its one query at t=0.2, B at t=1.9, horizon 2.0:
        # A leads by exactly one query for 1.7 s, so the area is 1.7.
        # The old linear-interpolation implementation reported 1.0.
        a = _one_query_run(0.2, horizon=2.0, name="a")
        b = _one_query_run(1.9, horizon=2.0, name="b")
        assert area_between_systems(a, b) == pytest.approx(1.7, abs=1e-12)
        assert area_between_systems(b, a) == pytest.approx(-1.7, abs=1e-12)

    def test_identical_runs_have_zero_area(self):
        a = _one_query_run(0.7, horizon=3.0, name="a")
        assert area_between_systems(a, a) == 0.0

    def test_off_grid_completions_integrate_exactly(self):
        # Three queries each, deliberately between integer grid points.
        def run(completions, name):
            return RunResult(
                sut_name=name,
                scenario_name="s",
                columns=rows_to_columns(
                    [(0.0, 0.0, c, "read", "a") for c in completions]
                ),
                segments=[("a", 0.0, 10.0)],
            )

        a = run([0.25, 0.75, 1.25], "a")
        b = run([8.25, 8.75, 9.25], "b")
        # Exact: sum over queries of (completion_b - completion_a) = 24.0.
        assert area_between_systems(a, b) == pytest.approx(24.0, abs=1e-12)
