"""Fig 1b/1c metrics on synthetic run records."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from tests.result_helpers import rows_to_columns

from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.metrics.adaptability import (
    adaptability_report,
    area_between_systems,
    area_vs_ideal,
    cumulative_curve,
    recovery_time,
)
from repro.metrics.sla import (
    adjustment_speed,
    calibrate_sla,
    latency_bands,
    multi_latency_bands,
)


def _steady_result(rate=10.0, duration=20.0, latency=0.01, name="steady"):
    """A perfectly steady synthetic run."""
    rows = []
    t = 0.0
    while t < duration:
        rows.append((t, t, t + latency, "read", "a" if t < duration / 2 else "b"))
        t += 1.0 / rate
    return RunResult(
        sut_name=name,
        scenario_name="scn",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, duration / 2), ("b", duration / 2, duration)],
    )


def _stalled_result(rate=10.0, duration=20.0, stall_at=10.0, stall_len=4.0):
    """Steady, but completions inside the stall window slide to its end."""
    rows = []
    t = 0.0
    while t < duration:
        completion = t + 0.01
        if stall_at <= t < stall_at + stall_len:
            completion = stall_at + stall_len + 0.01
        rows.append(
            (t, min(t, completion - 0.01), completion, "read",
             "a" if t < 10 else "b")
        )
        t += 1.0 / rate
    return RunResult(
        sut_name="stalled",
        scenario_name="scn",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, 10.0), ("b", 10.0, 20.0)],
    )


class TestCumulativeCurve:
    def test_monotone_and_total(self):
        result = _steady_result()
        times, cum = cumulative_curve(result)
        assert (np.diff(cum) >= 0).all()
        assert cum[-1] == result.num_queries

    def test_resolution_validated(self):
        with pytest.raises(ConfigurationError):
            cumulative_curve(_steady_result(), resolution=0.0)


class TestAreaVsIdeal:
    def test_steady_run_near_zero(self):
        area = area_vs_ideal(_steady_result(), resolution=0.1)
        assert abs(area) < 20.0

    def test_stall_produces_positive_area(self):
        area = area_vs_ideal(_stalled_result(), resolution=0.1)
        assert area > 50.0

    def test_custom_ideal_rate(self):
        result = _steady_result(rate=10.0)
        # Against an impossible ideal, the lag is large.
        assert area_vs_ideal(result, ideal_rate=100.0) > area_vs_ideal(result)

    def test_declared_numpy_floor_has_trapezoid(self):
        # area_vs_ideal integrates with np.trapezoid, which NumPy 1.x lacks.
        pyproject = Path(__file__).parents[2] / "pyproject.toml"
        floor = re.search(r'"numpy>=(\d+)', pyproject.read_text())
        assert floor and int(floor.group(1)) >= 2


class TestAreaBetween:
    def test_identical_systems_zero(self):
        a = _steady_result(name="a")
        b = _steady_result(name="b")
        assert abs(area_between_systems(a, b)) < 1e-6

    def test_stalled_system_behind(self):
        good = _steady_result()
        bad = _stalled_result()
        assert area_between_systems(good, bad) > 0
        assert area_between_systems(bad, good) < 0


class TestRecovery:
    def test_steady_recovers_immediately(self):
        assert recovery_time(_steady_result(), change_time=10.0, window=2.0) == 0.0

    def test_stall_delays_recovery(self):
        result = _stalled_result(stall_at=10.0, stall_len=4.0)
        recovery = recovery_time(result, change_time=10.0, window=2.0)
        assert recovery is not None and recovery >= 4.0

    def test_report_bundles_metrics(self):
        report = adaptability_report(_stalled_result())
        assert report.area_vs_ideal > 0
        assert report.throughput_cv > 0
        assert report.recovery_seconds is not None


class TestSLA:
    def test_calibration_from_baseline(self):
        baseline = _steady_result(latency=0.02)
        sla = calibrate_sla(baseline, percentile=99.0, headroom=1.5)
        assert sla == pytest.approx(0.03, rel=0.05)

    def test_bands_split_correctly(self):
        result = _stalled_result()
        sla = 0.1
        bands = latency_bands(result, sla=sla, interval=1.0)
        violations = sum(b.violated for b in bands)
        expected = int((result.columns.latencies > sla).sum())
        assert violations == expected
        assert sum(b.total for b in bands) == result.num_queries

    def test_violations_cluster_after_stall(self):
        result = _stalled_result(stall_at=10.0, stall_len=4.0)
        bands = latency_bands(result, sla=0.1, interval=1.0)
        before = sum(b.violated for b in bands if b.start < 10.0)
        after = sum(b.violated for b in bands if 10.0 <= b.start < 16.0)
        assert before == 0 and after > 0

    def test_multi_bands(self):
        result = _stalled_result()
        rows = multi_latency_bands(result, thresholds=[0.05, 0.5, 2.0], interval=2.0)
        for _, counts in rows:
            assert len(counts) == 4
        total = sum(sum(c) for _, c in rows)
        assert total == result.num_queries

    def test_multi_bands_validates_thresholds(self):
        with pytest.raises(ConfigurationError):
            multi_latency_bands(_steady_result(), thresholds=[0.5, 0.1])

    def test_adjustment_speed(self):
        steady = _steady_result()
        stalled = _stalled_result()
        sla = 0.1
        assert adjustment_speed(steady, 10.0, 50, sla) == 0.0
        assert adjustment_speed(stalled, 10.0, 50, sla) > 0.0

    def test_adjustment_speed_validates_n(self):
        with pytest.raises(ConfigurationError):
            adjustment_speed(_steady_result(), 10.0, 0, 0.1)


class TestLatencyTimeline:
    def test_percentiles_per_bucket(self):
        from repro.metrics.adaptability import latency_timeline

        result = _stalled_result(stall_at=10.0, stall_len=4.0)
        times, series = latency_timeline(result, interval=1.0,
                                         percentiles=(50.0, 99.0))
        assert set(series) == {50.0, 99.0}
        assert times.size == series[50.0].size
        # p99 >= p50 wherever both are defined.
        both = ~np.isnan(series[50.0])
        assert (series[99.0][both] >= series[50.0][both]).all()

    def test_transition_visible(self):
        from repro.metrics.adaptability import latency_timeline

        result = _stalled_result(stall_at=10.0, stall_len=4.0)
        _, series = latency_timeline(result, interval=1.0)
        p50 = series[50.0]
        before = np.nanmax(p50[:9])
        during = np.nanmax(p50[13:16])  # stall completions land ~t=14
        assert during > before * 10

    def test_idle_buckets_are_nan(self):
        from repro.metrics.adaptability import latency_timeline

        result = RunResult(
            sut_name="x", scenario_name="s",
            columns=rows_to_columns([(0.0, 0.0, 0.5, "read", "a")]),
            segments=[("a", 0.0, 5.0)],
        )
        _, series = latency_timeline(result, interval=1.0)
        assert np.isnan(series[50.0][3])
        assert not np.isnan(series[50.0][0])

    def test_validates_interval(self):
        from repro.errors import ConfigurationError
        from repro.metrics.adaptability import latency_timeline

        with pytest.raises(ConfigurationError):
            latency_timeline(_steady_result(), interval=0.0)
