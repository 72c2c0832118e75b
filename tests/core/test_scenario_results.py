"""Scenario definitions and run-result records."""

from __future__ import annotations

import numpy as np
import pytest
from tests.result_helpers import assert_same_result, rows_to_columns

from repro.core.phases import TrainingEvent, TrainingPhase
from repro.core.results import RunResult
from repro.core.runner import ResultCache
from repro.core.scenario import Scenario, Segment
from repro.errors import ReproError, ScenarioError
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


def _segment(name="seg", duration=10.0, rate=5.0):
    return Segment(
        spec=simple_spec(name, UniformDistribution(0, 100), rate=rate),
        duration=duration,
    )


class TestScenario:
    def test_requires_segments(self):
        with pytest.raises(ScenarioError):
            Scenario(name="x", segments=[])

    def test_rejects_zero_duration_segment(self):
        with pytest.raises(ScenarioError):
            _segment(duration=0.0)

    def test_total_duration(self):
        scn = Scenario(name="x", segments=[_segment(duration=10), _segment(duration=5)])
        assert scn.total_duration == 15.0

    def test_segment_boundaries(self):
        scn = Scenario(
            name="x",
            segments=[_segment("a", 10), _segment("b", 5)],
        )
        assert scn.segment_boundaries() == [("a", 0.0, 10.0), ("b", 10.0, 15.0)]

    def test_label_defaults_to_spec_name(self):
        assert _segment("wl").label == "wl"

    def test_fingerprint_stable(self):
        a = Scenario(name="x", segments=[_segment()], seed=1)
        b = Scenario(name="x", segments=[_segment()], seed=1)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_content(self):
        a = Scenario(name="x", segments=[_segment(rate=5)], seed=1)
        b = Scenario(name="x", segments=[_segment(rate=6)], seed=1)
        assert a.fingerprint() != b.fingerprint()

    def test_describe_includes_training(self):
        scn = Scenario(
            name="x",
            segments=[_segment()],
            initial_training=TrainingPhase(budget_seconds=3.0),
        )
        assert scn.describe()["initial_training"]["budget_seconds"] == 3.0


def _result():
    rows = [
        (float(i), float(i), float(i) + 0.5, "read", "a" if i < 5 else "b")
        for i in range(10)
    ]
    return RunResult(
        sut_name="sut",
        scenario_name="scn",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, 5.0), ("b", 5.0, 10.0)],
        training_events=[
            TrainingEvent(start=-1.0, duration=1.0, nominal_seconds=1.0,
                          hardware_name="cpu", cost=0.01, online=False)
        ],
    )


class TestRunResult:
    def test_latency(self):
        columns = rows_to_columns([(1.0, 2.0, 3.0, "read", "a")])
        assert columns.latencies.tolist() == [2.0]
        assert columns.service_times.tolist() == [1.0]

    def test_completions_sorted(self):
        result = _result()
        completions = result.completions()
        assert (np.diff(completions) >= 0).all()

    def test_queries_in_segment(self):
        result = _result()
        mask = result.segment_mask("a")
        assert mask.dtype == bool and mask.tolist() == [True] * 5 + [False] * 5
        with pytest.raises(ReproError):
            result.segment_mask("nope")

    def test_throughput_series_sums_to_total(self):
        result = _result()
        _, counts = result.throughput_series(interval=1.0)
        assert counts.sum() == 10

    def test_mean_throughput(self):
        result = _result()
        # Horizon = segment end (10.0) since the last completion is 9.5.
        assert result.mean_throughput() == pytest.approx(1.0)

    def test_training_totals(self):
        result = _result()
        assert result.total_training_cost() == pytest.approx(0.01)
        assert result.total_training_nominal_seconds() == pytest.approx(1.0)

    def test_cache_round_trip(self, tmp_path):
        result = _result()
        cache = ResultCache(str(tmp_path))
        cache.store("key", result, meta={})
        assert_same_result(cache.load("key"), result)


class TestRecorderAmortization:
    """`ColumnarRecorder._grow` must stay geometric (amortized O(1) appends)."""

    def test_appends_reallocate_logarithmically(self):
        from repro.core.results import ColumnarRecorder

        recorder = ColumnarRecorder(capacity=1024)
        n = 100_000
        for i in range(0, n, 100):
            rows = np.arange(i, i + 100, dtype=np.float64)
            recorder.append_block(rows, rows, rows + 0.5, np.zeros(100, np.int32), 0)
        # Doubling from 1024 to >= 100k takes ceil(log2(n/1024)) = 7 grows;
        # allow a little slack but fail hard on accidental linear growth.
        assert recorder.reallocations <= int(np.ceil(np.log2(n / 1024))) + 2
        assert len(recorder) == n
        assert np.array_equal(recorder.build().arrivals, np.arange(n, dtype=np.float64))

    def test_reserve_avoids_reallocation_during_appends(self):
        from repro.core.results import ColumnarRecorder

        recorder = ColumnarRecorder(capacity=1024)
        recorder.reserve(50_000)
        grows_after_reserve = recorder.reallocations
        assert grows_after_reserve <= 1
        for i in range(0, 50_000, 100):
            rows = np.arange(i, i + 100, dtype=np.float64)
            recorder.append_block(rows, rows, rows + 0.5, np.zeros(100, np.int32), 0)
        assert recorder.reallocations == grows_after_reserve
        assert len(recorder) == 50_000

    def test_block_append_counts_reallocations(self):
        from repro.core.results import ColumnarRecorder

        recorder = ColumnarRecorder(capacity=8)
        block = np.arange(16, dtype=np.float64)
        for _ in range(64):
            recorder.append_block(block, block, block + 0.5, np.zeros(16, np.int32), 0)
        assert len(recorder) == 1024
        assert recorder.reallocations <= 8  # log2(1024/8) + slack
