"""CSV export of results and metric artifacts."""

from __future__ import annotations

import csv
import io

import pytest
from tests.result_helpers import rows_to_columns

from repro.core.phases import TrainingEvent
from repro.core.results import RunResult
from repro.metrics.sla import latency_bands
from repro.reporting.export import (
    bands_csv,
    curves_csv,
    queries_csv,
    specialization_csv,
    throughput_csv,
    training_events_csv,
)


@pytest.fixture
def result():
    rows = [(float(i), float(i), float(i) + 0.2, "read", "a") for i in range(20)]
    return RunResult(
        sut_name="x",
        scenario_name="s",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, 20.0)],
        training_events=[
            TrainingEvent(start=-1.0, duration=1.0, nominal_seconds=1.0,
                          hardware_name="cpu", cost=0.01, online=False,
                          label="offline")
        ],
    )


def _parse(text):
    return list(csv.reader(io.StringIO(text)))


class TestExports:
    def test_queries_csv_row_per_query(self, result):
        rows = _parse(queries_csv(result))
        assert rows[0] == ["arrival", "start", "completion", "latency", "op",
                           "segment"]
        assert len(rows) == 1 + result.num_queries
        assert rows[1][4] == "read"

    def test_throughput_csv_sums(self, result):
        rows = _parse(throughput_csv(result, interval=1.0))
        total = sum(float(r[1]) for r in rows[1:])
        assert total == result.num_queries

    def test_bands_csv(self, result):
        bands = latency_bands(result, sla=0.1, interval=5.0)
        rows = _parse(bands_csv(bands))
        assert rows[0] == ["t", "within_sla", "violated"]
        violated = sum(int(r[2]) for r in rows[1:])
        assert violated == result.num_queries  # all latencies are 0.2 > 0.1

    def test_training_events_csv(self, result):
        rows = _parse(training_events_csv(result))
        assert len(rows) == 2
        assert rows[1][3] == "cpu"

    def test_curves_csv_long_format(self):
        text = curves_csv({"a": [(0.0, 1.0), (1.0, 2.0)], "b": [(0.0, 5.0)]})
        rows = _parse(text)
        assert rows[0] == ["series", "x", "y"]
        assert len(rows) == 4
        assert {r[0] for r in rows[1:]} == {"a", "b"}

    def test_specialization_csv(self, result, tiny_dataset):
        from repro.core.benchmark import Benchmark
        from repro.metrics.specialization import specialization_report
        from repro.scenarios import specialization_ladder
        from repro.suts.kv_traditional import TraditionalKVStore

        scenario, _ = specialization_ladder(
            tiny_dataset, rate=50.0, segment_duration=2.0
        )
        run = Benchmark().run(TraditionalKVStore(), scenario)
        report = specialization_report(run, scenario)
        rows = _parse(specialization_csv(report))
        assert "phi" in rows[0]
        assert len(rows) == 1 + len(report.segments)
