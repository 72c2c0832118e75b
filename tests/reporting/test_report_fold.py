"""The in-memory report is the streaming fold, floats included.

``build_report`` folds a whole run as one block through the same online
accumulators ``run_streaming`` folds block by block. When each segment
reaches the accumulators as one driver block, every float partial (a
segment's latency sum) is the same single partial on both paths, so
every number must agree byte for byte: ``==``, no tolerance. A SUT that
listens to ticks but never acts on one (``adapt=False``) is such a run
too: a tick that asks for nothing does not cut the queue.
"""

from __future__ import annotations

import numpy as np

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.metrics import streaming_accumulators
from repro.metrics.adaptability import cumulative_curve
from repro.reporting.report import build_report
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


class _BlockCount:
    """Counts the blocks the streaming recorder folds."""

    name = "blocks"

    def __init__(self) -> None:
        self.blocks = 0

    def fold(self, block) -> None:
        self.blocks += 1

    def finalize(self, horizon: float) -> int:
        return self.blocks


def _scenario() -> Scenario:
    return Scenario(
        name="report-fold",
        segments=[
            Segment(
                spec=simple_spec("wide", UniformDistribution(0, 1000), rate=400.0),
                duration=15.0,
                label="a",
            ),
            Segment(
                spec=simple_spec("hot", UniformDistribution(0, 100), rate=700.0),
                duration=15.0,
                label="b",
            ),
        ],
        seed=5,
        initial_keys=np.linspace(0.0, 1000.0, 2000),
    )


def test_report_equals_streaming_metrics_byte_for_byte():
    _assert_report_equals_streaming(TraditionalKVStore)


def test_report_equals_streaming_metrics_for_a_listening_sut():
    _assert_report_equals_streaming(
        lambda: LearnedKVStore(max_fanout=64, adapt=False)
    )


def _assert_report_equals_streaming(sut_factory) -> None:
    scenario = _scenario()
    assert scenario.fault_plan is None
    result = VirtualClockDriver(DriverConfig()).run(sut_factory(), scenario)
    sla = float(np.percentile(result.latencies(), 75))
    report = build_report(result, scenario, sla=sla)
    summary = VirtualClockDriver(DriverConfig()).run_streaming(
        sut_factory(),
        scenario,
        accumulators=[*streaming_accumulators(scenario, sla=sla), _BlockCount()],
    )
    streamed = summary.metrics
    assert streamed["blocks"] == len(scenario.segments)
    assert summary.horizon == result.horizon

    times, counts = result.throughput_series()
    assert times.tolist() == streamed["throughput"]["times"]
    assert counts.tolist() == streamed["throughput"]["counts"]
    assert report.adaptability.throughput_cv == streamed["throughput"]["cv"]

    times, cumulative = cumulative_curve(result)
    assert times.tolist() == streamed["adaptability"]["times"]
    assert cumulative.tolist() == streamed["adaptability"]["cumulative"]
    assert report.adaptability.area_vs_ideal == streamed["adaptability"]["area_vs_ideal"]
    assert (
        report.adaptability.recovery_seconds
        == streamed["recovery"]["recovery_seconds"]
    )

    bands = [[b.start, b.within_sla, b.violated] for b in report.bands]
    assert bands == streamed["sla"]["bands"]
    assert report.adjustment == streamed["adjustment_speed"]["value"]

    by_label = {s["label"]: s for s in streamed["segments"]["segments"]}
    assert {s.label for s in report.specialization.segments} == set(by_label)
    for segment in report.specialization.segments:
        assert segment.throughput.row() == by_label[segment.label]["throughput"]
        assert segment.mean_latency == by_label[segment.label]["mean_latency"]

    # Not vacuous: the SLA splits the bands and the change costs latency.
    assert sum(b.violated for b in report.bands) > 0
    assert report.adjustment > 0.0
    assert report.adaptability.recovery_seconds is not None
