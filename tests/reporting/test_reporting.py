"""Figure renderers and the full report."""

from __future__ import annotations

import json

import pytest

from repro.core.benchmark import Benchmark
from repro.metrics.sla import calibrate_sla, latency_bands
from repro.metrics.specialization import specialization_report
from repro.reporting.figures import (
    render_fig1a,
    render_fig1b,
    render_fig1c,
    render_fig1d,
    sparkline,
)
from repro.reporting.report import build_report
from repro.scenarios import abrupt_shift, default_dataset
from repro.suts.kv_traditional import TraditionalKVStore


@pytest.fixture(scope="module")
def small_run():
    dataset = default_dataset(n=4000, seed=5)
    scenario = abrupt_shift(dataset, rate=120.0, segment_duration=5.0,
                            train_budget=0.0)
    result = Benchmark().run(TraditionalKVStore(), scenario)
    return scenario, result


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_capped(self):
        assert len(sparkline(range(500), width=40)) == 40

    def test_flat_zero(self):
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_peak_uses_full_block(self):
        line = sparkline([0, 1, 10])
        assert line[-1] == "█"


class TestFigureRenderers:
    def test_fig1a_contains_rows(self, small_run):
        scenario, result = small_run
        report = specialization_report(result, scenario)
        text = render_fig1a([report])
        assert "Fig 1a" in text
        for seg in report.segments:
            assert seg.label in text

    def test_fig1b_lists_systems(self, small_run):
        _, result = small_run
        text = render_fig1b([result], areas_vs_ideal={result.sut_name: 123.0})
        assert result.sut_name in text and "area-vs-ideal" in text

    def test_fig1c_counts_violations(self, small_run):
        _, result = small_run
        sla = calibrate_sla(result)
        bands = latency_bands(result, sla)
        text = render_fig1c({result.sut_name: bands}, sla)
        assert "SLA" in text and result.sut_name in text

    def test_fig1d_crossover_rendering(self):
        text = render_fig1d(
            learned_curve=[(0.1, 50.0), (1.0, 200.0)],
            traditional_levels=[(0.0, 100.0), (600.0, 130.0)],
            crossover=1.0,
        )
        assert "training cost to outperform: $1.0000" in text
        text_none = render_fig1d([(0.1, 1.0)], [(0.0, 100.0)], None)
        assert "not reached" in text_none


class TestFullReport:
    def test_build_and_render(self, small_run):
        scenario, result = small_run
        sla = calibrate_sla(result)
        report = build_report(result, scenario, sla=sla)
        text = report.render()
        assert result.sut_name in text
        assert "adaptability" in text
        assert "cost" in text

    def test_to_dict_jsonable(self, small_run):
        scenario, result = small_run
        report = build_report(result, scenario, sla=0.5)
        payload = json.dumps(report.to_dict())
        parsed = json.loads(payload)
        assert parsed["sut"] == result.sut_name
        assert parsed["queries"] == result.num_queries
        assert "adaptability" in parsed

    def test_without_sla_skips_bands(self, small_run):
        scenario, result = small_run
        report = build_report(result, scenario)
        assert report.bands is None and report.adjustment is None


class TestMultibandRenderer:
    def test_renders_all_classes(self, small_run):
        from repro.metrics.sla import multi_latency_bands
        from repro.reporting.figures import render_fig1c_multiband

        _, result = small_run
        thresholds = [0.001, 0.01, 0.1]
        rows = multi_latency_bands(result, thresholds=thresholds, interval=1.0)
        text = render_fig1c_multiband({result.sut_name: rows}, thresholds)
        assert result.sut_name in text
        assert "<1ms" in text and ">100ms" in text
        # Totals across classes conserve the query count.
        import re

        totals = [int(m) for m in re.findall(r"=(\d+)", text)]
        assert sum(totals) == result.num_queries
