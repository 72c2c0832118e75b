"""Property-based tests on metric invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.result_helpers import rows_to_columns

from repro.core.results import RunResult
from repro.metrics.adaptability import (
    area_between_systems,
    area_vs_ideal,
    cumulative_curve,
)
from repro.metrics.sla import adjustment_speed, latency_bands, multi_latency_bands


@st.composite
def run_results(draw, max_queries=120):
    """Random-but-valid RunResults: arrival <= start < completion."""
    n = draw(st.integers(min_value=1, max_value=max_queries))
    arrivals = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    rows = []
    for arrival in arrivals:
        queue_delay = draw(st.floats(min_value=0.0, max_value=5.0))
        service = draw(st.floats(min_value=1e-6, max_value=2.0))
        start = arrival + queue_delay
        rows.append((arrival, start, start + service, "read", "a"))
    horizon = max(60.0, max(row[2] for row in rows))
    return RunResult(
        sut_name="rand",
        scenario_name="rand",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, horizon)],
    )


class TestCumulativeCurveProperties:
    @given(result=run_results())
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_bounded(self, result):
        times, cum = cumulative_curve(result, resolution=0.5)
        assert (np.diff(cum) >= 0).all()
        assert cum[0] >= 0
        assert cum[-1] == result.num_queries

    @given(result=run_results())
    @settings(max_examples=40, deadline=None)
    def test_resolution_invariance_of_total(self, result):
        _, coarse = cumulative_curve(result, resolution=2.0)
        _, fine = cumulative_curve(result, resolution=0.25)
        assert coarse[-1] == fine[-1]


class TestAreaProperties:
    @given(result=run_results())
    @settings(max_examples=40, deadline=None)
    def test_area_between_self_is_zero(self, result):
        assert area_between_systems(result, result) == 0.0

    @given(a=run_results(), b=run_results())
    @settings(max_examples=30, deadline=None)
    def test_area_between_antisymmetric(self, a, b):
        ab = area_between_systems(a, b)
        ba = area_between_systems(b, a)
        assert ab == pytest.approx(-ba, abs=1e-6)

    @given(result=run_results())
    @settings(max_examples=30, deadline=None)
    def test_area_vs_ideal_finite(self, result):
        value = area_vs_ideal(result, resolution=0.5)
        assert np.isfinite(value)


class TestBandProperties:
    @given(result=run_results(), sla=st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_bands_conserve_queries(self, result, sla):
        bands = latency_bands(result, sla=sla, interval=1.0)
        assert sum(b.total for b in bands) == result.num_queries

    @given(result=run_results(), sla=st.floats(min_value=0.01, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_violations_match_direct_count(self, result, sla):
        bands = latency_bands(result, sla=sla, interval=1.0)
        direct = int((result.columns.latencies > sla).sum())
        assert sum(b.violated for b in bands) == direct

    @given(result=run_results())
    @settings(max_examples=30, deadline=None)
    def test_multi_bands_conserve(self, result):
        rows = multi_latency_bands(result, thresholds=[0.1, 1.0], interval=1.0)
        total = sum(sum(counts) for _, counts in rows)
        assert total == result.num_queries

    @given(
        result=run_results(),
        sla=st.floats(min_value=0.01, max_value=3.0),
        change=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjustment_speed_nonnegative_monotone_in_n(self, result, sla, change):
        small = adjustment_speed(result, change, 5, sla)
        large = adjustment_speed(result, change, 50, sla)
        assert 0.0 <= small <= large
