"""Box-plot statistics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics.descriptive import box_stats, percentile


class TestBoxStats:
    def test_five_numbers(self):
        stats = box_stats(list(range(1, 101)))
        assert stats.minimum == 1 and stats.maximum == 100
        assert stats.median == pytest.approx(50.5)
        assert stats.q1 == pytest.approx(25.75)
        assert stats.q3 == pytest.approx(75.25)

    def test_outliers_detected(self):
        values = [10.0] * 50 + [1000.0]
        stats = box_stats(values)
        assert stats.outliers == [1000.0]
        assert stats.whisker_high == 10.0

    def test_no_outliers_whiskers_are_extremes(self, rng):
        values = rng.uniform(0, 1, 200)
        stats = box_stats(values)
        if not stats.outliers:
            assert stats.whisker_low == stats.minimum
            assert stats.whisker_high == stats.maximum

    def test_single_value(self):
        stats = box_stats([5.0])
        assert stats.minimum == stats.median == stats.maximum == 5.0
        assert stats.iqr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            box_stats([])

    def test_dispersion(self):
        stats = box_stats([1, 2, 3, 4, 5])
        assert stats.dispersion == pytest.approx(stats.iqr / 3.0)

    def test_row_export(self):
        row = box_stats([1.0, 2.0, 3.0]).row()
        assert set(row) >= {"min", "q1", "median", "q3", "max", "mean", "count"}

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, values):
        stats = box_stats(values)
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum
        assert stats.whisker_low >= stats.minimum - 1e-9
        assert stats.whisker_high <= stats.maximum + 1e-9
        assert stats.count == len(values)
        for outlier in stats.outliers:
            assert outlier < stats.q1 - 1.5 * stats.iqr - 1e-12 or (
                outlier > stats.q3 + 1.5 * stats.iqr - 1e-12
            )

    @given(
        st.lists(
            st.one_of(st.floats(-1e300, 1e300), st.integers(-5, 5)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_quartiles_are_the_three_percentile_calls_bit_for_bit(self, values):
        """One ``np.percentile`` call for all three quartiles is the three
        single-quartile calls, to the last bit (ties and huge spreads too)."""
        arr = np.asarray(values, dtype=np.float64)
        stats = box_stats(values)
        got = np.asarray([stats.q1, stats.median, stats.q3])
        want = np.asarray([np.percentile(arr, q) for q in (25, 50, 75)])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestPercentile:
    def test_basic(self):
        assert percentile(range(101), 50) == pytest.approx(50.0)
        assert percentile(range(101), 99) == pytest.approx(99.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)
