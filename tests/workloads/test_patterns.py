"""Arrival processes: rates and generated timestamp streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.patterns import (
    BurstyArrivals,
    CompositeArrivals,
    ConstantArrivals,
    DiurnalArrivals,
    RampArrivals,
)


class TestConstant:
    def test_count_matches_rate(self, rng):
        times = ConstantArrivals(100.0).arrivals(rng, 0.0, 10.0)
        assert len(times) == pytest.approx(1000, abs=2)

    def test_times_sorted_and_in_range(self, rng):
        times = ConstantArrivals(50.0).arrivals(rng, 5.0, 8.0)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 5.0 and times.max() < 8.0

    def test_no_jitter_evenly_spaced(self, rng):
        times = ConstantArrivals(10.0).arrivals(rng, 0.0, 2.0, jitter=False)
        gaps = np.diff(times)
        assert gaps.std() < 0.02

    def test_zero_rate(self, rng):
        times = ConstantArrivals(0.0).arrivals(rng, 0, 100)
        assert len(times) == 0 and times.dtype == np.float64

    @pytest.mark.parametrize("jitter", [True, False])
    def test_bitwise_equal_to_the_per_second_loop(self, jitter):
        """Fractional carry, seconds with no arrival, a partial last second."""
        start, end, rate = 3.25, 17.6, 0.7

        def per_second_loop(rng):
            times, carry, t = [], 0.0, start
            while t < end:
                step = min(1.0, end - t)
                expected = rate * step + carry
                count = int(expected)
                carry = expected - count
                if count and jitter:
                    times.extend((t + np.sort(rng.uniform(0.0, step, count))).tolist())
                elif count:
                    times.extend((t + (np.arange(count) + 0.5) * (step / count)).tolist())
                t += step
            return np.asarray(times, dtype=np.float64)

        got = ConstantArrivals(rate).arrivals(np.random.default_rng(9), start, end, jitter)
        want = per_second_loop(np.random.default_rng(9))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert 0 < got.size < end - start

    def test_empty_window(self, rng):
        assert len(ConstantArrivals(10.0).arrivals(rng, 5.0, 5.0)) == 0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantArrivals(-1.0)


class TestDiurnal:
    def test_oscillates_around_base(self):
        d = DiurnalArrivals(base=100, amplitude=0.5, period=100)
        assert d.rate(25.0) == pytest.approx(150.0)
        assert d.rate(75.0) == pytest.approx(50.0)

    def test_never_negative(self):
        d = DiurnalArrivals(base=100, amplitude=1.0, period=100)
        for t in np.linspace(0, 200, 100):
            assert d.rate(float(t)) >= 0

    def test_total_volume_close_to_base(self, rng):
        d = DiurnalArrivals(base=100, amplitude=0.8, period=20)
        times = d.arrivals(rng, 0.0, 40.0)  # two full periods
        assert len(times) == pytest.approx(4000, rel=0.02)


class TestBursty:
    def test_burst_multiplies(self):
        b = BurstyArrivals(10.0, [(5.0, 2.0, 10.0)])
        assert b.rate(4.9) == 10.0
        assert b.rate(5.0) == 100.0
        assert b.rate(7.0) == 10.0

    def test_overlapping_bursts_compound(self):
        b = BurstyArrivals(10.0, [(0.0, 10.0, 2.0), (5.0, 10.0, 3.0)])
        assert b.rate(7.0) == 60.0

    def test_rejects_bad_burst(self):
        with pytest.raises(ConfigurationError):
            BurstyArrivals(10.0, [(0.0, -1.0, 2.0)])


class TestRamp:
    def test_linear(self):
        r = RampArrivals(0.0, 100.0, 10.0)
        assert r.rate(0.0) == 0.0
        assert r.rate(5.0) == pytest.approx(50.0)
        assert r.rate(10.0) == 100.0
        assert r.rate(20.0) == 100.0  # clamps


class TestComposite:
    def test_segment_switching_with_local_clocks(self):
        comp = CompositeArrivals(
            [(0.0, ConstantArrivals(5.0)), (10.0, RampArrivals(0.0, 10.0, 10.0))]
        )
        assert comp.rate(5.0) == 5.0
        assert comp.rate(10.0) == 0.0  # ramp starts at its local t=0
        assert comp.rate(15.0) == pytest.approx(5.0)

    def test_rejects_unordered(self):
        with pytest.raises(ConfigurationError):
            CompositeArrivals(
                [(10.0, ConstantArrivals(1.0)), (0.0, ConstantArrivals(2.0))]
            )

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            CompositeArrivals([])
