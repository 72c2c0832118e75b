"""Arrival-rate processes.

An :class:`ArrivalProcess` gives the offered query rate (queries per
virtual second) as a function of virtual time. The benchmark driver
integrates it to generate arrival timestamps. The catalog implements the
load phenomena the paper lists: fluctuating query load, complex diurnal
patterns, and temporary bursts.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class ArrivalProcess(ABC):
    """Offered load (queries/second) over virtual time."""

    @abstractmethod
    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (>= 0)."""

    def arrivals(
        self, rng: np.random.Generator, start: float, end: float, jitter: bool = True
    ) -> np.ndarray:
        """Generate arrival timestamps in ``[start, end)``.

        Uses per-interval integration of the rate: each one-second slice
        contributes ``rate(t)`` arrivals (fractional residue carried over),
        spread uniformly (with optional jitter) inside the slice. This is
        deterministic in count — throughput curves depend on the rate
        function, not sampling noise — while jitter keeps inter-arrival
        gaps realistic.
        """
        if end <= start:
            return np.empty(0, dtype=np.float64)
        slices: List[np.ndarray] = []
        carry = 0.0
        t = start
        while t < end:
            step = min(1.0, end - t)
            expected = self.rate(t + step / 2.0) * step + carry
            count = int(expected)
            carry = expected - count
            if count > 0:
                if jitter:
                    offsets = np.sort(rng.uniform(0.0, step, count))
                else:
                    offsets = (np.arange(count) + 0.5) * (step / count)
                slices.append(t + offsets)
            t += step
        if not slices:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(slices)

    def projected_count(self, start: float, end: float) -> int:
        """Exact number of arrivals :meth:`arrivals` would generate.

        Per-slice counts are deterministic (only offsets are random), so
        this mirrors the integration loop without materializing timestamp
        arrays — callers like the driver's ``max_queries`` safety valve can
        reject an oversized segment before any allocation happens.
        """
        if end <= start:
            return 0
        total = 0
        carry = 0.0
        t = start
        while t < end:
            step = min(1.0, end - t)
            expected = self.rate(t + step / 2.0) * step + carry
            count = int(expected)
            carry = expected - count
            total += count
            t += step
        return total

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {"kind": type(self).__name__}


class ConstantArrivals(ArrivalProcess):
    """Fixed offered load."""

    def __init__(self, rate: float) -> None:
        """Store the fixed rate (queries per virtual second)."""
        if rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {rate}")
        self._rate = float(rate)

    def rate(self, t: float) -> float:
        """The fixed rate, independent of ``t``."""
        return self._rate

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {"kind": "ConstantArrivals", "rate": self._rate}


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night load pattern.

    Rate oscillates between ``base * (1 - amplitude)`` and
    ``base * (1 + amplitude)`` with the given ``period`` (a scaled "day").
    """

    def __init__(self, base: float, amplitude: float = 0.5, period: float = 86_400.0,
                 phase: float = 0.0) -> None:
        """Validate and store the sinusoid parameters."""
        if base < 0:
            raise ConfigurationError(f"base must be >= 0, got {base}")
        if not 0.0 <= amplitude <= 1.0:
            raise ConfigurationError(f"amplitude must be in [0,1], got {amplitude}")
        if period <= 0:
            raise ConfigurationError(f"period must be > 0, got {period}")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.period = float(period)
        self.phase = float(phase)

    def rate(self, t: float) -> float:
        """Sinusoidal rate at ``t`` (clamped at zero)."""
        cycle = math.sin(2.0 * math.pi * (t / self.period) + self.phase)
        return max(0.0, self.base * (1.0 + self.amplitude * cycle))

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {
            "kind": "DiurnalArrivals",
            "base": self.base,
            "amplitude": self.amplitude,
            "period": self.period,
        }


class BurstyArrivals(ArrivalProcess):
    """A base rate with multiplicative bursts at scheduled windows.

    ``bursts`` is a list of ``(start, duration, multiplier)`` tuples.
    Overlapping bursts multiply.
    """

    def __init__(
        self, base: float, bursts: Sequence[Tuple[float, float, float]]
    ) -> None:
        """Validate and store the base rate and burst windows."""
        if base < 0:
            raise ConfigurationError(f"base must be >= 0, got {base}")
        self.base = float(base)
        self.bursts = [(float(s), float(d), float(m)) for s, d, m in bursts]
        for start, duration, mult in self.bursts:
            if duration <= 0 or mult < 0:
                raise ConfigurationError(
                    f"invalid burst (start={start}, duration={duration}, mult={mult})"
                )

    def rate(self, t: float) -> float:
        """Base rate times every burst window covering ``t``."""
        rate = self.base
        for start, duration, mult in self.bursts:
            if start <= t < start + duration:
                rate *= mult
        return rate

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {"kind": "BurstyArrivals", "base": self.base, "bursts": self.bursts}


class RampArrivals(ArrivalProcess):
    """Linear ramp from ``rate_start`` to ``rate_end`` over ``duration``."""

    def __init__(self, rate_start: float, rate_end: float, duration: float) -> None:
        """Validate and store the ramp endpoints and duration."""
        if min(rate_start, rate_end) < 0:
            raise ConfigurationError("rates must be >= 0")
        if duration <= 0:
            raise ConfigurationError(f"duration must be > 0, got {duration}")
        self.rate_start = float(rate_start)
        self.rate_end = float(rate_end)
        self.duration = float(duration)

    def rate(self, t: float) -> float:
        """Linearly interpolated rate at ``t`` (flat past the ramp)."""
        frac = min(1.0, max(0.0, t / self.duration))
        return self.rate_start + frac * (self.rate_end - self.rate_start)

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {
            "kind": "RampArrivals",
            "rate_start": self.rate_start,
            "rate_end": self.rate_end,
            "duration": self.duration,
        }


class CompositeArrivals(ArrivalProcess):
    """Piecewise schedule of other arrival processes.

    ``segments`` is a list of ``(start_time, process)``; the process whose
    start time most recently passed is active. Times inside a segment are
    passed to the segment's process relative to the segment start, so each
    sub-process sees its own local clock.
    """

    def __init__(self, segments: Sequence[Tuple[float, ArrivalProcess]]) -> None:
        """Store ``(start_time, process)`` entries (starts must ascend)."""
        if not segments:
            raise ConfigurationError("need at least one segment")
        starts = [s for s, _ in segments]
        if starts != sorted(starts):
            raise ConfigurationError("segment start times must be ascending")
        self.segments = [(float(s), p) for s, p in segments]

    def rate(self, t: float) -> float:
        """The active sub-process's rate on its local clock."""
        active_start, active = self.segments[0]
        for start, process in self.segments:
            if t >= start:
                active_start, active = start, process
            else:
                break
        return active.rate(t - active_start)

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {
            "kind": "CompositeArrivals",
            "segments": [
                {"start": start, "process": process.describe()}
                for start, process in self.segments
            ],
        }
