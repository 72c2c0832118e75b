"""Descriptive statistics: the box plots of Fig 1a.

§V-D1: "instead of only reporting the average throughput, the benchmark
should report descriptive statistics (e.g., using a box plot) to
adequately capture the specialization and adaptation capabilities."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot take a percentile of no data")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary with Tukey whiskers and outliers.

    Attributes:
        minimum / maximum: Extremes of the data.
        q1 / median / q3: Quartiles.
        whisker_low / whisker_high: Last data points within 1.5 IQR of
            the box (classic Tukey whiskers).
        outliers: Values beyond the whiskers.
        mean: Arithmetic mean (the number traditional benchmarks report
            — kept for contrast).
        count: Sample size.
    """

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: List[float]
    mean: float
    count: int

    @property
    def iqr(self) -> float:
        """Interquartile range."""
        return self.q3 - self.q1

    @property
    def dispersion(self) -> float:
        """IQR relative to the median (0 when the median is 0)."""
        return self.iqr / self.median if self.median else 0.0

    def row(self) -> dict:
        """Flat dict for CSV export."""
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "whisker_low": self.whisker_low,
            "whisker_high": self.whisker_high,
            "outliers": len(self.outliers),
            "mean": self.mean,
            "count": self.count,
        }


class RunningStats:
    """Single-pass count/mean/variance/min/max (Chan-Welford merging).

    The streaming pipeline's descriptive summary: folds value blocks
    without retaining them. Counts, minima, and maxima are exact; the
    mean and variance use the numerically stable parallel-merge update,
    so they are deterministic for a given block sequence and agree with
    the batch ``np.mean`` / ``np.std`` to float tolerance (the summation
    trees differ — see DESIGN.md §9).
    """

    __slots__ = ("count", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        """Start empty (count 0, infinite extremes)."""
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = np.inf
        self.maximum = -np.inf

    def update(self, values: np.ndarray) -> None:
        """Fold one block of values."""
        values = np.asarray(values, dtype=np.float64)
        n = int(values.size)
        if n == 0:
            return
        b_mean = float(values.mean())
        b_m2 = float(((values - b_mean) ** 2).sum())
        if self.count == 0:
            self.count, self.mean, self._m2 = n, b_mean, b_m2
        else:
            total = self.count + n
            delta = b_mean - self.mean
            self.mean += delta * n / total
            self._m2 += b_m2 + delta * delta * self.count * n / total
            self.count = total
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Absorb another instance (Chan parallel combine).

        Counts and extremes stay exact; mean/variance combine with the
        same stable update :meth:`update` uses, so a sharded merge is
        deterministic and agrees with the sequential fold to float
        tolerance (the combination trees differ).
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
        else:
            total = self.count + other.count
            delta = other.mean - self.mean
            self.mean += delta * other.count / total
            self._m2 += (
                other._m2 + delta * delta * self.count * other.count / total
            )
            self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self._m2,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RunningStats":
        """Rebuild running stats from a :meth:`state_dict` payload."""
        stats = cls()
        stats.count = int(state["count"])
        stats.mean = float(state["mean"])
        stats._m2 = float(state["m2"])
        if state.get("min") is not None:
            stats.minimum = float(state["min"])
            stats.maximum = float(state["max"])
        return stats

    @property
    def variance(self) -> float:
        """Population variance of everything folded (0 when empty)."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation (0 when empty)."""
        return float(np.sqrt(self.variance))

    def summary(self) -> dict:
        """JSON-ready summary row."""
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "max": self.maximum,
        }


class OnlineLatencyStats:
    """Streaming latency summary over a run's completed blocks."""

    name = "latency"

    def __init__(self) -> None:
        """Start with empty running stats."""
        self._stats = RunningStats()

    def fold(self, block) -> None:
        """Fold one completed block's latencies."""
        self._stats.update(block.latencies)

    def merge(self, other: "OnlineLatencyStats") -> "OnlineLatencyStats":
        """Absorb another shard's latency stats (Chan combine)."""
        self._stats.merge(other._stats)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {"stats": self._stats.state_dict()}

    @classmethod
    def from_state(cls, state: dict) -> "OnlineLatencyStats":
        """Rebuild the accumulator from a :meth:`state_dict` payload."""
        accumulator = cls()
        accumulator._stats = RunningStats.from_state(state["stats"])
        return accumulator

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: the :class:`RunningStats` summary."""
        return self._stats.summary()


def box_stats(values: Sequence[float]) -> BoxStats:
    """Compute :class:`BoxStats` for ``values``.

    Raises:
        ConfigurationError: On empty input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot summarize no data")
    q1, median, q3 = np.percentile(arr, (25, 50, 75)).tolist()
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= low_fence) & (arr <= high_fence)]
    whisker_low = float(inside.min()) if inside.size else float(arr.min())
    whisker_high = float(inside.max()) if inside.size else float(arr.max())
    outliers = sorted(float(v) for v in arr[(arr < low_fence) | (arr > high_fence)])
    return BoxStats(
        minimum=float(arr.min()),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(arr.max()),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        mean=float(arr.mean()),
        count=int(arr.size),
    )
