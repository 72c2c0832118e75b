"""SLA-violation metrics — Fig 1c.

§V-D2: "We also propose to report query latency bands at, e.g., 1-second
or 10-second intervals throughout execution. Each query latency band
represents the number of completed queries within the interval
(throughput), split into two categories depending on whether the query
finished within the allotted Service-Level Agreement (SLA) time."

The SLA threshold "should ideally be determined based on a baseline
system's query latency statistics on the same hardware and workload
distribution" — :func:`calibrate_sla` implements exactly that. The
"single-value metric for the adjustment speed ... as the sum of query
times above the SLA threshold over the first N queries after a
distribution change" is :func:`adjustment_speed`.

Bands and adjustment speed are defined once, by online accumulators
below, and the batch functions fold the run through them as one block.
Band edges come from the shared :mod:`repro.metrics._buckets` grid (as
``RunResult.throughput_series``'s do), so band totals and throughput
counts agree bucket-for-bucket on runs of any length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.metrics._buckets import GridCounts, time_edges


@dataclass(frozen=True)
class LatencyBand:
    """One interval of Fig 1c.

    Attributes:
        start: Interval start time.
        within_sla: Queries completed in the interval within the SLA.
        violated: Queries completed in the interval over the SLA.
    """

    start: float
    within_sla: int
    violated: int

    @property
    def total(self) -> int:
        """Total completions in the interval."""
        return self.within_sla + self.violated

    @property
    def violation_rate(self) -> float:
        """Fraction of completions over the SLA (0 when idle)."""
        return self.violated / self.total if self.total else 0.0


def calibrate_sla(
    baseline: RunResult, percentile: float = 99.0, headroom: float = 1.5
) -> float:
    """SLA threshold from a baseline run's latency statistics.

    Args:
        baseline: A run of the baseline system on the same scenario.
        percentile: Latency percentile anchoring the threshold.
        headroom: Multiplier on the anchor (SLAs allow slack).
    """
    latencies = baseline.latencies()
    if latencies.size == 0:
        raise ConfigurationError("baseline run has no queries")
    return float(np.percentile(latencies, percentile) * headroom)


def latency_bands(
    result: RunResult, sla: float, interval: float = 1.0
) -> List[LatencyBand]:
    """Fig 1c's bands: per-interval within/violated counts."""
    bands = OnlineLatencyBands(sla, interval)
    result.fold(bands)
    return bands.bands(result.horizon)


def multi_latency_bands(
    result: RunResult,
    thresholds: Sequence[float],
    interval: float = 1.0,
) -> List[Tuple[float, List[int]]]:
    """Multi-band variant (the paper's green-yellow-orange-red idea).

    ``thresholds`` must be ascending; each interval yields
    ``len(thresholds) + 1`` counts: completions with latency in
    [0, t0), [t0, t1), ..., [t_last, inf).
    """
    ts = list(thresholds)
    if ts != sorted(ts) or any(t <= 0 for t in ts):
        raise ConfigurationError("thresholds must be positive and ascending")
    if interval <= 0:
        raise ConfigurationError("interval must be > 0")
    cols = result.columns
    edges = time_edges(result.horizon, interval)
    if edges.size < 2:
        return []
    latency_edges = np.asarray([0.0] + ts + [np.inf])
    grid, _, _ = np.histogram2d(
        cols.completions, cols.latencies, bins=(edges, latency_edges)
    )
    return [
        (start, row.astype(int).tolist())
        for start, row in zip(edges[:-1].tolist(), grid)
    ]


def adjustment_speed(
    result: RunResult,
    change_time: float,
    n_queries: int,
    sla: float,
) -> float:
    """Sum of over-SLA latency across the first N queries after a change.

    Lower is better: 0 means the system absorbed the change without any
    SLA impact on the next ``n_queries`` arrivals (in stable arrival
    order). Units: seconds.
    """
    speed = OnlineAdjustmentSpeed(change_time, n_queries, sla)
    result.fold(speed)
    return speed.value()


# -- online accumulators: the one definition of each metric --------------------------


class OnlineLatencyBands:
    """Fig 1c's within/violated bands (closed last bucket).

    Two :class:`~repro.metrics._buckets.GridCounts` on the shared edge
    grid: one folds every completion, the other only the over-SLA ones;
    the bands are read back from their exact integer counts.
    """

    name = "sla"

    def __init__(self, sla: float, interval: float = 1.0) -> None:
        """Split ``interval``-second bands at the ``sla`` threshold."""
        if interval <= 0:
            raise ConfigurationError("interval must be > 0")
        if sla <= 0:
            raise ConfigurationError("sla must be > 0")
        self.sla = float(sla)
        self.interval = float(interval)
        self._total = GridCounts(self.interval)
        self._over = GridCounts(self.interval)

    def fold(self, block) -> None:
        """Fold one completed block (completions + latencies)."""
        self._total.fold_sorted(block.completions_sorted)
        violated = block.completions[block.latencies > self.sla]  # a copy
        if violated.size:
            violated.sort()
            self._over.fold_sorted(violated)

    def merge(self, other: "OnlineLatencyBands") -> "OnlineLatencyBands":
        """Absorb another shard's band counters (bit-exact)."""
        if other.sla != self.sla or other.interval != self.interval:
            raise ConfigurationError(
                "cannot merge OnlineLatencyBands with different parameters"
            )
        self._total.merge(other._total)
        self._over.merge(other._over)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {
            "sla": self.sla,
            "interval": self.interval,
            "total": self._total.state_dict(),
            "over": self._over.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineLatencyBands":
        """Rebuild the accumulator from a :meth:`state_dict` payload."""
        accumulator = cls(state["sla"], interval=state["interval"])
        accumulator._total = GridCounts.from_state(state["total"])
        accumulator._over = GridCounts.from_state(state["over"])
        return accumulator

    def bands(self, horizon: float) -> List[LatencyBand]:
        """:func:`latency_bands`'s output for the folded stream."""
        edges = time_edges(horizon, self.interval)
        if edges.size < 2:
            return []
        total = self._total.counts_on(edges)
        over = self._over.counts_on(edges)
        return [
            LatencyBand(start=start, within_sla=int(n - v), violated=int(v))
            for start, n, v in zip(edges[:-1].tolist(), total, over)
        ]

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: ``[start, within, violated]`` rows."""
        return {
            "sla": self.sla,
            "interval": self.interval,
            "bands": [
                [band.start, band.within_sla, band.violated]
                for band in self.bands(horizon)
            ],
        }


#: Fig 1c's N: the adjustment speed of a report and of a streamed run
#: counts the first this many arrivals after the change.
ADJUSTMENT_QUERIES = 1000


class OnlineAdjustmentSpeed:
    """Fig 1c's adjustment speed: over-SLA mass of the first N arrivals.

    Buffers the latencies of the first ``n_queries`` arrivals at or
    after the change, in stable arrival order (``np.argsort(arrivals,
    kind="stable")``), then sums ``max(0, latency - sla)``. Blocks
    stream past in arrival order; rows inside one block need not be.
    The buffer is bounded by ``n_queries`` — a user parameter, not the
    run length — so memory stays constant.
    """

    name = "adjustment_speed"

    def __init__(self, change_time: float, n_queries: int, sla: float) -> None:
        """Watch the first ``n_queries`` arrivals after ``change_time``."""
        if n_queries < 1:
            raise ConfigurationError("n_queries must be >= 1")
        self.change_time = float(change_time)
        self.n_queries = int(n_queries)
        self.sla = float(sla)
        self._chunks: List[np.ndarray] = []
        self._remaining = self.n_queries

    def fold(self, block) -> None:
        """Fold one completed block (arrivals + latencies)."""
        if self._remaining <= 0:
            return
        arrivals = block.arrivals
        after = np.flatnonzero(arrivals >= self.change_time)
        if after.size == 0:
            return
        if (np.diff(arrivals[after]) < 0).any():
            after = after[np.argsort(arrivals[after], kind="stable")]
        take = block.latencies[after[: self._remaining]]
        self._chunks.append(take)
        self._remaining -= int(take.size)

    def merge(self, other: "OnlineAdjustmentSpeed") -> "OnlineAdjustmentSpeed":
        """Absorb a later shard's buffered latencies (bit-exact).

        Shards must merge in stream (arrival) order: the combined
        buffer is then the same first-``n_queries`` selection the
        unsharded fold makes, truncated identically.
        """
        if (
            other.change_time != self.change_time
            or other.n_queries != self.n_queries
            or other.sla != self.sla
        ):
            raise ConfigurationError(
                "cannot merge OnlineAdjustmentSpeed with different parameters"
            )
        for chunk in other._chunks:
            if self._remaining <= 0:
                break
            take = np.asarray(chunk[: self._remaining], dtype=np.float64)
            if take.size:
                self._chunks.append(np.array(take))
                self._remaining -= int(take.size)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        latencies = (
            np.concatenate(self._chunks).tolist() if self._chunks else []
        )
        return {
            "change_time": self.change_time,
            "n_queries": self.n_queries,
            "sla": self.sla,
            "latencies": latencies,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineAdjustmentSpeed":
        """Rebuild the accumulator from a :meth:`state_dict` payload."""
        accumulator = cls(
            state["change_time"], state["n_queries"], state["sla"]
        )
        latencies = np.asarray(state["latencies"], dtype=np.float64)
        if latencies.size:
            accumulator._chunks.append(latencies)
            accumulator._remaining -= int(latencies.size)
        return accumulator

    def value(self) -> float:
        """:func:`adjustment_speed`'s answer for the folded stream."""
        if not self._chunks:
            return 0.0
        latencies = (
            self._chunks[0]
            if len(self._chunks) == 1
            else np.concatenate(self._chunks)
        )
        over = np.maximum(0.0, latencies - self.sla)
        return float(over.sum())

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: parameters and the summed over-SLA mass."""
        return {
            "change_time": self.change_time,
            "n_queries": self.n_queries,
            "sla": self.sla,
            "value": self.value(),
        }
