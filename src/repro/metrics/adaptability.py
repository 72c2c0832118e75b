"""Adaptability metrics — Fig 1b.

§V-D2: "We suggest reporting throughput variations by plotting the
cumulative queries completed over time. ... We can derive a single-value
result from this plot by computing the area difference between an ideal
system with a constant throughput. Similarly, ... the area difference
between the two systems provides a single-value result."

Each metric is defined once, by an online accumulator below; the batch
functions fold the run through it as one block and read it back at the
run's horizon. ``area_between_systems`` and ``latency_timeline`` have no
online twin. Timelines share their grid via :mod:`repro.metrics._buckets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.metrics._buckets import GridCounts, bucket_index, time_edges


def cumulative_curve(
    result: RunResult, resolution: float = 1.0
) -> Tuple[np.ndarray, np.ndarray]:
    """The Fig 1b curve: (times, cumulative completed queries).

    Sampled on a regular grid of ``resolution`` seconds from 0 to the
    run horizon; the value at t is the number of queries completed by t.
    """
    curve = OnlineCumulativeCurve(resolution)
    result.fold(curve)
    return curve.curve(result.horizon)


def area_vs_ideal(
    result: RunResult,
    ideal_rate: Optional[float] = None,
    resolution: float = 1.0,
) -> float:
    """Signed area between the ideal line and the actual curve.

    The ideal system completes queries at a constant rate and ends with
    the same total. Positive area = the actual system lagged the ideal
    (query-seconds of deficit); 0 = perfectly steady throughput. Units:
    query·seconds.

    Args:
        ideal_rate: Ideal constant throughput; default = total queries /
            horizon (so ideal and actual meet at the end — the paper's
            construction).
        resolution: Integration step.
    """
    curve = OnlineCumulativeCurve(resolution, ideal_rate)
    result.fold(curve)
    return curve.area(result.horizon)


def area_between_systems(result_a: RunResult, result_b: RunResult) -> float:
    """Signed area between two systems' cumulative curves (A minus B).

    Positive = A stayed ahead (completed queries earlier) on balance.
    Units: query·seconds.

    Both cumulative curves are step functions, so the area is computed
    *exactly*: the step values are evaluated with ``np.searchsorted`` on
    the shared edge set (every completion time of either system, plus
    the union horizon) and integrated piecewise-constant. Linear
    interpolation between grid samples — the previous implementation —
    biased the metric whenever completions fell between grid points.
    """
    completions_a = result_a.completions_sorted
    completions_b = result_b.completions_sorted
    horizon = max(result_a.horizon, result_b.horizon)
    if horizon <= 0:
        return 0.0
    edges = np.unique(np.concatenate((
        np.asarray([0.0, horizon]),
        completions_a,
        completions_b,
    )))
    edges = edges[(edges >= 0.0) & (edges <= horizon)]
    ahead_a = np.searchsorted(completions_a, edges[:-1], side="right")
    ahead_b = np.searchsorted(completions_b, edges[:-1], side="right")
    widths = np.diff(edges)
    return float(((ahead_a - ahead_b) * widths).sum())


def recovery_time(
    result: RunResult,
    change_time: float,
    window: float = 5.0,
    recovery_fraction: float = 0.9,
) -> Optional[float]:
    """Seconds after ``change_time`` until throughput recovers.

    Pre-change throughput is measured over the ``window`` seconds before
    the change; recovery is the first post-change window whose
    throughput reaches ``recovery_fraction`` of it. Returns ``None`` if
    the run ends first — or if the pre-change window is idle, in which
    case there is no baseline to recover *to* (reporting instant
    recovery there would be vacuous).
    """
    recovery = OnlineRecovery(change_time, window, recovery_fraction)
    result.fold(recovery)
    return recovery.recovery_seconds(result.horizon)


def latency_timeline(
    result: RunResult,
    interval: float = 1.0,
    percentiles: Tuple[float, ...] = (50.0, 99.0),
) -> Tuple[np.ndarray, dict]:
    """Per-interval latency percentiles over the run.

    §IV asks for "throughput and latency during transitions between
    distributions"; this is the latency half: for each ``interval``-second
    bucket (by completion time), the requested percentiles of the
    latencies completed in it (NaN for idle buckets). Bucket boundaries
    come from the shared edge grid; the group-wise percentiles are
    computed in one vectorized pass (matching ``np.percentile``'s linear
    interpolation bucket-for-bucket).

    Returns:
        (bucket start times, {percentile: values array}).
    """
    if interval <= 0:
        raise ConfigurationError("interval must be > 0")
    cols = result.columns
    edges = time_edges(result.horizon, interval)
    times = edges[:-1]
    out = {p: np.full(times.size, np.nan) for p in percentiles}
    if cols.size == 0 or times.size == 0:
        return times, out
    buckets = bucket_index(cols.completions, edges)
    order = np.lexsort((cols.latencies, buckets))
    sorted_latencies = cols.latencies[order]
    boundaries = np.searchsorted(buckets[order], np.arange(times.size + 1))
    counts = np.diff(boundaries)
    nonempty = counts > 0
    base = np.where(nonempty, boundaries[:-1], 0)
    for p in percentiles:
        # np.percentile's "linear" method: virtual index h = (n-1) * q,
        # gathered with its two-sided lerp for bit-identical results.
        h = np.where(nonempty, counts - 1, 0) * (float(p) / 100.0)
        low = np.floor(h).astype(np.int64)
        high = np.ceil(h).astype(np.int64)
        frac = h - low
        a = sorted_latencies[base + low]
        b = sorted_latencies[base + high]
        diff = b - a
        values = np.where(frac >= 0.5, b - diff * (1.0 - frac), a + diff * frac)
        out[p] = np.where(nonempty, values, np.nan)
    return times, out


@dataclass(frozen=True)
class AdaptabilityReport:
    """Single-value adaptability summary for one run.

    Attributes:
        area_vs_ideal: Query·seconds of lag behind the ideal line.
        recovery_seconds: Throughput recovery time after the (first)
            distribution change, or None if never/not applicable.
        throughput_cv: Coefficient of variation of per-second throughput
            (the stability number averages hide — Lesson 2).
    """

    sut_name: str
    area_vs_ideal: float
    recovery_seconds: Optional[float]
    throughput_cv: float


def adaptability_report(
    result: RunResult,
    change_time: Optional[float] = None,
    resolution: float = 1.0,
) -> AdaptabilityReport:
    """Compute the Fig 1b summary for one run.

    Args:
        change_time: Time of the distribution change for recovery-time
            measurement; default = the first internal segment boundary
            (None if the scenario had a single segment).
    """
    parts = _adaptability_accumulators(result, change_time, resolution)
    result.fold(*parts)
    return _adaptability_from(result, *parts)


def _adaptability_accumulators(
    result: RunResult, change_time: Optional[float], resolution: float
) -> tuple:
    """(throughput, curve, recovery-or-None): what the Fig 1b summary folds."""
    if change_time is None and len(result.segments) > 1:
        change_time = result.segments[0][2]
    return (
        OnlineThroughput(resolution),
        OnlineCumulativeCurve(resolution),
        OnlineRecovery(change_time) if change_time is not None else None,
    )


def _adaptability_from(
    result: RunResult, throughput, curve, recovery
) -> AdaptabilityReport:
    """Read the Fig 1b summary back from folded accumulators."""
    horizon = result.horizon
    return AdaptabilityReport(
        sut_name=result.sut_name,
        area_vs_ideal=curve.area(horizon),
        recovery_seconds=(
            recovery.recovery_seconds(horizon) if recovery is not None else None
        ),
        throughput_cv=throughput.cv(horizon),
    )


def adaptability_vs_drift(
    runs,
    resolution: float = 1.0,
    phi_probe_size: int = 4096,
) -> List[dict]:
    """Adaptability-vs-drift-rate surface rows for a drift-factor sweep.

    Each entry of ``runs`` is a ``(scenario, result)`` pair from one
    point of a :func:`repro.scenarios.drift_axis` sweep. Per point: the
    computed Φ between base and drifted segments
    (:func:`~repro.metrics.similarity.scenario_phi`), the Fig 1b
    summary numbers (:func:`adaptability_report` with the change point
    at the base→drifted boundary), sorted by drift factor ascending —
    the surface no single-scenario benchmark can chart.
    """
    from repro.metrics.similarity import scenario_phi

    rows: List[dict] = []
    for scenario, result in runs:
        if scenario.drift_factor is None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} carries no drift_factor; "
                "build sweep points with repro.scenarios.drift_axis"
            )
        phi = scenario_phi(scenario, n=phi_probe_size)
        report = adaptability_report(result, resolution=resolution)
        rows.append(
            {
                "drift_factor": scenario.drift_factor,
                "phi": phi["phi"],
                "phi_data": phi["phi_data"],
                "phi_workload": phi["phi_workload"],
                "area_vs_ideal": report.area_vs_ideal,
                "recovery_seconds": report.recovery_seconds,
                "throughput_cv": report.throughput_cv,
            }
        )
    rows.sort(key=lambda r: r["drift_factor"])
    return rows


# -- online accumulators: the one definition of each metric --------------------------
#
# The batch functions above fold a whole run as one block; the
# bounded-memory pipeline (DESIGN.md §9) folds the driver's blocks as
# they stream past. The integer machinery (grid counts, window counts)
# is exactly additive over sorted blocks, so both read back the same
# numbers bit for bit at the same horizon.


class OnlineThroughput:
    """Per-interval completions (``RunResult.throughput_series``) and CV.

    Folds completion timestamps into a :class:`GridCounts`; the counts
    and the coefficient of variation :func:`adaptability_report` reports
    are read back from it.
    """

    name = "throughput"

    def __init__(self, interval: float = 1.0) -> None:
        """Bucket completions into ``interval``-second grid cells."""
        if interval <= 0:
            raise ConfigurationError("interval must be > 0")
        self.interval = float(interval)
        self._grid = GridCounts(self.interval)

    def fold(self, block) -> None:
        """Fold one completed block (uses its sorted completions)."""
        self._grid.fold_sorted(block.completions_sorted)

    def merge(self, other: "OnlineThroughput") -> "OnlineThroughput":
        """Absorb another shard's grid counts (bit-exact)."""
        if other.interval != self.interval:
            raise ConfigurationError(
                "cannot merge OnlineThroughput with different intervals"
            )
        self._grid.merge(other._grid)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {"interval": self.interval, "grid": self._grid.state_dict()}

    @classmethod
    def from_state(cls, state: dict) -> "OnlineThroughput":
        """Rebuild the accumulator from a :meth:`state_dict` payload."""
        accumulator = cls(interval=state["interval"])
        accumulator._grid = GridCounts.from_state(state["grid"])
        return accumulator

    def series(self, horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """(bucket start times, float64 completions per interval)."""
        edges = time_edges(horizon, self.interval)
        return edges[:-1], self._grid.counts_on(edges).astype(np.float64)

    def cv(self, horizon: float) -> float:
        """Coefficient of variation of the per-interval counts (0 when idle)."""
        _, counts = self.series(horizon)
        mean = counts.mean() if counts.size else 0.0
        return float(counts.std() / mean) if mean > 0 else 0.0

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: times, counts, mean q/s, and CV."""
        times, counts = self.series(horizon)
        mean_throughput = self._grid.count / horizon if horizon > 0 else 0.0
        return {
            "interval": self.interval,
            "times": times.tolist(),
            "counts": counts.tolist(),
            "mean_throughput": mean_throughput,
            "cv": self.cv(horizon),
        }


class OnlineCumulativeCurve:
    """Fig 1b: the cumulative curve and its area vs. the ideal line.

    The per-edge cumulative counts are exact integers, so the curve (and
    the area integrated from it) is blind to how the run was blocked.
    """

    name = "adaptability"

    def __init__(
        self, resolution: float = 1.0, ideal_rate: Optional[float] = None
    ) -> None:
        """Sample the curve every ``resolution`` virtual seconds."""
        if resolution <= 0:
            raise ConfigurationError("resolution must be > 0")
        self.resolution = float(resolution)
        self.ideal_rate = ideal_rate
        self._grid = GridCounts(self.resolution)

    def fold(self, block) -> None:
        """Fold one completed block (uses its sorted completions)."""
        self._grid.fold_sorted(block.completions_sorted)

    def merge(self, other: "OnlineCumulativeCurve") -> "OnlineCumulativeCurve":
        """Absorb another shard's grid counts (bit-exact)."""
        if (
            other.resolution != self.resolution
            or other.ideal_rate != self.ideal_rate
        ):
            raise ConfigurationError(
                "cannot merge OnlineCumulativeCurve with different parameters"
            )
        self._grid.merge(other._grid)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {
            "resolution": self.resolution,
            "ideal_rate": self.ideal_rate,
            "grid": self._grid.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineCumulativeCurve":
        """Rebuild the accumulator from a :meth:`state_dict` payload."""
        accumulator = cls(
            resolution=state["resolution"], ideal_rate=state.get("ideal_rate")
        )
        accumulator._grid = GridCounts.from_state(state["grid"])
        return accumulator

    def curve(self, horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """(times, cumulative) — :func:`cumulative_curve`'s output."""
        times = time_edges(horizon, self.resolution)
        return times, self._grid.cumulative_on(times).astype(np.float64)

    def area(self, horizon: float) -> float:
        """:func:`area_vs_ideal`'s signed area, in query·seconds."""
        times, cum = self.curve(horizon)
        if times.size == 0 or cum[-1] == 0:
            return 0.0
        ideal_rate = self.ideal_rate
        if ideal_rate is None:
            ideal_rate = cum[-1] / times[-1] if times[-1] > 0 else 0.0
        ideal = np.minimum(ideal_rate * times, cum[-1])
        return float(np.trapezoid(ideal - cum, times))

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: the sampled curve and its area metric."""
        times, cum = self.curve(horizon)
        return {
            "resolution": self.resolution,
            "times": times.tolist(),
            "cumulative": cum.tolist(),
            "area_vs_ideal": self.area(horizon),
        }


def _padded(counts: np.ndarray, k: int, fill: int) -> np.ndarray:
    """``counts`` extended to ``k`` entries with ``fill`` (a copy)."""
    out = np.full(k, fill, dtype=np.int64)
    out[: counts.size] = counts
    return out


class OnlineRecovery:
    """:func:`recovery_time` for one change point.

    Maintains, for the pre-change window and every post-change window
    probe, the exact count of completions strictly below the probe time.
    Window probes are materialized lazily as completions advance — each
    new probe lies beyond every completion seen, so it starts at the
    current fold count — at ``change + window * k``, the same float
    expression as ``change + window * np.arange(n)``.
    """

    name = "recovery"

    def __init__(
        self,
        change_time: float,
        window: float = 5.0,
        recovery_fraction: float = 0.9,
    ) -> None:
        """Probe recovery after ``change_time`` in ``window`` strides."""
        if window <= 0:
            raise ConfigurationError("window must be > 0")
        self.change_time = float(change_time)
        self.window = float(window)
        self.recovery_fraction = float(recovery_fraction)
        self._lo_lt = 0  # completions < change - window
        self._hi_lt = 0  # completions < change
        # Per probe k: completions < change + w*k, and < (change + w*k) + w.
        self._starts_lt = np.zeros(0, dtype=np.int64)
        self._ends_lt = np.zeros(0, dtype=np.int64)
        self._n = 0
        self._max = -np.inf

    def _start_value(self, k: int) -> float:
        # Same double ops as element k of _starts(n).
        return self.change_time + self.window * float(k)

    def _starts(self, k: int) -> np.ndarray:
        """The first ``k`` probe times, ``change + window * np.arange(k)``."""
        return self.change_time + self.window * np.arange(k, dtype=np.float64)

    def fold(self, block) -> None:
        """Fold one completed block (uses its sorted completions)."""
        completions = block.completions_sorted
        if completions.size == 0:
            return
        bmax = float(completions[-1])
        # Materialize every window probe up to the block's max first:
        # each is strictly beyond all previously folded completions.
        k = self._starts_lt.size
        while self._start_value(k) <= bmax:
            k += 1
        self._starts_lt = _padded(self._starts_lt, k, self._n)
        self._ends_lt = _padded(self._ends_lt, k, self._n)
        self._lo_lt += int(
            np.searchsorted(
                completions, self.change_time - self.window, side="left"
            )
        )
        self._hi_lt += int(
            np.searchsorted(completions, self.change_time, side="left")
        )
        starts = self._starts(k)
        self._starts_lt += np.searchsorted(completions, starts, side="left")
        self._ends_lt += np.searchsorted(
            completions, starts + self.window, side="left"
        )
        self._n += int(completions.size)
        if bmax > self._max:
            self._max = bmax

    def merge(self, other: "OnlineRecovery") -> "OnlineRecovery":
        """Absorb another shard's window counters (bit-exact).

        A probe one side never materialized lies strictly beyond every
        completion that side folded, so its implicit counter is that
        side's total fold count — the same rule ``fold`` applies when it
        materializes a probe lazily.
        """
        if (
            other.change_time != self.change_time
            or other.window != self.window
            or other.recovery_fraction != self.recovery_fraction
        ):
            raise ConfigurationError(
                "cannot merge OnlineRecovery with different parameters"
            )
        k = max(self._starts_lt.size, other._starts_lt.size)
        self._starts_lt = _padded(self._starts_lt, k, self._n) + _padded(
            other._starts_lt, k, other._n
        )
        self._ends_lt = _padded(self._ends_lt, k, self._n) + _padded(
            other._ends_lt, k, other._n
        )
        self._lo_lt += other._lo_lt
        self._hi_lt += other._hi_lt
        self._n += other._n
        if other._max > self._max:
            self._max = other._max
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {
            "change_time": self.change_time,
            "window": self.window,
            "recovery_fraction": self.recovery_fraction,
            "lo_lt": self._lo_lt,
            "hi_lt": self._hi_lt,
            "starts_lt": self._starts_lt.tolist(),
            "ends_lt": self._ends_lt.tolist(),
            "count": self._n,
            "max_value": None if np.isinf(self._max) else float(self._max),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineRecovery":
        """Rebuild the accumulator from a :meth:`state_dict` payload."""
        accumulator = cls(
            state["change_time"],
            window=state["window"],
            recovery_fraction=state["recovery_fraction"],
        )
        accumulator._lo_lt = int(state["lo_lt"])
        accumulator._hi_lt = int(state["hi_lt"])
        accumulator._starts_lt = np.array(state["starts_lt"], dtype=np.int64)
        accumulator._ends_lt = np.array(state["ends_lt"], dtype=np.int64)
        accumulator._n = int(state["count"])
        max_value = state.get("max_value")
        accumulator._max = -np.inf if max_value is None else float(max_value)
        return accumulator

    def recovery_seconds(self, horizon: float) -> Optional[float]:
        """:func:`recovery_time`'s answer for the folded stream."""
        if self._n == 0:
            return None
        before = self._hi_lt - self._lo_lt
        if before == 0:
            return None
        target = self.recovery_fraction * before
        n_windows = (
            int(np.floor((horizon - self.change_time) / self.window)) + 1
        )
        if n_windows <= 0:
            return None
        # Probes never materialized lie beyond every completion: empty.
        counts = np.zeros(n_windows, dtype=np.int64)
        m = min(n_windows, self._starts_lt.size)
        counts[:m] = self._ends_lt[:m] - self._starts_lt[:m]
        recovered = counts >= target
        if not recovered.any():
            return None
        return self._start_value(int(np.argmax(recovered))) - self.change_time

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: the change point and its recovery time."""
        return {
            "change_time": self.change_time,
            "window": self.window,
            "recovery_fraction": self.recovery_fraction,
            "recovery_seconds": self.recovery_seconds(horizon),
        }
