"""Specialization metrics — Fig 1a.

For each scenario segment (one workload/data distribution), compute the
distribution of per-interval throughput (box stats, not just the mean)
and the segment's Φ distance from a baseline segment. Sorting segments
by Φ yields exactly the plot of Fig 1a: throughput box plots against
distribution distance, with hold-out segments markable for out-of-sample
comparison.

The per-segment numbers are defined once, by :class:`OnlineSegmentStats`;
the batch reports fold the run through it as one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.results import RunResult
from repro.core.scenario import Scenario
from repro.errors import ConfigurationError
from repro.metrics._buckets import GridCounts, span_edges
from repro.metrics.descriptive import BoxStats, box_stats
from repro.metrics.similarity import data_phi, scenario_phi, workload_phi


@dataclass(frozen=True)
class SegmentPerformance:
    """Fig 1a ingredients for one segment.

    Attributes:
        label: Segment label.
        phi: Distance from the baseline segment (0 = the baseline).
        phi_workload: Structural workload distance (1 - Jaccard).
        phi_data: Data-distribution distance (KS).
        throughput: Box stats of per-interval completed-query counts.
        mean_latency: Mean query latency in the segment.
        holdout: Whether the segment is marked as a hold-out.
    """

    label: str
    phi: float
    phi_workload: float
    phi_data: float
    throughput: BoxStats
    mean_latency: float
    holdout: bool = False


@dataclass
class SpecializationReport:
    """All segments of a run, sorted by Φ ascending."""

    sut_name: str
    baseline_label: str
    segments: List[SegmentPerformance]

    def rows(self) -> List[dict]:
        """Flat rows for CSV/printing (sorted by Φ)."""
        out = []
        for seg in self.segments:
            row = {
                "segment": seg.label,
                "phi": round(seg.phi, 4),
                "phi_workload": round(seg.phi_workload, 4),
                "phi_data": round(seg.phi_data, 4),
                "holdout": seg.holdout,
                "mean_latency": seg.mean_latency,
            }
            row.update(
                {f"tp_{k}": v for k, v in seg.throughput.row().items()}
            )
            out.append(row)
        return out


def _segment_table(scenario: Scenario) -> Dict[str, tuple]:
    """``label -> (segment, lo, hi)`` (duplicate labels: last wins)."""
    by_label: Dict[str, tuple] = {}
    for segment, (label, lo, hi) in zip(
        scenario.segments, scenario.segment_boundaries()
    ):
        by_label[label] = (segment, lo, hi)
    return by_label


def specialization_report(
    result: RunResult,
    scenario: Scenario,
    interval: float = 1.0,
    baseline_label: Optional[str] = None,
    phi_sample_size: int = 2000,
    holdout_labels: Tuple[str, ...] = (),
    phi_seed: int = 0,
) -> SpecializationReport:
    """Build the Fig 1a report for one run.

    Φ per segment combines the workload-structure distance (1 - Jaccard
    over spec signatures) and the data distance (KS between key samples
    drawn at each segment's midpoint), averaged — the paper only needs Φ
    to *order* the segments.

    Args:
        result: The run to analyze.
        scenario: The scenario that produced it (provides the specs the
            Φ estimators need).
        interval: Throughput bucketing interval (virtual seconds).
        baseline_label: Baseline segment (default: the first).
        phi_sample_size: Keys sampled per segment for the KS distance.
        holdout_labels: Segments to mark as hold-outs in the report.
        phi_seed: Sampling seed for Φ estimation.
    """
    stats = OnlineSegmentStats(scenario, interval)
    result.fold(stats)
    return _specialization_from(
        result, scenario, stats, baseline_label, phi_sample_size,
        holdout_labels, phi_seed,
    )


def _specialization_from(
    result: RunResult,
    scenario: Scenario,
    stats: "OnlineSegmentStats",
    baseline_label: Optional[str] = None,
    phi_sample_size: int = 2000,
    holdout_labels: Tuple[str, ...] = (),
    phi_seed: int = 0,
) -> SpecializationReport:
    """Read the Fig 1a report back from folded segment stats."""
    by_label = _segment_table(scenario)
    if baseline_label is None:
        baseline_label = scenario.segments[0].label
    if baseline_label not in by_label:
        raise ConfigurationError(f"unknown baseline segment {baseline_label!r}")

    rows: List[SegmentPerformance] = []
    rng = np.random.default_rng(phi_seed)
    base_segment, base_lo, base_hi = by_label[baseline_label]
    base_mid = (base_lo + base_hi) / 2.0
    base_sample = base_segment.spec.key_drift.at(base_mid - base_lo).sample(
        rng, phi_sample_size
    )
    for label, (segment, lo, hi) in by_label.items():
        mid_local = (hi - lo) / 2.0
        sample = segment.spec.key_drift.at(mid_local).sample(rng, phi_sample_size)
        phi_w = workload_phi(base_segment.spec, segment.spec, at_time=mid_local)
        phi_d = data_phi(base_sample, sample, method="ks")
        i = stats.index(label)
        rows.append(
            SegmentPerformance(
                label=label,
                phi=(phi_w + phi_d) / 2.0,
                phi_workload=phi_w,
                phi_data=phi_d,
                throughput=stats.throughput_box(i),
                mean_latency=stats.mean_latency(i),
                holdout=label in holdout_labels,
            )
        )
    rows.sort(key=lambda s: s.phi)
    return SpecializationReport(
        sut_name=result.sut_name, baseline_label=baseline_label, segments=rows
    )


def drift_specialization_curve(
    runs,
    segment_label: str = "drifted",
    interval: float = 1.0,
    phi_probe_size: int = 4096,
) -> List[dict]:
    """Fig-1a-style curve of performance against the drift factor.

    Each entry of ``runs`` is a ``(scenario, result)`` pair from one
    point of a :func:`repro.scenarios.drift_axis` sweep (the scenario
    must carry ``drift_factor``). For each point the row reports the
    *computed* Φ between the scenario's base and drifted segments
    (:func:`~repro.metrics.similarity.scenario_phi` over realized probe
    streams) plus the drifted segment's throughput box stats and mean
    latency — the drift-axis analogue of :func:`specialization_report`'s
    per-segment rows, sorted by drift factor ascending.
    """
    if interval <= 0:
        raise ConfigurationError("interval must be > 0")
    rows: List[dict] = []
    for scenario, result in runs:
        if scenario.drift_factor is None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} carries no drift_factor; "
                "build sweep points with repro.scenarios.drift_axis"
            )
        if segment_label not in _segment_table(scenario):
            raise ConfigurationError(
                f"scenario {scenario.name!r} has no segment {segment_label!r}"
            )
        stats = OnlineSegmentStats(scenario, interval)
        result.fold(stats)
        i = stats.index(segment_label)
        phi = scenario_phi(scenario, n=phi_probe_size)
        row = {
            "drift_factor": scenario.drift_factor,
            "phi": phi["phi"],
            "phi_data": phi["phi_data"],
            "phi_workload": phi["phi_workload"],
            "mean_latency": stats.mean_latency(i),
        }
        row.update({f"tp_{k}": v for k, v in stats.throughput_box(i).row().items()})
        rows.append(row)
    rows.sort(key=lambda r: r["drift_factor"])
    return rows


# -- online accumulator: the one definition of the per-segment numbers ---------------


class OnlineSegmentStats:
    """Per-segment throughput rates and mean latency (Fig 1a's rows).

    One :class:`~repro.metrics._buckets.GridCounts` per scenario segment,
    anchored at the segment's start edge, fed the block completions that
    land inside ``[lo, hi)``; :meth:`throughputs` reads back the
    per-interval rates from its exact counts. Per-segment mean latency
    sums ``np.sum`` partials with ``math.fsum``: with one partial (the
    whole run as one block, or a segment inside one streamed block) that
    is ``np.mean`` bit for bit; across several it agrees to float
    tolerance (the summation trees differ — see DESIGN.md §9).
    """

    name = "segments"

    def __init__(self, scenario: Scenario, interval: float = 1.0) -> None:
        """Build one grid per segment of ``scenario``."""
        if interval <= 0:
            raise ConfigurationError("interval must be > 0")
        self.interval = float(interval)
        self.boundaries: List[Tuple[str, float, float]] = list(
            scenario.segment_boundaries()
        )
        self._grids = [
            GridCounts(self.interval, start=lo) for _, lo, _ in self.boundaries
        ]
        self._latency_parts: List[List[float]] = [[] for _ in self.boundaries]
        self._latency_counts: List[int] = [0 for _ in self.boundaries]

    def fold(self, block) -> None:
        """Fold one completed block into every segment's counters."""
        completions = block.completions_sorted
        for i, (_label, lo, hi) in enumerate(self.boundaries):
            first, last = np.searchsorted(completions, (lo, hi), side="left")
            if last > first:
                self._grids[i].fold_sorted(completions[first:last])
            in_segment = (block.arrivals >= lo) & (block.arrivals < hi)
            hits = int(np.count_nonzero(in_segment))
            if hits:
                self._latency_parts[i].append(
                    float(np.sum(block.latencies[in_segment]))
                )
                self._latency_counts[i] += hits

    def merge(self, other: "OnlineSegmentStats") -> "OnlineSegmentStats":
        """Absorb another shard's per-segment counters.

        Shards must merge in stream order so the ``fsum`` partial lists
        concatenate in the order a sequential fold would have appended
        them. Grid counts stay bit-exact; mean latency matches the
        unsharded fold bit-for-bit when shard boundaries coincide with
        block boundaries, to float tolerance otherwise.
        """
        if (
            other.interval != self.interval
            or other.boundaries != self.boundaries
        ):
            raise ConfigurationError(
                "cannot merge OnlineSegmentStats with different parameters"
            )
        for mine, theirs in zip(self._grids, other._grids):
            mine.merge(theirs)
        for i, parts in enumerate(other._latency_parts):
            self._latency_parts[i].extend(parts)
            self._latency_counts[i] += other._latency_counts[i]
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {
            "interval": self.interval,
            "boundaries": [list(b) for b in self.boundaries],
            "grids": [grid.state_dict() for grid in self._grids],
            "latency_parts": [list(parts) for parts in self._latency_parts],
            "latency_counts": list(self._latency_counts),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineSegmentStats":
        """Rebuild the accumulator from a :meth:`state_dict` payload.

        Bypasses ``__init__`` (which wants a live scenario): the stored
        boundaries carry everything the accumulator needs.
        """
        accumulator = cls.__new__(cls)
        accumulator.interval = float(state["interval"])
        accumulator.boundaries = [
            (str(label), float(lo), float(hi))
            for label, lo, hi in state["boundaries"]
        ]
        accumulator._grids = [
            GridCounts.from_state(g) for g in state["grids"]
        ]
        accumulator._latency_parts = [
            [float(p) for p in parts] for parts in state["latency_parts"]
        ]
        accumulator._latency_counts = [
            int(c) for c in state["latency_counts"]
        ]
        return accumulator

    def index(self, label: str) -> int:
        """Index of the last segment labelled ``label`` (later ones win)."""
        return max(i for i, (name, _, _) in enumerate(self.boundaries) if name == label)

    def throughputs(self, index: int) -> np.ndarray:
        """Per-interval completion rates of segment ``index``."""
        _label, lo, hi = self.boundaries[index]
        edges = span_edges(lo, hi, self.interval)
        if edges.size < 2:
            return np.zeros(0)
        return self._grids[index].counts_on(edges) / self.interval

    def throughput_box(self, index: int) -> BoxStats:
        """Box stats of segment ``index``'s rates (one zero when it has none)."""
        throughputs = self.throughputs(index)
        return box_stats(throughputs if throughputs.size else np.zeros(1))

    def mean_latency(self, index: int) -> float:
        """Mean latency of queries arriving in segment ``index``."""
        n = self._latency_counts[index]
        return math.fsum(self._latency_parts[index]) / n if n else 0.0

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: per-segment throughput box rows."""
        return {
            "interval": self.interval,
            "segments": [
                {
                    "label": label,
                    "start": lo,
                    "end": hi,
                    "mean_latency": self.mean_latency(i),
                    "throughput": self.throughput_box(i).row(),
                }
                for i, (label, lo, hi) in enumerate(self.boundaries)
            ],
        }
