"""The paper's new metrics (§V-D) plus the similarity machinery.

* :mod:`~repro.metrics.descriptive` — box-plot statistics (Fig 1a's
  per-distribution summaries).
* :mod:`~repro.metrics.similarity` — Φ estimators: Jaccard over plan
  subtrees, Kolmogorov–Smirnov, Maximum Mean Discrepancy.
* :mod:`~repro.metrics.specialization` — Fig 1a: throughput per
  workload/data distribution ordered by Φ.
* :mod:`~repro.metrics.adaptability` — Fig 1b: cumulative queries over
  time and area-difference single-value metrics.
* :mod:`~repro.metrics.sla` — Fig 1c: SLA violation bands and the
  adjustment-speed metric.
* :mod:`~repro.metrics.cost` — Fig 1d: training/execution cost breakdown,
  the DBA step function, and training-cost-to-outperform.
* :mod:`~repro.metrics.resilience` — Fig 1b/1c machinery applied to
  injected faults: per-fault recovery time, degraded-window SLA mass,
  area lost to faults.
"""

from typing import List, Optional

from repro.metrics.adaptability import (
    AdaptabilityReport,
    OnlineCumulativeCurve,
    OnlineRecovery,
    OnlineThroughput,
    adaptability_report,
    adaptability_vs_drift,
    area_between_systems,
    area_vs_ideal,
    cumulative_curve,
    latency_timeline,
    recovery_time,
)
from repro.metrics.cost import (
    CostBreakdown,
    DBAModel,
    TCOModel,
    cost_breakdown,
    training_cost_to_outperform,
)
from repro.metrics.descriptive import (
    BoxStats,
    OnlineLatencyStats,
    RunningStats,
    box_stats,
    percentile,
)
from repro.metrics.similarity import (
    data_phi,
    expected_spec_phi,
    jaccard_similarity,
    ks_statistic,
    mmd_rbf,
    op_mix_distance,
    realized_spec_phi,
    realized_stream_phi,
    scenario_phi,
    workload_phi,
)
from repro.metrics.sla import (
    LatencyBand,
    OnlineAdjustmentSpeed,
    OnlineLatencyBands,
    adjustment_speed,
    calibrate_sla,
    latency_bands,
    multi_latency_bands,
)
from repro.metrics.resilience import (
    FaultImpact,
    OnlineResilience,
    ResilienceReport,
    area_lost_to_faults,
    degraded_sla_mass,
    fault_recovery_times,
    resilience_report,
)
from repro.metrics.specialization import (
    OnlineSegmentStats,
    SegmentPerformance,
    SpecializationReport,
    drift_specialization_curve,
    specialization_report,
)


def streaming_accumulators(
    scenario,
    sla: Optional[float] = None,
    interval: float = 1.0,
    resolution: float = 1.0,
    change_time: Optional[float] = None,
    adjustment_queries: int = 1000,
    plan=None,
    window: float = 5.0,
    recovery_fraction: float = 0.9,
) -> List[object]:
    """The default accumulator set for a streaming run of ``scenario``.

    Always includes throughput, the Fig 1b cumulative curve, latency
    summary stats, and per-segment stats. A recovery probe (and, with an
    SLA, adjustment speed) is added at ``change_time`` — defaulting to
    the first segment boundary when the scenario has several segments.
    An SLA adds Fig 1c latency bands; a fault ``plan`` adds resilience.

    Args:
        scenario: The scenario the run executes.
        sla: SLA threshold in seconds (enables band + adjustment/mass
            accumulators).
        interval: Bucket width for throughput/band/segment grids.
        resolution: Sample spacing for the cumulative curve.
        change_time: Distribution-change instant for recovery and
            adjustment speed; ``None`` picks the first segment boundary
            (skipped entirely for single-segment scenarios).
        adjustment_queries: N for the adjustment-speed window.
        plan: Optional :class:`~repro.faults.FaultPlan` to score.
        window: Recovery-probe window width in seconds.
        recovery_fraction: Fraction of pre-change throughput that counts
            as recovered.
    """
    accumulators: List[object] = [
        OnlineThroughput(interval=interval),
        OnlineCumulativeCurve(resolution=resolution),
        OnlineLatencyStats(),
        OnlineSegmentStats(scenario, interval=interval),
    ]
    if change_time is None:
        boundaries = scenario.segment_boundaries()
        if len(boundaries) > 1:
            change_time = float(boundaries[1][1])
    if change_time is not None:
        accumulators.append(
            OnlineRecovery(
                change_time, window=window, recovery_fraction=recovery_fraction
            )
        )
    if sla is not None:
        accumulators.append(OnlineLatencyBands(sla, interval=interval))
        if change_time is not None:
            accumulators.append(
                OnlineAdjustmentSpeed(change_time, adjustment_queries, sla)
            )
    if plan is not None:
        accumulators.append(
            OnlineResilience(
                plan,
                sla=sla,
                window=window,
                recovery_fraction=recovery_fraction,
            )
        )
    return accumulators


#: Streaming accumulator classes keyed by their ``name`` attribute —
#: the registry :func:`accumulator_from_state` uses to rebuild merged
#: accumulators from shard wire payloads.
STREAMING_ACCUMULATOR_TYPES = {
    cls.name: cls
    for cls in (
        OnlineThroughput,
        OnlineCumulativeCurve,
        OnlineRecovery,
        OnlineLatencyStats,
        OnlineLatencyBands,
        OnlineAdjustmentSpeed,
        OnlineSegmentStats,
        OnlineResilience,
    )
}


def accumulator_from_state(name: str, state: dict) -> object:
    """Rebuild a streaming accumulator from a ``(name, state)`` pair.

    ``name`` is the accumulator's ``name`` attribute as carried in a
    shard payload; ``state`` is its ``state_dict()``. Raises
    :class:`~repro.errors.ConfigurationError` for unregistered names
    (custom accumulators must be reconstructed by their own factory).
    """
    from repro.errors import ConfigurationError

    cls = STREAMING_ACCUMULATOR_TYPES.get(name)
    if cls is None:
        raise ConfigurationError(f"unknown streaming accumulator {name!r}")
    return cls.from_state(state)


__all__ = [
    "STREAMING_ACCUMULATOR_TYPES",
    "accumulator_from_state",
    "BoxStats",
    "RunningStats",
    "box_stats",
    "percentile",
    "OnlineThroughput",
    "OnlineCumulativeCurve",
    "OnlineRecovery",
    "OnlineLatencyStats",
    "OnlineLatencyBands",
    "OnlineAdjustmentSpeed",
    "OnlineSegmentStats",
    "OnlineResilience",
    "streaming_accumulators",
    "jaccard_similarity",
    "ks_statistic",
    "mmd_rbf",
    "workload_phi",
    "data_phi",
    "op_mix_distance",
    "expected_spec_phi",
    "realized_stream_phi",
    "realized_spec_phi",
    "scenario_phi",
    "SegmentPerformance",
    "SpecializationReport",
    "specialization_report",
    "drift_specialization_curve",
    "AdaptabilityReport",
    "adaptability_report",
    "adaptability_vs_drift",
    "cumulative_curve",
    "area_vs_ideal",
    "area_between_systems",
    "latency_timeline",
    "recovery_time",
    "LatencyBand",
    "calibrate_sla",
    "latency_bands",
    "multi_latency_bands",
    "adjustment_speed",
    "CostBreakdown",
    "DBAModel",
    "TCOModel",
    "cost_breakdown",
    "training_cost_to_outperform",
    "FaultImpact",
    "ResilienceReport",
    "fault_recovery_times",
    "degraded_sla_mass",
    "area_lost_to_faults",
    "resilience_report",
]
