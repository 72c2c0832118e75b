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
    ADJUSTMENT_QUERIES,
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
    plan=None,
) -> List[object]:
    """The default accumulator set for a streaming run of ``scenario``.

    Always includes throughput, the Fig 1b cumulative curve, latency
    summary stats, and per-segment stats, each at its constructor's
    default grid (1 s buckets and samples). A scenario with several
    segments adds a recovery probe at the first segment boundary (5 s
    window, 90 % of pre-change throughput) and, with an SLA, adjustment
    speed over the ``ADJUSTMENT_QUERIES`` (1,000) queries after it. An
    SLA adds Fig 1c latency bands; a fault ``plan`` adds resilience. A
    run that needs other settings passes its own accumulators.

    Args:
        scenario: The scenario the run executes.
        sla: SLA threshold in seconds (enables band + adjustment/mass
            accumulators).
        plan: Optional :class:`~repro.faults.FaultPlan` to score.
    """
    accumulators: List[object] = [
        OnlineThroughput(),
        OnlineCumulativeCurve(),
        OnlineLatencyStats(),
        OnlineSegmentStats(scenario),
    ]
    boundaries = scenario.segment_boundaries()
    change_time = float(boundaries[1][1]) if len(boundaries) > 1 else None
    if change_time is not None:
        accumulators.append(OnlineRecovery(change_time))
    if sla is not None:
        accumulators.append(OnlineLatencyBands(sla))
        if change_time is not None:
            accumulators.append(OnlineAdjustmentSpeed(change_time, ADJUSTMENT_QUERIES, sla))
    if plan is not None:
        accumulators.append(OnlineResilience(plan, sla=sla))
    return accumulators


__all__ = [
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
