"""Full benchmark reports.

:func:`build_report` assembles everything the paper says a learned-system
benchmark should output for a scenario run — specialization breakdown,
adaptability summary, SLA bands, and the cost decomposition — into one
:class:`BenchmarkReport` that renders as text or exports as a dict. It
folds the run once, as one block, through every online accumulator the
report reads — the same fold the streaming path runs block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.results import RunResult
from repro.core.scenario import Scenario
from repro.metrics.adaptability import (
    AdaptabilityReport,
    _adaptability_accumulators,
    _adaptability_from,
)
from repro.metrics.cost import CostBreakdown, cost_breakdown
from repro.metrics.descriptive import box_stats
from repro.metrics.sla import (
    ADJUSTMENT_QUERIES,
    LatencyBand,
    OnlineAdjustmentSpeed,
    OnlineLatencyBands,
)
from repro.metrics.specialization import (
    OnlineSegmentStats,
    SpecializationReport,
    _specialization_from,
)
from repro.reporting.figures import render_fig1a, sparkline


@dataclass
class BenchmarkReport:
    """Everything the benchmark reports about one run.

    Attributes:
        result: The underlying run record.
        specialization: Fig 1a data.
        adaptability: Fig 1b summary.
        bands: Fig 1c bands (present when an SLA was supplied).
        sla: The SLA threshold used for the bands.
        adjustment: Fig 1c's single-value adjustment-speed metric.
        cost: Fig 1d's per-run cost decomposition.
        phase_seconds: Per-phase wall-time totals from the run's trace
            (present when the run was traced; see
            :meth:`repro.observability.Trace.phase_seconds`).
    """

    result: RunResult
    specialization: SpecializationReport
    adaptability: AdaptabilityReport
    bands: Optional[List[LatencyBand]]
    sla: Optional[float]
    adjustment: Optional[float]
    cost: CostBreakdown
    phase_seconds: Optional[Dict[str, float]] = None

    def to_dict(self) -> dict:
        """JSON-friendly summary (excludes raw query log)."""
        return {
            "sut": self.result.sut_name,
            "scenario": self.result.scenario_name,
            "queries": self.result.num_queries,
            "mean_throughput": self.result.mean_throughput(),
            "specialization": self.specialization.rows(),
            "adaptability": {
                "area_vs_ideal": self.adaptability.area_vs_ideal,
                "recovery_seconds": self.adaptability.recovery_seconds,
                "throughput_cv": self.adaptability.throughput_cv,
            },
            "sla": self.sla,
            "adjustment_speed": self.adjustment,
            "cost": {
                "training": self.cost.training_cost,
                "execution": self.cost.execution_cost,
                "per_kquery": self.cost.cost_per_kquery,
            },
            "training_events": len(self.result.training_events),
            "phase_seconds": self.phase_seconds,
        }

    def render(self) -> str:
        """Human-readable report block."""
        latencies = self.result.latencies()
        lat_stats = box_stats(latencies) if latencies.size else None
        lines = [
            f"=== {self.result.sut_name} on {self.result.scenario_name} ===",
            f"queries={self.result.num_queries}  "
            f"mean throughput={self.result.mean_throughput():.1f} q/s  "
            f"training events={len(self.result.training_events)}",
        ]
        if lat_stats:
            lines.append(
                f"latency p50={lat_stats.median*1000:.2f}ms "
                f"q3={lat_stats.q3*1000:.2f}ms max={lat_stats.maximum*1000:.2f}ms"
            )
        lines.append(render_fig1a([self.specialization]))
        lines.append(
            f"adaptability: area-vs-ideal={self.adaptability.area_vs_ideal:,.0f} q·s  "
            f"recovery={self.adaptability.recovery_seconds}  "
            f"throughput CV={self.adaptability.throughput_cv:.3f}"
        )
        if self.bands is not None and self.sla is not None:
            violations = sum(b.violated for b in self.bands)
            lines.append(
                f"SLA({self.sla*1000:.2f}ms): {violations} violations; "
                f"adjustment-speed={self.adjustment}"
            )
            lines.append(f"  viol {sparkline([b.violated for b in self.bands])}")
        lines.append(
            f"cost: training=${self.cost.training_cost:.4f} "
            f"execution=${self.cost.execution_cost:.4f} "
            f"(${self.cost.cost_per_kquery:.5f}/kquery)"
        )
        if self.phase_seconds is not None:
            parts = "  ".join(
                f"{phase}={seconds:.4f}s"
                for phase, seconds in self.phase_seconds.items()
            )
            lines.append(f"phases (wall): {parts}")
        _, counts = self.result.throughput_series()
        lines.append(f"  tp   {sparkline(counts)}")
        return "\n".join(lines)


def build_report(
    result: RunResult,
    scenario: Scenario,
    sla: Optional[float] = None,
    trace=None,
) -> BenchmarkReport:
    """Assemble the full report for one run.

    Args:
        result: The run record.
        scenario: The scenario that produced it.
        sla: SLA threshold for the Fig 1c bands (1 s wide) and the
            adjustment speed over ``ADJUSTMENT_QUERIES`` arrivals (None
            skips both).
        trace: Optional :class:`~repro.observability.Trace` from the run;
            folds its per-phase wall-time totals into the report.
    """
    segments = OnlineSegmentStats(scenario)
    adaptability = _adaptability_accumulators(result, None, 1.0)
    bands = adjustment = None
    if sla is not None:
        bands = OnlineLatencyBands(sla)
        if len(result.segments) > 1:
            change = result.segments[0][2]
            adjustment = OnlineAdjustmentSpeed(change, ADJUSTMENT_QUERIES, sla)
    result.fold(segments, *adaptability, bands, adjustment)
    return BenchmarkReport(
        result=result,
        specialization=_specialization_from(result, scenario, segments),
        adaptability=_adaptability_from(result, *adaptability),
        bands=bands.bands(result.horizon) if bands is not None else None,
        sla=sla,
        adjustment=adjustment.value() if adjustment is not None else None,
        cost=cost_breakdown(result),
        phase_seconds=trace.phase_seconds() if trace is not None else None,
    )
