"""Resilience metrics: scoring runs under injected faults.

The paper's dynamic metric families (Fig 1b's area differences, Fig 1c's
SLA bands) quantify behavior around *distribution* changes; these
kernels apply the same machinery to the *environmental* changes injected
by a :class:`~repro.faults.FaultPlan`:

* :func:`fault_recovery_times` — Fig 1b recovery time measured at each
  fault's onset instead of a segment boundary.
* :func:`degraded_sla_mass` — Fig 1c's adjustment-speed idea restricted
  to queries that arrived inside a fault's degraded window: the total
  over-SLA latency attributable to faults.
* :func:`area_lost_to_faults` — Fig 1b's area-between-systems applied
  to a faulted run vs. its fault-free twin (same scenario, seed, and
  driver config, no plan): query·seconds of progress the faults cost.

Recovery times and degraded mass fold the run, as one block, through
:class:`OnlineResilience`; the area reuses ``area_between_systems``. So
resilience numbers are directly comparable with adaptability's.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.results import RunResult
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.metrics.adaptability import OnlineRecovery, area_between_systems

__all__ = [
    "FaultImpact",
    "OnlineResilience",
    "ResilienceReport",
    "fault_recovery_times",
    "degraded_sla_mass",
    "area_lost_to_faults",
    "resilience_report",
]


@dataclass(frozen=True)
class FaultImpact:
    """Recovery scoring for one injected fault.

    Attributes:
        kind: Fault kind ("latency", "degradation", "stall", "crash").
        at: Fault onset in virtual seconds.
        recovery_seconds: Throughput recovery time after the onset
            (:func:`repro.metrics.adaptability.recovery_time` semantics),
            or ``None`` when the run ended before recovering or the
            pre-fault window was idle.
    """

    kind: str
    at: float
    recovery_seconds: Optional[float]


@dataclass(frozen=True)
class ResilienceReport:
    """Single-value resilience summary for one faulted run.

    Attributes:
        sut_name: The run's SUT.
        impacts: Per-fault recovery scoring, in onset order.
        degraded_sla_mass: Over-SLA latency seconds of queries arriving
            in degraded windows (``None`` when no SLA was supplied).
        area_lost: Query·seconds lost vs. the fault-free twin run
            (``None`` when no baseline was supplied).
    """

    sut_name: str
    impacts: Tuple[FaultImpact, ...]
    degraded_sla_mass: Optional[float]
    area_lost: Optional[float]

    @property
    def recovered_faults(self) -> int:
        """Faults the system recovered from before the run ended."""
        return sum(1 for i in self.impacts if i.recovery_seconds is not None)

    @property
    def worst_recovery_seconds(self) -> Optional[float]:
        """Slowest measured recovery (``None`` if nothing recovered)."""
        measured = [
            i.recovery_seconds
            for i in self.impacts
            if i.recovery_seconds is not None
        ]
        return max(measured) if measured else None


def _plan_for(result: RunResult, plan: Optional[FaultPlan]) -> FaultPlan:
    """Resolve the fault plan: explicit, or from the run's own record."""
    if plan is not None:
        return plan
    described = (result.scenario_description or {}).get("faults")
    if not described:
        raise ConfigurationError(
            "run records no fault plan; pass one explicitly via plan="
        )
    return FaultPlan.from_dict(described)


def fault_recovery_times(
    result: RunResult,
    plan: Optional[FaultPlan] = None,
    window: float = 5.0,
    recovery_fraction: float = 0.9,
) -> List[FaultImpact]:
    """Throughput recovery time at each fault onset.

    Applies :func:`repro.metrics.adaptability.recovery_time` at every
    fault's onset time (window fault start / point fault firing time),
    so a fault the system shrugged off scores near zero and an outage
    with a long queue drain scores its true recovery span.

    Args:
        plan: The injected plan; defaults to the one recorded in the
            run's scenario description.
        window: Throughput comparison window (seconds).
        recovery_fraction: Fraction of pre-fault throughput that counts
            as recovered.
    """
    resilience = OnlineResilience(
        _plan_for(result, plan), window=window, recovery_fraction=recovery_fraction
    )
    result.fold(resilience)
    return resilience.impacts(result.horizon)


def degraded_sla_mass(
    result: RunResult,
    sla: float,
    plan: Optional[FaultPlan] = None,
) -> float:
    """Total over-SLA latency of queries arriving in degraded windows.

    A query is attributed to a fault when its *arrival* falls in the
    fault's degraded interval (window faults: ``[start, end)``; stalls:
    ``[at, at + duration)``; crashes: ``[at, at + recovery_seconds)``).
    The mass is the sum of ``max(0, latency - sla)`` over attributed
    queries — the same units as Fig 1c's adjustment speed, so the two
    can be compared side by side. Overlapping windows count each query
    once. Units: seconds.
    """
    if sla <= 0:
        raise ConfigurationError("sla must be > 0")
    resilience = OnlineResilience(_plan_for(result, plan), sla=sla)
    result.fold(resilience)
    return resilience.degraded_mass()


def area_lost_to_faults(faulted: RunResult, baseline: RunResult) -> float:
    """Query·seconds of progress lost to faults vs. the fault-free twin.

    ``baseline`` must be the same (SUT, scenario, seed, driver config)
    run without the fault plan; the drivers' determinism guarantees the
    two runs differ only by the injected faults, so the exact
    area-between-curves (baseline minus faulted) is entirely
    fault-attributable. Positive = the faults cost progress.
    """
    return area_between_systems(baseline, faulted)


def resilience_report(
    result: RunResult,
    plan: Optional[FaultPlan] = None,
    sla: Optional[float] = None,
    baseline: Optional[RunResult] = None,
    window: float = 5.0,
    recovery_fraction: float = 0.9,
) -> ResilienceReport:
    """Compute the full resilience summary for one faulted run.

    Args:
        plan: Injected plan (default: recorded in the run).
        sla: SLA threshold for :func:`degraded_sla_mass` (skipped when
            ``None``; calibrate with
            :func:`repro.metrics.sla.calibrate_sla` on a fault-free
            baseline).
        baseline: Fault-free twin run for :func:`area_lost_to_faults`
            (skipped when ``None``).
    """
    resilience = OnlineResilience(
        _plan_for(result, plan),
        sla=sla,
        window=window,
        recovery_fraction=recovery_fraction,
    )
    result.fold(resilience)
    report = resilience.report(result.horizon, result.sut_name)
    if baseline is None:
        return report
    return dataclasses.replace(
        report, area_lost=area_lost_to_faults(result, baseline)
    )


# -- online accumulator: the one definition of the fault metrics ---------------------


class OnlineResilience:
    """:func:`fault_recovery_times` + :func:`degraded_sla_mass`.

    One :class:`~repro.metrics.adaptability.OnlineRecovery` per degraded
    window onset plus, when an SLA is supplied, per-block over-SLA
    partial sums over queries arriving in degraded windows, combined
    with ``math.fsum``: with one partial (the whole run as one block)
    that is the pairwise ``np.sum`` bit for bit; across several it
    agrees to float tolerance (see DESIGN.md §9).
    ``area_lost_to_faults`` needs a second full run, so it has no
    accumulator.
    """

    name = "resilience"

    def __init__(
        self,
        plan: FaultPlan,
        sla: Optional[float] = None,
        window: float = 5.0,
        recovery_fraction: float = 0.9,
    ) -> None:
        """Track every degraded window of ``plan`` (SLA optional)."""
        if sla is not None and sla <= 0:
            raise ConfigurationError("sla must be > 0")
        self.sla = float(sla) if sla is not None else None
        self.window = float(window)
        self.recovery_fraction = float(recovery_fraction)
        self.windows: List[Tuple[float, float, str]] = list(
            plan.degraded_windows()
        )
        self._recoveries = [
            OnlineRecovery(start, window=window, recovery_fraction=recovery_fraction)
            for start, _end, _kind in self.windows
        ]
        self._mass_parts: List[float] = []

    def fold(self, block) -> None:
        """Fold one completed block into every fault's counters."""
        for recovery in self._recoveries:
            recovery.fold(block)
        if self.sla is None or not self.windows:
            return
        arrivals = block.arrivals
        mask = np.zeros(arrivals.size, dtype=bool)
        for start, end, _kind in self.windows:
            mask |= (arrivals >= start) & (arrivals < end)
        if mask.any():
            over = np.maximum(0.0, block.latencies[mask] - self.sla)
            self._mass_parts.append(float(np.sum(over)))

    def merge(self, other: "OnlineResilience") -> "OnlineResilience":
        """Absorb another shard's fault counters.

        Recovery window counts merge bit-exactly; the over-SLA mass
        partials concatenate in stream order (merge shards in order),
        matching the unsharded ``fsum`` bit-for-bit when shard
        boundaries coincide with block boundaries.
        """
        if (
            other.sla != self.sla
            or other.window != self.window
            or other.recovery_fraction != self.recovery_fraction
            or other.windows != self.windows
        ):
            raise ConfigurationError(
                "cannot merge OnlineResilience with different parameters"
            )
        for mine, theirs in zip(self._recoveries, other._recoveries):
            mine.merge(theirs)
        self._mass_parts.extend(other._mass_parts)
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot (see :meth:`from_state`)."""
        return {
            "sla": self.sla,
            "window": self.window,
            "recovery_fraction": self.recovery_fraction,
            "windows": [list(w) for w in self.windows],
            "recoveries": [r.state_dict() for r in self._recoveries],
            "mass_parts": list(self._mass_parts),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineResilience":
        """Rebuild the accumulator from a :meth:`state_dict` payload.

        Bypasses ``__init__`` (which wants a live fault plan): the
        stored degraded windows carry everything the accumulator needs.
        """
        accumulator = cls.__new__(cls)
        accumulator.sla = (
            float(state["sla"]) if state.get("sla") is not None else None
        )
        accumulator.window = float(state["window"])
        accumulator.recovery_fraction = float(state["recovery_fraction"])
        accumulator.windows = [
            (float(start), float(end), str(kind))
            for start, end, kind in state["windows"]
        ]
        accumulator._recoveries = [
            OnlineRecovery.from_state(r) for r in state["recoveries"]
        ]
        accumulator._mass_parts = [float(p) for p in state["mass_parts"]]
        return accumulator

    def impacts(self, horizon: float) -> List[FaultImpact]:
        """:func:`fault_recovery_times`'s rows for the folded stream."""
        return [
            FaultImpact(
                kind=kind,
                at=start,
                recovery_seconds=recovery.recovery_seconds(horizon),
            )
            for (start, _end, kind), recovery in zip(
                self.windows, self._recoveries
            )
        ]

    def degraded_mass(self) -> Optional[float]:
        """Over-SLA mass in degraded windows (``None`` without an SLA)."""
        if self.sla is None:
            return None
        return math.fsum(self._mass_parts)

    def report(self, horizon: float, sut_name: str) -> ResilienceReport:
        """:func:`resilience_report`'s summary (minus ``area_lost``)."""
        return ResilienceReport(
            sut_name=sut_name,
            impacts=tuple(self.impacts(horizon)),
            degraded_sla_mass=self.degraded_mass(),
            area_lost=None,
        )

    def finalize(self, horizon: float) -> dict:
        """JSON-ready payload: per-fault impacts and the SLA mass."""
        return {
            "sla": self.sla,
            "window": self.window,
            "recovery_fraction": self.recovery_fraction,
            "impacts": [
                {
                    "kind": impact.kind,
                    "at": impact.at,
                    "recovery_seconds": impact.recovery_seconds,
                }
                for impact in self.impacts(horizon)
            ],
            "degraded_sla_mass": self.degraded_mass(),
        }
