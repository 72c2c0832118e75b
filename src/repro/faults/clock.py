"""The :class:`FaultClock`: applies a :class:`FaultPlan` inside drivers.

The clock is a thin, stateless applicator. Window faults become
elementwise mask operations over service-time arrays; point faults are
exposed as a sorted query interface the driver merges into its tick
stream. Keeping the clock free of driver state is what keeps the
batched driver bit-identical to the scalar oracle in ``tests/``: both
call the same :meth:`FaultClock.perturb_batch` kernel (the oracle on
length-1 arrays), so every arithmetic operation is the same IEEE-754
sequence at any slicing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.faults.plan import FaultPlan, LatencyFault, PointFault, WindowFault

__all__ = ["FaultClock"]


class FaultClock:
    """Applies one scenario's :class:`FaultPlan` to driver time.

    Service-time perturbation is keyed on *arrival* time (the query
    experienced the fault because it arrived while the fault was
    active), which is well-defined before queueing begins and therefore
    identical no matter how the driver batches execution.
    """

    def __init__(self, plan: FaultPlan):
        """Precompute window/point views of ``plan`` for fast lookup."""
        self._plan = plan
        self._windows: Tuple[WindowFault, ...] = plan.window_faults
        self._points: Tuple[PointFault, ...] = plan.point_faults
        self._point_times = np.array([f.at for f in self._points], dtype=np.float64)

    @property
    def plan(self) -> FaultPlan:
        """The underlying plan (for description/serialization)."""
        return self._plan

    @property
    def has_window_faults(self) -> bool:
        """True when at least one window fault could perturb services."""
        return bool(self._windows)

    @property
    def has_point_faults(self) -> bool:
        """True when at least one stall/crash is scheduled."""
        return bool(self._points)

    def perturb_batch(
        self, services: np.ndarray, arrivals: np.ndarray
    ) -> np.ndarray:
        """Perturb ``services`` in place for queries arriving in fault windows.

        Window faults apply in plan order (a latency multiplier listed
        before a degradation surcharge multiplies first), so overlapping
        windows compose deterministically. Returns ``services``.
        """
        for fault in self._windows:
            mask = (arrivals >= fault.start) & (arrivals < fault.end)
            if not mask.any():
                continue
            if isinstance(fault, LatencyFault):
                services[mask] *= fault.multiplier
            else:
                services[mask] += fault.added_seconds
        return services

    def point_faults_in(self, lo: float, hi: float) -> List[PointFault]:
        """Point faults firing in ``[lo, hi)``, sorted by time."""
        if not self._points:
            return []
        start = int(np.searchsorted(self._point_times, lo, side="left"))
        end = int(np.searchsorted(self._point_times, hi, side="left"))
        return list(self._points[start:end])
