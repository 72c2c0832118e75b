"""Fault types and the :class:`FaultPlan` schedule.

Two families of faults exist, distinguished by how the driver applies
them:

* **Window faults** (:class:`LatencyFault`, :class:`DegradationFault`)
  cover a half-open virtual-time interval ``[start, end)`` and perturb
  the service time of every query *arriving* inside the window. They
  are applied as elementwise array operations, so the scalar and
  batched driver paths produce bit-identical results.
* **Point faults** (:class:`StallFault`, :class:`CrashFault`) fire once
  at virtual time ``at`` and block every server for a fixed period.
  A crash additionally calls the SUT's ``on_crash`` hook, which may
  schedule a cold-cache retrain that extends the outage and is priced
  by the cost metrics like any other training event.

All faults are frozen dataclasses; a plan is an immutable, validated
tuple of them. Everything round-trips through ``describe()`` /
``from_dict`` so fault plans participate in scenario fingerprints and
the matrix runner's content-addressed cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "LatencyFault",
    "DegradationFault",
    "StallFault",
    "CrashFault",
    "WindowFault",
    "PointFault",
    "Fault",
    "FaultPlan",
]


@dataclass(frozen=True)
class LatencyFault:
    """Multiply service times of queries arriving in ``[start, end)``.

    Models a slow dependency or noisy neighbour: every query that
    arrives while the fault is active takes ``multiplier``\\ x its
    nominal service time.
    """

    start: float
    end: float
    multiplier: float

    kind = "latency"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on a malformed window."""
        _check_window(self.kind, self.start, self.end)
        if not self.multiplier > 0.0:
            raise ConfigurationError(
                f"latency fault multiplier must be > 0, got {self.multiplier}"
            )


@dataclass(frozen=True)
class DegradationFault:
    """Add a constant to service times of queries arriving in ``[start, end)``.

    Models a throughput-degradation window (e.g. background compaction
    or a saturated disk): each affected query pays a flat
    ``added_seconds`` surcharge, which lowers the effective service
    rate for the duration of the window.
    """

    start: float
    end: float
    added_seconds: float

    kind = "degradation"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on a malformed window."""
        _check_window(self.kind, self.start, self.end)
        if not self.added_seconds >= 0.0:
            raise ConfigurationError(
                f"degradation fault added_seconds must be >= 0, "
                f"got {self.added_seconds}"
            )


@dataclass(frozen=True)
class StallFault:
    """Block every server for ``duration`` seconds at virtual time ``at``.

    Models a stop-the-world pause (GC, failover blip): queries keep
    arriving but none start service before ``at + duration``.
    """

    at: float
    duration: float

    kind = "stall"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on a malformed stall."""
        _check_point(self.kind, self.at)
        if not self.duration >= 0.0:
            raise ConfigurationError(
                f"stall fault duration must be >= 0, got {self.duration}"
            )


@dataclass(frozen=True)
class CrashFault:
    """Crash and restart the SUT at virtual time ``at``.

    Every server is blocked for ``recovery_seconds`` (process restart),
    then the SUT's ``on_crash`` hook runs. A learned SUT typically
    loses its warm state (access history, drift detector) and performs
    a cold retrain, whose nominal training time extends the outage and
    is recorded as a training event for the cost metrics.
    """

    at: float
    recovery_seconds: float

    kind = "crash"

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on a malformed crash."""
        _check_point(self.kind, self.at)
        if not self.recovery_seconds >= 0.0:
            raise ConfigurationError(
                f"crash fault recovery_seconds must be >= 0, "
                f"got {self.recovery_seconds}"
            )


WindowFault = Union[LatencyFault, DegradationFault]
PointFault = Union[StallFault, CrashFault]
Fault = Union[WindowFault, PointFault]

_KINDS: Dict[str, type] = {
    "latency": LatencyFault,
    "degradation": DegradationFault,
    "stall": StallFault,
    "crash": CrashFault,
}


def _check_window(kind: str, start: float, end: float) -> None:
    """Validate a ``[start, end)`` fault window."""
    if not start >= 0.0:
        raise ConfigurationError(f"{kind} fault start must be >= 0, got {start}")
    if not end > start:
        raise ConfigurationError(
            f"{kind} fault window must have end > start, got [{start}, {end})"
        )


def _check_point(kind: str, at: float) -> None:
    """Validate a point-fault firing time."""
    if not at >= 0.0:
        raise ConfigurationError(f"{kind} fault time must be >= 0, got {at}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of faults for one scenario.

    Times are in scenario virtual seconds, measured from the start of
    the serving phase (the same clock used by segment boundaries and
    ticks). The plan is validated eagerly at construction so a bad
    schedule fails before any simulation work happens.
    """

    faults: Tuple[Fault, ...]

    def __init__(self, faults: Iterable[Fault]):
        """Validate and freeze ``faults`` (any iterable of fault objects)."""
        entries = tuple(faults)
        seen_points = set()
        for fault in entries:
            if not isinstance(fault, tuple(_KINDS.values())):
                raise ConfigurationError(
                    f"unknown fault type: {type(fault).__name__}"
                )
            fault.validate()
            if isinstance(fault, (StallFault, CrashFault)):
                if fault.at in seen_points:
                    raise ConfigurationError(
                        f"two point faults scheduled at t={fault.at}; "
                        "point-fault times must be distinct"
                    )
                seen_points.add(fault.at)
        object.__setattr__(self, "faults", entries)

    def __bool__(self) -> bool:
        """A plan with no faults is falsy (treated as ``None`` by drivers)."""
        return bool(self.faults)

    def __len__(self) -> int:
        """Number of scheduled faults."""
        return len(self.faults)

    @property
    def window_faults(self) -> Tuple[WindowFault, ...]:
        """Window faults in plan order (application order matters)."""
        return tuple(
            f for f in self.faults if isinstance(f, (LatencyFault, DegradationFault))
        )

    @property
    def point_faults(self) -> Tuple[PointFault, ...]:
        """Point faults sorted by firing time."""
        points = [f for f in self.faults if isinstance(f, (StallFault, CrashFault))]
        return tuple(sorted(points, key=lambda f: f.at))

    def degraded_windows(self) -> List[Tuple[float, float, str]]:
        """``(start, end, kind)`` for each fault's degraded interval.

        Window faults degrade ``[start, end)`` directly. A stall
        degrades ``[at, at + duration)``; a crash degrades
        ``[at, at + recovery_seconds)`` (the retrain extension is
        SUT-dependent and scored separately from training events).
        Used by :func:`repro.metrics.resilience.degraded_sla_mass`.
        """
        windows: List[Tuple[float, float, str]] = []
        for fault in self.faults:
            if isinstance(fault, (LatencyFault, DegradationFault)):
                windows.append((fault.start, fault.end, fault.kind))
            elif isinstance(fault, StallFault):
                windows.append((fault.at, fault.at + fault.duration, fault.kind))
            else:
                windows.append(
                    (fault.at, fault.at + fault.recovery_seconds, fault.kind)
                )
        return sorted(windows)

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-safe description, stable across processes.

        Feeds :meth:`Scenario.describe` and therefore scenario
        fingerprints and matrix-runner cache keys.
        """
        out: List[Dict[str, Any]] = []
        for fault in self.faults:
            entry: Dict[str, Any] = {"kind": fault.kind}
            for field in fault.__dataclass_fields__:
                entry[field] = float(getattr(fault, field))
            out.append(entry)
        return out

    @classmethod
    def from_dict(cls, entries: Sequence[Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`describe` output."""
        faults: List[Fault] = []
        for entry in entries:
            kind = entry.get("kind")
            fault_cls = _KINDS.get(kind)
            if fault_cls is None:
                raise ConfigurationError(f"unknown fault kind: {kind!r}")
            kwargs = {k: v for k, v in entry.items() if k != "kind"}
            try:
                faults.append(fault_cls(**kwargs))
            except TypeError as exc:
                raise ConfigurationError(
                    f"bad fields for {kind} fault: {sorted(kwargs)}"
                ) from exc
        return cls(faults)
