"""Training phases and events.

Lesson 3 of the paper: "Training must be a first-class result." The
driver represents every unit of training work — the upfront offline
phase, between-segment retrains, and online retraining triggered by the
SUT itself — as a :class:`TrainingEvent` carried in the run result, so
the cost metrics (Fig 1d) can price it and the adaptability metrics
(Fig 1b/1c) can see its interference with query processing.

The fault subsystem reuses the same currency: when a
:class:`~repro.faults.CrashFault` fires, the SUT's ``on_crash`` hook
may report a cold-cache rebuild, which the driver records as an online
``"crash-retrain"`` :class:`TrainingEvent` — so losing a model to a
crash costs exactly what training it costs everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hardware import CPU, HardwareProfile
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TrainingPhase:
    """A budgeted offline training opportunity.

    Attributes:
        budget_seconds: Nominal CPU-seconds of training the SUT may use.
            The SUT may use less; it may not use more.
        hardware: Hardware profile executing the phase (affects wall time
            and cost, not the nominal budget).
        blocking: Whether queries wait for the phase (True for an upfront
            phase; False would model training on a replica).
    """

    budget_seconds: float
    hardware: HardwareProfile = CPU
    blocking: bool = True

    def __post_init__(self) -> None:
        if self.budget_seconds < 0:
            raise ConfigurationError("budget_seconds must be >= 0")


@dataclass(frozen=True)
class TrainingEvent:
    """One completed unit of training work during a run.

    Attributes:
        start: Virtual start time.
        duration: Virtual wall-clock duration (already scaled by the
            hardware profile's speed).
        nominal_seconds: Nominal CPU-seconds of work performed.
        hardware_name: Profile that executed it.
        cost: Dollar cost.
        online: True when triggered during execution (online retrain),
            False for scheduled offline phases.
        label: Free-form description (e.g. "offline", "drift-retrain").
    """

    start: float
    duration: float
    nominal_seconds: float
    hardware_name: str
    cost: float
    online: bool
    label: str = ""

    @property
    def end(self) -> float:
        """Virtual end time."""
        return self.start + self.duration


def make_event(
    start: float,
    nominal_seconds: float,
    hardware: HardwareProfile,
    online: bool,
    label: str = "",
) -> TrainingEvent:
    """Build a :class:`TrainingEvent` from nominal work on a profile."""
    wall = hardware.wall_time(nominal_seconds)
    return TrainingEvent(
        start=start,
        duration=wall,
        nominal_seconds=nominal_seconds,
        hardware_name=hardware.name,
        cost=hardware.cost(wall),
        online=online,
        label=label,
    )


def event_to_telemetry(event: TrainingEvent) -> dict:
    """JSON-friendly payload the driver attaches to training spans.

    The driver tags every train/adapt span with this under the
    ``training_event`` attribute, so a run's cost breakdown can be
    recomputed from its *trace* alone
    (:func:`repro.metrics.cost.phases_from_trace`). It also writes the
    ``training_events`` rows of a result-cache entry's header
    (:class:`~repro.core.runner.ResultCache`) and of the streaming
    summary's ``to_dict``: one wire format, three carriers.
    """
    return {
        "start": event.start,
        "duration": event.duration,
        "nominal_seconds": event.nominal_seconds,
        "hardware_name": event.hardware_name,
        "cost": event.cost,
        "online": event.online,
        "label": event.label,
    }


def event_from_telemetry(data: dict) -> TrainingEvent:
    """Inverse of :func:`event_to_telemetry` (exact field round-trip)."""
    return TrainingEvent(
        start=data["start"],
        duration=data["duration"],
        nominal_seconds=data["nominal_seconds"],
        hardware_name=data["hardware_name"],
        cost=data["cost"],
        online=data["online"],
        label=data.get("label", ""),
    )
