"""Scenario (de)serialization: benchmark definitions as shareable JSON.

§IV of the paper demands that "benchmark results remain comparable
across many deployments"; that starts with the *scenario definition*
being an exchangeable artifact rather than Python code. Every
distribution, drift model, arrival process, and workload spec already
exposes ``describe()`` (a JSON-friendly dict); this module provides the
inverse — ``*_from_dict`` factories — plus whole-scenario round-trips:

>>> payload = scenario_to_dict(scenario)        # JSON-ready
>>> clone = scenario_from_dict(payload, initial_keys=dataset.keys)
>>> clone.fingerprint() == scenario.fingerprint()
True

Dataset keys are not embedded (they can be huge and are regenerable from
``build_dataset(name, n, seed)``); pass them back at load time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.hardware import CPU, GPU, TPU
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.workloads.distributions import (
    Distribution,
    HotspotDistribution,
    LognormalDistribution,
    MixtureDistribution,
    NormalDistribution,
    PiecewiseDistribution,
    UniformDistribution,
    ZipfDistribution,
)
from repro.workloads.drift import (
    AbruptDrift,
    DriftFactor,
    DriftModel,
    GradualDrift,
    GrowingSkewDrift,
    NoDrift,
    RotatingHotspotDrift,
)
from repro.workloads.generators import KVOperation, MixSchedule, OperationMix, WorkloadSpec
from repro.workloads.patterns import (
    ArrivalProcess,
    BurstyArrivals,
    CompositeArrivals,
    ConstantArrivals,
    DiurnalArrivals,
    RampArrivals,
)

_HARDWARE = {"cpu": CPU, "gpu": GPU, "tpu": TPU}


def distribution_from_dict(payload: Dict[str, Any]) -> Distribution:
    """Rebuild a distribution from its ``describe()`` payload."""
    kind = payload.get("kind")
    low, high = payload.get("low", 0.0), payload.get("high", 1.0)
    if kind == "uniform":
        return UniformDistribution(low, high)
    if kind == "zipf":
        return ZipfDistribution(
            low, high, theta=payload["theta"], n_items=payload["n_items"]
        )
    if kind == "normal":
        return NormalDistribution(low, high, mean=payload["mean"],
                                  std=payload["std"])
    if kind == "lognormal":
        return LognormalDistribution(low, high, mu=payload["mu"],
                                     sigma=payload["sigma"])
    if kind == "hotspot":
        return HotspotDistribution(
            low,
            high,
            hot_start=payload["hot_start"],
            hot_width=payload["hot_width"],
            hot_fraction=payload["hot_fraction"],
        )
    if kind == "piecewise":
        return PiecewiseDistribution(low, high, payload["weights"])
    if kind == "mixture":
        return MixtureDistribution(
            [distribution_from_dict(c) for c in payload["components"]],
            payload["weights"],
        )
    raise ConfigurationError(f"unknown distribution kind {kind!r}")


def drift_from_dict(payload: Dict[str, Any]) -> DriftModel:
    """Rebuild a drift model from its ``describe()`` payload."""
    kind = payload.get("kind")
    if kind == "NoDrift":
        return NoDrift(distribution_from_dict(payload["distribution"]))
    if kind == "AbruptDrift":
        return AbruptDrift(
            [distribution_from_dict(d) for d in payload["distributions"]],
            payload["change_times"],
        )
    if kind == "GradualDrift":
        return GradualDrift(
            before=distribution_from_dict(payload["before"]),
            after=distribution_from_dict(payload["after"]),
            start=payload["start"],
            duration=payload["duration"],
        )
    if kind == "RotatingHotspotDrift":
        return RotatingHotspotDrift(
            low=payload["low"],
            high=payload["high"],
            hot_width=payload["hot_width"],
            period=payload["period"],
            hot_fraction=payload["hot_fraction"],
        )
    if kind == "GrowingSkewDrift":
        return GrowingSkewDrift(
            low=payload.get("low", 0.0),
            high=payload.get("high", 1.0),
            theta_start=payload["theta_start"],
            theta_end=payload["theta_end"],
            duration=payload["duration"],
        )
    if kind == "DriftFactor":
        return DriftFactor(
            base=drift_from_dict(payload["base"]),
            target=drift_from_dict(payload["target"]),
            factor=payload["factor"],
        )
    raise ConfigurationError(f"unknown drift kind {kind!r}")


def arrivals_from_dict(payload: Dict[str, Any]) -> ArrivalProcess:
    """Rebuild an arrival process from its ``describe()`` payload."""
    kind = payload.get("kind")
    if kind == "ConstantArrivals":
        return ConstantArrivals(payload["rate"])
    if kind == "DiurnalArrivals":
        return DiurnalArrivals(
            base=payload["base"],
            amplitude=payload["amplitude"],
            period=payload["period"],
        )
    if kind == "BurstyArrivals":
        return BurstyArrivals(payload["base"], [tuple(b) for b in payload["bursts"]])
    if kind == "RampArrivals":
        return RampArrivals(
            rate_start=payload["rate_start"],
            rate_end=payload["rate_end"],
            duration=payload["duration"],
        )
    if kind == "CompositeArrivals":
        return CompositeArrivals(
            [
                (seg["start"], arrivals_from_dict(seg["process"]))
                for seg in payload["segments"]
            ]
        )
    raise ConfigurationError(f"unknown arrivals kind {kind!r}")


def mix_from_dict(payload: Dict[str, float]) -> OperationMix:
    """Rebuild an operation mix from its ``describe()`` payload."""
    return OperationMix({KVOperation(op): share for op, share in payload.items()})


def spec_from_dict(payload: Dict[str, Any]) -> WorkloadSpec:
    """Rebuild a workload spec from its ``describe()`` payload.

    Trace-backed replay specs cannot round-trip through JSON: their
    payload summarizes the trace (content hash, op histogram) but does
    not embed the rows. Rebuilding one raises a
    :class:`~repro.errors.ConfigurationError` pointing back at the
    trace file — reload it with
    :func:`repro.workloads.trace.load_trace` and
    :func:`repro.workloads.trace.trace_spec` instead.
    """
    if "trace" in payload:
        content = payload["trace"].get("content_hash", "?")[:16]
        raise ConfigurationError(
            f"workload spec {payload.get('name')!r} replays a recorded "
            f"trace (content {content}…); trace rows are not embedded in "
            "JSON — reload the trace file with repro.workloads.trace."
            "load_trace and rebuild the spec with trace_spec"
        )
    schedule = None
    if "mix_schedule" in payload:
        schedule = MixSchedule(
            [
                (seg["start"], mix_from_dict(seg["mix"]))
                for seg in payload["mix_schedule"]["segments"]
            ]
        )
    return WorkloadSpec(
        name=payload["name"],
        mix=mix_from_dict(payload["mix"]),
        key_drift=drift_from_dict(payload["key_drift"]),
        arrivals=arrivals_from_dict(payload["arrivals"]),
        scan_length_mean=payload.get("scan_length_mean", 0),
        mix_schedule=schedule,
    )


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Serialize a scenario (same payload as ``Scenario.describe()``)."""
    return scenario.describe()


def scenario_from_dict(
    payload: Dict[str, Any],
    initial_keys: Optional[np.ndarray] = None,
    data_injections: Optional[Dict[str, np.ndarray]] = None,
) -> Scenario:
    """Rebuild a scenario from :func:`scenario_to_dict` output.

    Args:
        payload: The serialized scenario.
        initial_keys: Key array to load (not embedded in the payload).
        data_injections: Optional ``{segment label: keys}`` for segments
            that declared injections (also not embedded).
    """
    injections = data_injections or {}
    segments: List[Segment] = []
    for seg in payload["segments"]:
        declared = seg.get("data_injection", 0)
        injection = injections.get(seg["label"])
        if declared and injection is None:
            raise ConfigurationError(
                f"segment {seg['label']!r} declared a data injection of "
                f"{declared} keys; pass it via data_injections"
            )
        segments.append(
            Segment(
                spec=spec_from_dict(seg["spec"]),
                duration=seg["duration"],
                label=seg["label"],
                data_injection=injection,
            )
        )
    training = None
    if payload.get("initial_training"):
        info = payload["initial_training"]
        hardware = _HARDWARE.get(info.get("hardware", "cpu"), CPU)
        training = TrainingPhase(
            budget_seconds=info["budget_seconds"], hardware=hardware
        )
    fault_plan = None
    if payload.get("faults"):
        fault_plan = FaultPlan.from_dict(payload["faults"])
    return Scenario(
        name=payload["name"],
        segments=segments,
        initial_training=training,
        initial_keys=initial_keys,
        tick_interval=payload.get("tick_interval", 1.0),
        seed=payload.get("seed", 0),
        fault_plan=fault_plan,
        drift_factor=payload.get("drift_factor"),
    )

