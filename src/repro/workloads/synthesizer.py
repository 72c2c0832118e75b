"""Synthetic-generator fitting (§V-C of the paper).

The paper proposes "automatically generating synthetic datasets and
workloads from real-world deployments": when production data cannot be
shared, fit a generator that reproduces its distributional shape. This
module implements that idea for numeric key columns:

* :func:`fit_distribution` fits a
  :class:`~repro.workloads.distributions.PiecewiseDistribution` (adaptive
  histogram) to a sample, preserving the empirical shape.
* :class:`SynthesisReport` quantifies fidelity (KS distance between the
  sample and the fitted generator's output).
* :func:`fit_workload` fits a full :class:`WorkloadSpec` from an observed
  query trace (keys + timestamps): key distribution plus a piecewise-
  constant arrival-rate estimate.

String-valued columns (the paper's email-address example) are handled by
:mod:`repro.data.email_gen`, which maps strings through an order-
preserving numeric encoding and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.learned.drift_detector import ks_statistics
from repro.workloads.distributions import Distribution, PiecewiseDistribution
from repro.workloads.drift import NoDrift
from repro.workloads.generators import OperationMix, WorkloadSpec
from repro.workloads.patterns import ArrivalProcess, CompositeArrivals, ConstantArrivals


@dataclass(frozen=True)
class SynthesisReport:
    """Fidelity report for a fitted generator.

    Attributes:
        ks_distance: Two-sample KS statistic between the original sample
            and a fresh draw from the fitted generator (lower is better).
        buckets: Histogram resolution used.
        sample_size: Size of the original sample.
    """

    ks_distance: float
    buckets: int
    sample_size: int

    @property
    def high_fidelity(self) -> bool:
        """Heuristic pass/fail at KS <= 0.05."""
        return self.ks_distance <= 0.05


def fit_distribution(
    sample: Sequence[float], buckets: int = 256
) -> PiecewiseDistribution:
    """Fit a histogram-shaped distribution to ``sample``.

    The fitted distribution's domain is the sample's observed range,
    slightly widened so boundary keys stay in-domain.
    """
    arr = np.asarray(list(sample), dtype=np.float64)
    if arr.size < 2:
        raise ConfigurationError("need at least 2 points to fit a distribution")
    if not np.isfinite(arr).all():
        raise ConfigurationError(
            "cannot fit a distribution to non-finite values (NaN/inf in sample)"
        )
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        hi = lo + 1.0
    pad = (hi - lo) * 1e-6
    hist, _ = np.histogram(arr, bins=buckets, range=(lo, hi))
    weights = hist.astype(np.float64)
    if weights.sum() <= 0:
        weights = np.ones(buckets)
    # Laplace smoothing keeps empty buckets reachable (generalization).
    weights = weights + 0.5
    return PiecewiseDistribution(lo - pad, hi + pad, weights)


def evaluate_fit(
    sample: Sequence[float],
    fitted: Distribution,
    buckets: int = 256,
    draw: int = 10_000,
    seed: int = 0,
) -> SynthesisReport:
    """Measure how faithfully ``fitted`` reproduces ``sample``."""
    arr = np.sort(np.asarray(list(sample), dtype=np.float64))
    rng = np.random.default_rng(seed)
    synth = np.sort(fitted.sample(rng, draw))
    ks = float(ks_statistics(arr, synth[None, :])[0])
    return SynthesisReport(ks_distance=ks, buckets=buckets, sample_size=arr.size)


def fit_arrivals(
    timestamps: Sequence[float], window: float = 10.0
) -> ArrivalProcess:
    """Fit a piecewise-constant arrival process to observed timestamps.

    Counts arrivals per ``window``-second slice and reproduces each
    slice's mean rate; captures diurnal patterns and bursts at the window
    resolution.
    """
    times = np.sort(np.asarray(list(timestamps), dtype=np.float64))
    if times.size == 0:
        return ConstantArrivals(0.0)
    if window <= 0:
        raise ConfigurationError(f"window must be > 0, got {window}")
    start, end = float(times[0]), float(times[-1])
    if end <= start:
        return ConstantArrivals(float(times.size))
    edges = np.arange(start, end + window, window)
    counts, _ = np.histogram(times, bins=edges)
    segments: list = []
    for i, count in enumerate(counts):
        seg_start = float(edges[i] - start)
        rate = float(count) / window
        segments.append((seg_start, ConstantArrivals(rate)))
    return CompositeArrivals(segments)


def fit_workload(
    name: str,
    keys: Sequence[float],
    timestamps: Optional[Sequence[float]] = None,
    read_fraction: float = 1.0,
    buckets: int = 256,
    rate_window: float = 10.0,
    mix: Optional[OperationMix] = None,
    scan_length_mean: int = 0,
) -> Tuple[WorkloadSpec, SynthesisReport]:
    """Fit a complete synthetic workload to an observed trace.

    Args:
        name: Name for the synthesized workload.
        keys: Observed access keys (at least two rows).
        timestamps: Observed arrival times (optional; defaults to a
            constant rate matching the trace volume over 60s).
        read_fraction: Observed read share of the trace (ignored when
            ``mix`` is given).
        buckets: Key-histogram resolution.
        rate_window: Arrival-rate estimation window in seconds.
        mix: Observed operation mix (e.g. a replayed trace's empirical
            op histogram); ``None`` falls back to a read/update mix at
            ``read_fraction``.
        scan_length_mean: Observed mean scan length for the fitted spec.

    Returns:
        (fitted spec, fidelity report for the key distribution).

    Raises:
        ConfigurationError: Empty or single-row traces (a distribution
            cannot be fitted to fewer than two observations), or
            non-finite keys.
    """
    key_arr = np.asarray(list(keys), dtype=np.float64)
    if key_arr.size == 0:
        raise ConfigurationError(
            "cannot fit a workload to an empty trace (no keys observed)"
        )
    if key_arr.size == 1:
        raise ConfigurationError(
            "cannot fit a workload to a single-row trace; "
            "need at least 2 observations"
        )
    dist = fit_distribution(key_arr, buckets=buckets)
    report = evaluate_fit(key_arr, dist, buckets=buckets)
    if timestamps is not None:
        arrivals = fit_arrivals(timestamps, window=rate_window)
    else:
        arrivals = ConstantArrivals(key_arr.size / 60.0)
    spec = WorkloadSpec(
        name=name,
        mix=mix if mix is not None else OperationMix.read_write(read_fraction),
        key_drift=NoDrift(dist),
        arrivals=arrivals,
        scan_length_mean=int(scan_length_mean),
    )
    return spec, report
