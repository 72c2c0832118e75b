"""Dataset and workload quality scoring (§V-C of the paper).

The paper proposes "a software tool that evaluates the quality and
relevance of a given dataset for the benchmark. For example, this tool
could attribute low marks to uniform data distributions and workloads
while favoring datasets exhibiting skew or varying query load."

:func:`score_dataset` scores a key sample on three axes — non-uniformity,
multi-modality, and tail weight. :func:`score_workload` scores a workload
spec + observed load trace on skew, drift, and load variation. Scores are
in [0, 1]; higher means more benchmark-relevant (harder / more realistic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.learned.drift_detector import ks_statistics
from repro.workloads.generators import WorkloadSpec


@dataclass(frozen=True)
class DatasetQualityReport:
    """Quality breakdown for a dataset (key sample).

    Attributes:
        non_uniformity: KS distance of the sample from uniform on its
            observed range (0 = perfectly uniform, → 1 = very skewed).
        multimodality: Histogram roughness — how far bucket frequencies
            deviate from flat, normalized to [0, 1].
        tail_weight: Mass concentration — fraction of range covered by
            the densest 10% of buckets subtracted from 1.
        overall: Weighted combination of the above.
    """

    non_uniformity: float
    multimodality: float
    tail_weight: float
    overall: float

    def grade(self) -> str:
        """Letter grade A (very relevant) .. F (uninteresting)."""
        return _grade(self.overall)


@dataclass(frozen=True)
class WorkloadQualityReport:
    """Quality breakdown for a workload.

    Attributes:
        skew: Access-key skew (Gini-style concentration of a key sample).
        drift: How much the access distribution changes over the probed
            horizon (mean KS distance between consecutive probe times).
        load_variation: Coefficient of variation of the arrival rate.
        overall: Weighted combination.
    """

    skew: float
    drift: float
    load_variation: float
    overall: float

    def grade(self) -> str:
        """Letter grade A (very relevant) .. F (uninteresting)."""
        return _grade(self.overall)


def _grade(score: float) -> str:
    for threshold, letter in ((0.8, "A"), (0.6, "B"), (0.4, "C"), (0.2, "D")):
        if score >= threshold:
            return letter
    return "F"


def score_dataset(keys: Sequence[float], buckets: int = 64) -> DatasetQualityReport:
    """Score a key sample's benchmark relevance.

    Args:
        keys: The dataset's keys (or a representative sample).
        buckets: Histogram resolution used for the shape statistics.
    """
    arr = np.asarray(list(keys), dtype=np.float64)
    if arr.size < 2:
        raise ConfigurationError("need at least 2 keys to score a dataset")
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        # A constant dataset is degenerate but maximally non-uniform.
        return DatasetQualityReport(1.0, 1.0, 1.0, 1.0)

    # Non-uniformity: KS distance from the uniform CDF over [lo, hi].
    sorted_keys = np.sort(arr)
    empirical = np.arange(1, arr.size + 1) / arr.size
    uniform = (sorted_keys - lo) / (hi - lo)
    non_uniformity = float(np.abs(empirical - uniform).max())

    # Histogram shape statistics.
    hist, _ = np.histogram(arr, bins=buckets, range=(lo, hi))
    freq = hist / hist.sum()
    flat = 1.0 / buckets
    # Total variation distance from flat, normalized to [0, 1].
    multimodality = float(np.abs(freq - flat).sum() / (2.0 * (1.0 - flat)))

    # Tail weight: how much mass the densest 10% of buckets holds.
    top = max(1, buckets // 10)
    dense_mass = float(np.sort(freq)[-top:].sum())
    tail_weight = float(np.clip((dense_mass - top * flat) / (1.0 - top * flat), 0.0, 1.0))

    overall = float(
        np.clip(0.4 * non_uniformity + 0.3 * multimodality + 0.3 * tail_weight, 0.0, 1.0)
    )
    return DatasetQualityReport(non_uniformity, multimodality, tail_weight, overall)


def score_workload(
    spec: WorkloadSpec,
    horizon: float = 600.0,
    probes: int = 8,
    sample_size: int = 2000,
    seed: int = 0,
) -> WorkloadQualityReport:
    """Score a workload spec's benchmark relevance.

    Probes the key-drift model at ``probes`` times across ``horizon``
    seconds, measuring access skew at each probe and distribution movement
    between consecutive probes; probes the arrival process for load
    variation.
    """
    if probes < 2:
        raise ConfigurationError("need at least 2 probes")
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, horizon, probes)

    samples: List[np.ndarray] = []
    for t in times:
        dist = spec.key_drift.at(float(t))
        samples.append(np.sort(dist.sample(rng, sample_size)))

    # Skew: average Gini coefficient of bucket frequencies.
    ginis = []
    for sample in samples:
        hist, _ = np.histogram(sample, bins=64)
        freq = np.sort(hist / max(1, hist.sum()))
        n = freq.size
        cum = np.cumsum(freq)
        gini = float(1.0 - 2.0 * (cum.sum() / n - 0.5 / n))
        ginis.append(np.clip(gini, 0.0, 1.0))
    skew = float(np.mean(ginis))

    # Drift: mean two-sample KS distance between consecutive probes.
    ks_values = [
        float(ks_statistics(a, b[None, :])[0]) for a, b in zip(samples[:-1], samples[1:])
    ]
    drift = float(np.clip(np.mean(ks_values), 0.0, 1.0))

    # Load variation: coefficient of variation of the rate trace, squashed.
    rates = np.asarray([spec.arrivals.rate(float(t)) for t in np.linspace(0, horizon, 64)])
    mean_rate = rates.mean()
    if mean_rate <= 0:
        load_variation = 0.0
    else:
        load_variation = float(np.clip(rates.std() / mean_rate, 0.0, 1.0))

    overall = float(np.clip(0.35 * skew + 0.4 * drift + 0.25 * load_variation, 0.0, 1.0))
    return WorkloadQualityReport(skew, drift, load_variation, overall)
