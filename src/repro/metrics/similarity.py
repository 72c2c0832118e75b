"""Similarity estimators for the Φ axis of Fig 1a.

§V-D1: "Similarity across workloads can be estimated, for example,
using the Jaccard similarity between the sets of all subtrees of the
query tree for all queries in the workload. Likewise, similarity across
data distributions can be evaluated using, e.g., the Kolmogorov-Smirnov
test or the Maximum Mean Discrepancy."

Conventions: similarities are in [0, 1] with 1 = identical; Φ values are
*distances* in [0, 1] with 0 = identical, so Fig 1a's x-axis sorts
ascending Φ. The paper notes Φ "need not be precise; it should be
sufficient to sort the results by Φ value".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.learned.drift_detector import ks_statistics
from repro.workloads.generators import (
    KV_OPERATIONS,
    KVWorkload,
    OperationMix,
    QueryBatch,
    WorkloadSpec,
)


def jaccard_similarity(a: Union[Set, FrozenSet], b: Union[Set, FrozenSet]) -> float:
    """|a ∩ b| / |a ∪ b| (1.0 for two empty sets)."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def ks_statistic(sample_a: Iterable[float], sample_b: Iterable[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (sup CDF distance)."""
    a = np.sort(np.asarray(list(sample_a), dtype=np.float64))
    b = np.sort(np.asarray(list(sample_b), dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ConfigurationError("KS statistic requires non-empty samples")
    return float(ks_statistics(a, b[None, :])[0])


def mmd_rbf(
    sample_a: Iterable[float],
    sample_b: Iterable[float],
    gamma: Optional[float] = None,
    max_points: int = 1000,
    seed: int = 0,
) -> float:
    """Unbiased squared Maximum Mean Discrepancy with an RBF kernel.

    Args:
        sample_a, sample_b: One-dimensional samples.
        gamma: RBF bandwidth parameter; ``None`` uses the median
            heuristic over the pooled sample.
        max_points: Subsample cap per side (MMD is quadratic).
        seed: Subsampling seed.

    Returns:
        The unbiased MMD² estimate, clipped at 0 (the estimator can go
        slightly negative under the null).
    """
    rng = np.random.default_rng(seed)
    a = np.asarray(list(sample_a), dtype=np.float64)
    b = np.asarray(list(sample_b), dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ConfigurationError("MMD requires >= 2 points per sample")
    if a.size > max_points:
        a = rng.choice(a, max_points, replace=False)
    if b.size > max_points:
        b = rng.choice(b, max_points, replace=False)
    if gamma is None:
        pooled = np.concatenate([a, b])
        diffs = np.abs(pooled[:, None] - pooled[None, :])
        median = float(np.median(diffs[diffs > 0])) if (diffs > 0).any() else 1.0
        gamma = 1.0 / (2.0 * median**2) if median > 0 else 1.0

    def kernel_sum(x: np.ndarray, y: np.ndarray, exclude_diag: bool) -> float:
        sq = (x[:, None] - y[None, :]) ** 2
        k = np.exp(-gamma * sq)
        if exclude_diag:
            np.fill_diagonal(k, 0.0)
            denom = x.size * (x.size - 1)
        else:
            denom = x.size * y.size
        return float(k.sum() / denom)

    mmd2 = (
        kernel_sum(a, a, exclude_diag=True)
        + kernel_sum(b, b, exclude_diag=True)
        - 2.0 * kernel_sum(a, b, exclude_diag=False)
    )
    return max(0.0, mmd2)


def workload_phi(
    spec_a: WorkloadSpec, spec_b: WorkloadSpec, at_time: float = 0.0
) -> float:
    """Workload distance: 1 - Jaccard over the specs' structural features.

    For plan-shaped workloads, use
    :func:`repro.engine.plans.workload_subtrees` with
    :func:`jaccard_similarity` directly; this helper covers key-value
    workload specs.
    """
    return 1.0 - jaccard_similarity(
        spec_a.signature(at_time), spec_b.signature(at_time)
    )


def data_phi(
    sample_a: Iterable[float],
    sample_b: Iterable[float],
    method: str = "ks",
) -> float:
    """Data-distribution distance in [0, 1].

    Args:
        method: ``"ks"`` (KS statistic, already in [0, 1]) or ``"mmd"``
            (MMD² squashed by ``x / (1 + x)`` to [0, 1)).
    """
    if method == "ks":
        return ks_statistic(sample_a, sample_b)
    if method == "mmd":
        value = mmd_rbf(sample_a, sample_b)
        return value / (1.0 + value)
    raise ConfigurationError(f"unknown method {method!r}; expected 'ks' or 'mmd'")


# -- drift-axis Φ --------------------------------------------------------------------
#
# The drift-factor axis needs Φ *computed*, not assumed, at two levels:
# analytically from the specs (exact, used by the property tests — the
# blend construction makes it exactly linear in the factor) and from
# realized query streams (what a manifest reports per matrix cell).


def op_mix_distance(mix_a: OperationMix, mix_b: OperationMix) -> float:
    """Total-variation distance between two operation mixes, in [0, 1].

    ``0.5 * sum |p_a(op) - p_b(op)|`` over the full operation vocabulary
    — linear in mixture weight, so blended mixes land exactly on the
    line between their endpoints.
    """
    props_a = mix_a.proportions()
    props_b = mix_b.proportions()
    return 0.5 * sum(
        abs(props_a.get(op, 0.0) - props_b.get(op, 0.0)) for op in KV_OPERATIONS
    )


def expected_spec_phi(
    spec_a: WorkloadSpec,
    spec_b: WorkloadSpec,
    at_time: float = 0.0,
    grid_points: int = 2048,
) -> Dict[str, float]:
    """Analytic Φ between two workload specs at one instant.

    ``phi_data`` is the sup-CDF distance between the two active key
    distributions, evaluated on a fixed ``grid_points``-point grid over
    the union domain (a deterministic KS statistic — no sampling).
    ``phi_workload`` is the total-variation distance between the active
    operation mixes. ``phi`` is their mean. All three are in [0, 1]
    with 0 = identical, matching this module's Φ convention.
    """
    if grid_points < 2:
        raise ConfigurationError(f"grid_points must be >= 2, got {grid_points}")
    dist_a = spec_a.key_drift.at(at_time)
    dist_b = spec_b.key_drift.at(at_time)
    grid = np.linspace(
        min(dist_a.low, dist_b.low), max(dist_a.high, dist_b.high), grid_points
    )
    phi_data = float(np.abs(dist_a.cdf(grid) - dist_b.cdf(grid)).max())
    phi_workload = op_mix_distance(spec_a.mix_at(at_time), spec_b.mix_at(at_time))
    return {
        "phi_data": phi_data,
        "phi_workload": phi_workload,
        "phi": 0.5 * (phi_data + phi_workload),
    }


def realized_stream_phi(
    batch_a: QueryBatch, batch_b: QueryBatch
) -> Dict[str, float]:
    """Computed Φ between two *realized* query streams.

    ``phi_data`` is the two-sample KS statistic over the streams' keys;
    ``phi_workload`` is the total-variation distance between their
    operation-code histograms; ``phi`` is the mean. This is the
    measured counterpart of :func:`expected_spec_phi` — the Redbench
    point that interpolation endpoints must be measurable distributions,
    not labels.
    """
    phi_data = ks_statistic(batch_a.keys, batch_b.keys)
    n_ops = len(KV_OPERATIONS)
    hist_a = np.bincount(batch_a.ops.astype(np.int64), minlength=n_ops)
    hist_b = np.bincount(batch_b.ops.astype(np.int64), minlength=n_ops)
    phi_workload = 0.5 * float(
        np.abs(hist_a / max(len(batch_a), 1) - hist_b / max(len(batch_b), 1)).sum()
    )
    return {
        "phi_data": phi_data,
        "phi_workload": phi_workload,
        "phi": 0.5 * (phi_data + phi_workload),
    }


def realized_spec_phi(
    spec_a: WorkloadSpec,
    spec_b: WorkloadSpec,
    n: int = 4096,
    horizon: float = 1.0,
    seed: int = 0,
) -> Dict[str, float]:
    """Computed Φ between the streams two specs actually generate.

    Each spec is driven through its own fresh
    :class:`~repro.workloads.generators.KVWorkload` at the same ``seed``
    over ``n`` probe arrivals evenly spaced in ``[0, horizon)``, and the
    two realized streams are compared with :func:`realized_stream_phi`.
    Deterministic for fixed ``(seed, n, horizon)`` — goldenable floats.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    times = np.linspace(0.0, float(horizon), n, endpoint=False)
    batch_a = KVWorkload(spec_a, seed=seed).next_batch(times)
    batch_b = KVWorkload(spec_b, seed=seed).next_batch(times)
    return realized_stream_phi(batch_a, batch_b)


def scenario_phi(scenario, n: int = 4096, seed: Optional[int] = None) -> Dict[str, float]:
    """Computed Φ between a scenario's first and last segments.

    The drift-axis manifest metric: how far the stream actually drifted,
    measured from realized probe streams of the two segment specs
    (:func:`realized_spec_phi` at the scenario's seed by default). For
    single-segment scenarios both specs are the same object and Φ is 0.
    """
    base = scenario.segments[0].spec
    last = scenario.segments[-1].spec
    probe_seed = scenario.seed if seed is None else seed
    return realized_spec_phi(base, last, n=n, seed=probe_seed)
