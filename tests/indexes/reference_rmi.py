"""The RMI's per-leaf mask training loop: the oracle ``_train`` is pinned to.

:meth:`repro.indexes.rmi.RecursiveModelIndex._train` cuts each leaf as one
contiguous slice of the sorted keys. This module keeps the loop it
replaced, verbatim: one boolean mask over all keys per leaf, and the
least-squares fit that called ``var()`` and recomputed both means. Tests
train both on the same keys, samples and deltas and compare the learned
state bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.indexes.models import LinearModel, max_abs_error
from repro.indexes.rmi import RecursiveModelIndex


def fit_linear(keys: np.ndarray, positions: np.ndarray) -> LinearModel:
    """Least-squares fit of ``positions ~ keys``, as first written."""
    n = len(keys)
    if n == 0:
        return LinearModel(0.0, 0.0)
    if n == 1:
        return LinearModel(0.0, float(positions[0]))
    kx = np.asarray(keys, dtype=np.float64)
    py = np.asarray(positions, dtype=np.float64)
    var = kx.var()
    if var <= 0.0:
        return LinearModel(0.0, float(py.mean()))
    slope = float(((kx - kx.mean()) * (py - py.mean())).sum() / (var * n))
    intercept = float(py.mean() - slope * kx.mean())
    return LinearModel(slope, intercept)


class MaskTrainedRMI(RecursiveModelIndex):
    """An RMI whose ``_train`` masks every leaf out of the whole key array."""

    def _train(self, access_sample: Optional[np.ndarray] = None) -> None:
        n = len(self._keys)
        positions = np.arange(n, dtype=np.float64)
        if n == 0:
            self._root = LinearModel(0.0, 0.0)
            self._leaves = [LinearModel(0.0, 0.0)] * self._fanout
            self._errors = [(0, 0)] * self._fanout
            self._boundaries = None
            self.stats.retrains += 1
            return
        if access_sample is not None and len(access_sample) >= self._fanout:
            # Workload-aware routing: boundaries at access quantiles.
            qs = np.linspace(0.0, 1.0, self._fanout + 1)[1:-1]
            self._boundaries = np.quantile(
                np.asarray(access_sample, dtype=np.float64), qs
            )
            self._root = None
            assignments = np.searchsorted(self._boundaries, self._keys, side="right")
        elif access_sample is None and self._boundaries is not None:
            # Delta-merge retrain without a fresh sample: keep the
            # existing workload-aware boundaries.
            assignments = np.searchsorted(self._boundaries, self._keys, side="right")
        else:
            # Data-linear routing: root model predicts the leaf id.
            self._boundaries = None
            scaled = positions * (self._fanout / max(1, n))
            self._root = fit_linear(self._keys, scaled)
            assignments = np.clip(
                self._root.predict_array(self._keys).astype(np.int64),
                0,
                self._fanout - 1,
            )
        self._leaves = []
        self._errors = []
        for leaf_id in range(self._fanout):
            mask = assignments == leaf_id
            leaf_keys = self._keys[mask]
            leaf_pos = positions[mask]
            model = fit_linear(leaf_keys, leaf_pos)
            self._leaves.append(model)
            self._errors.append(max_abs_error(model, leaf_keys, leaf_pos))
        self.stats.retrains += 1
