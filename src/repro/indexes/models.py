"""Model-fitting utilities shared by the learned indexes.

The learned indexes map a key to an approximate position in a sorted key
array via small regression models. This module provides:

* :class:`LinearModel` — least-squares line fit over (key, position) pairs.
* :class:`CDFModel` — an empirical-CDF model built from a sample, used by
  the learned sorter and by workload/data similarity estimation.
* :func:`fit_linear` — vectorized least-squares helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import NotTrainedError


@dataclass(frozen=True)
class LinearModel:
    """An affine model ``position ~= slope * key + intercept``."""

    slope: float
    intercept: float

    def predict(self, key: float) -> float:
        """Predict the (fractional) position of ``key``."""
        return self.slope * key + self.intercept

    def predict_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict`."""
        return self.slope * keys + self.intercept


def fit_linear(keys: np.ndarray, positions: np.ndarray) -> LinearModel:
    """Least-squares fit of ``positions ~ keys``.

    Degenerate inputs (empty, single point, or constant keys) fall back to
    a flat model through the mean position, which keeps learned indexes
    well-defined on pathological segments.
    """
    n = len(keys)
    if n == 0:
        return LinearModel(0.0, 0.0)
    if n == 1:
        return LinearModel(0.0, float(positions[0]))
    kx = np.asarray(keys, dtype=np.float64)
    py = np.asarray(positions, dtype=np.float64)
    # ``kx.var()`` spelled out (same reductions, same bits), so the means
    # and the key deviations serve the slope too.
    mean_k, mean_p = kx.mean(), py.mean()
    dk = kx - mean_k
    var = (dk * dk).sum() / n
    if var <= 0.0:
        return LinearModel(0.0, float(mean_p))
    slope = float((dk * (py - mean_p)).sum() / (var * n))
    intercept = float(mean_p - slope * mean_k)
    return LinearModel(slope, intercept)


class CDFModel:
    """Empirical CDF over a key sample, with linear interpolation.

    ``predict(key)`` returns the estimated quantile of ``key`` in [0, 1].
    Used to place records in roughly sorted order (learned sorting) and to
    model data distributions.
    """

    def __init__(self, sample: Sequence[float]) -> None:
        arr = np.sort(np.asarray(list(sample), dtype=np.float64))
        if arr.size == 0:
            raise NotTrainedError("CDFModel requires a non-empty sample")
        self._xs = arr
        self._n = arr.size

    def predict(self, key: float) -> float:
        """Estimated CDF value of ``key`` (clamped to [0, 1])."""
        pos = float(np.searchsorted(self._xs, key, side="right"))
        return min(1.0, max(0.0, pos / self._n))

    def predict_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`predict`."""
        pos = np.searchsorted(self._xs, np.asarray(keys, dtype=np.float64), side="right")
        return np.clip(pos / self._n, 0.0, 1.0)

    def quantile(self, q: float) -> float:
        """Inverse CDF: the key at quantile ``q`` in [0, 1]."""
        q = min(1.0, max(0.0, q))
        idx = min(self._n - 1, int(q * self._n))
        return float(self._xs[idx])

    def __len__(self) -> int:
        return self._n


def max_abs_error(
    model: LinearModel, keys: np.ndarray, positions: np.ndarray
) -> Tuple[int, int]:
    """Return (max under-prediction, max over-prediction) in positions.

    The pair bounds the bounded-search window a learned index must scan
    around the model's prediction to guarantee it finds the key.
    """
    if len(keys) == 0:
        return 0, 0
    predictions = model.predict_array(np.asarray(keys, dtype=np.float64))
    errors = np.asarray(positions, dtype=np.float64) - predictions
    under = int(np.ceil(max(0.0, float(errors.max()))))
    over = int(np.ceil(max(0.0, float(-errors.min()))))
    return under, over
