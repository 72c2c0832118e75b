"""Two-layer Recursive Model Index (RMI).

Implements the structure of Kraska et al., "The Case for Learned Index
Structures" (SIGMOD 2018), which the paper cites as the canonical learned
index: a root linear model routes each key to one of ``fanout`` leaf
linear models; each leaf model predicts a position in the underlying
sorted array and records its maximum error, so a lookup does a bounded
binary search within ``[pred - err_lo, pred + err_hi]``.

The RMI is read-optimized: writes go to the delta buffer it inherits from
:class:`~repro.indexes.delta.DeltaBufferedIndex` (this module holds only
the model), and a retrain merges the delta into the array. The delta
size and the per-leaf error bounds are what the benchmark's cost model
uses to charge virtual time — a model trained on the *wrong* distribution
has large error bounds and therefore slow lookups, which is exactly the
specialization/adaptability behaviour the paper's metrics measure.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, NotTrainedError
from repro.indexes.delta import DeltaBufferedIndex
from repro.indexes.models import LinearModel, fit_linear, max_abs_error


class RecursiveModelIndex(DeltaBufferedIndex):
    """Two-layer learned index over a sorted array.

    Args:
        fanout: Number of second-layer (leaf) models.
        max_delta: Inserts buffered before an automatic retrain; ``None``
            disables auto-retraining (the caller controls retrains).
    """

    #: A range charges the root (or boundary search) and one leaf.
    RANGE_MODEL_EVALUATIONS = 2

    def __init__(self, fanout: int = 64, max_delta: Optional[int] = 1024) -> None:
        super().__init__(max_delta)
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        self._fanout = fanout
        self._root: Optional[LinearModel] = None
        self._leaves: List[LinearModel] = []
        self._errors: List[Tuple[int, int]] = []
        # Optional workload-aware routing: leaf boundary keys derived
        # from access-sample quantiles (hot regions get more leaves).
        self._boundaries: Optional[np.ndarray] = None
        # (retrains, gathered per-leaf params) for bulk lookups.
        self._param_cache: Optional[Tuple[int, tuple]] = None

    # -- training ---------------------------------------------------------------

    @property
    def fanout(self) -> int:
        """Number of leaf models."""
        return self._fanout

    def set_fanout(self, fanout: int) -> None:
        """Change the leaf-model count; takes effect at the next retrain.

        Training budgets buy fanout: more leaf models cost more training
        work but shrink per-leaf error bounds (faster lookups).
        """
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        self._fanout = int(fanout)

    @property
    def is_trained(self) -> bool:
        """Whether the learned structure has been (re)built."""
        return bool(self._leaves)

    @property
    def uses_access_routing(self) -> bool:
        """Whether leaf routing follows access-sample quantiles."""
        return self._boundaries is not None

    def max_error_bound(self) -> int:
        """Worst-case bounded-search window over all leaf models."""
        if not self._errors:
            return 0
        return max(lo + hi for lo, hi in self._errors)

    def mean_error_bound(self) -> float:
        """Average bounded-search window across leaf models."""
        if not self._errors:
            return 0.0
        return float(np.mean([lo + hi for lo, hi in self._errors]))

    def bulk_load(self, pairs) -> None:
        """Sort, dedupe (last value wins) and train with data-linear routing."""
        self._boundaries = None
        super().bulk_load(pairs)

    def retrain(self, access_sample: Optional[np.ndarray] = None) -> None:
        """Merge the delta buffer into the array and refit all models.

        Args:
            access_sample: When given, leaf boundaries are placed at the
                quantiles of this sample of *accessed* keys instead of
                uniformly over stored keys — frequently accessed regions
                get more (and therefore more precise) leaf models. This
                is the workload-specialization mechanism the benchmark's
                Fig 1a/1b experiments exercise: a model specialized to
                one access distribution has large error (slow lookups)
                under a different one until retrained.
        """
        self._merge()
        self._train(access_sample)

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
        # The keys are sorted and the routing is non-decreasing, so each
        # leaf's keys, ``keys[assignments == leaf]``, are one contiguous
        # slice in the same order. Only a root fitted to a negative slope
        # (excluded in exact arithmetic) could route out of order; a
        # stable sort then groups the leaves the same way.
        keys = self._keys
        if (assignments[1:] < assignments[:-1]).any():
            order = np.argsort(assignments, kind="stable")
            keys, positions, assignments = (
                keys[order], positions[order], assignments[order]
            )
        cuts = np.searchsorted(assignments, np.arange(self._fanout + 1)).tolist()
        self._leaves = []
        self._errors = []
        for a, b in zip(cuts, cuts[1:]):
            model = fit_linear(keys[a:b], positions[a:b])
            self._leaves.append(model)
            self._errors.append(max_abs_error(model, keys[a:b], positions[a:b]))
        self.stats.retrains += 1

    # -- lookup -------------------------------------------------------------------

    def _leaf_for(self, key: float) -> int:
        if self._boundaries is not None:
            return int(np.searchsorted(self._boundaries, key, side="right"))
        assert self._root is not None
        raw = int(self._root.predict(key))
        return min(self._fanout - 1, max(0, raw))

    def _search(self, key: float) -> Optional[int]:
        """Bounded search for ``key`` in the learned array; None if absent."""
        n = len(self._keys)
        if n == 0:
            # An empty (or never-loaded) learned array holds nothing; a
            # lookup is a clean miss, not a training error.
            return None
        if not self._leaves:
            raise NotTrainedError("RMI has data but no trained models")
        leaf_id = self._leaf_for(key)
        self.stats.model_evaluations += 2  # root (or boundary search) + leaf
        model = self._leaves[leaf_id]
        err_lo, err_hi = self._errors[leaf_id]
        pred = int(model.predict(key))
        lo = max(0, pred - err_hi)
        hi = min(n, pred + err_lo + 1)
        if lo >= hi:
            lo, hi = max(0, min(lo, n - 1)), min(n, max(hi, 1))
        window = hi - lo
        self.stats.last_search_window = window
        self.stats.comparisons += max(1, window.bit_length())
        # Last-mile search touches every storage block the error window
        # spans (256 keys/block): model quality directly sets lookup cost.
        self.stats.node_accesses += max(1, (window + 255) // 256)
        idx = lo + int(np.searchsorted(self._keys[lo:hi], key))
        if idx < n and self._keys[idx] == key:
            return idx
        # Model error bounds can be stale only for keys outside the trained
        # set; fall back to a full binary search to preserve correctness.
        idx = int(np.searchsorted(self._keys, key))
        self.stats.comparisons += max(1, n.bit_length())
        if idx < n and self._keys[idx] == key:
            return idx
        return None

    def _leaf_params(self) -> Optional[tuple]:
        """Gathered per-leaf model params, cached per retrain generation."""
        if self._param_cache is not None and self._param_cache[0] == self.stats.retrains:
            return self._param_cache[1]
        if not self._leaves:
            return None
        payload = (
            np.asarray([mdl.slope for mdl in self._leaves], dtype=np.float64),
            np.asarray([mdl.intercept for mdl in self._leaves], dtype=np.float64),
            np.asarray([e[0] for e in self._errors], dtype=np.int64),
            np.asarray([e[1] for e in self._errors], dtype=np.int64),
        )
        self._param_cache = (self.stats.retrains, payload)
        return payload

    def _bulk_search(self, lk: np.ndarray, ranks: Optional[np.ndarray]):
        """Vectorized :meth:`_search`; counts match the scalar loop's exactly.

        Routing, truncation, window clamping, and the bounded search all
        mirror the scalar expressions (``lo + searchsorted(keys[lo:hi], k)``
        equals ``clip(searchsorted(keys, k), lo, hi)`` on a sorted array),
        so per-key comparison / node-access / model-evaluation counts are
        the ones the equivalent ``get`` sequence would have produced. A
        proven ``ranks`` stands in for that ``searchsorted``.
        """
        n = len(self._keys)
        params = self._leaf_params()
        if params is None:
            return None
        slopes, intercepts, err_lo, err_hi = params
        if self._boundaries is not None:
            leaf = np.searchsorted(
                self._boundaries, lk, side="right"
            ).astype(np.int64)
        else:
            assert self._root is not None
            raw = self._root.slope * lk + self._root.intercept
            if not np.isfinite(raw).all():
                return None
            leaf = np.clip(np.trunc(raw), 0, self._fanout - 1).astype(np.int64)
        pred_f = np.trunc(slopes[leaf] * lk + intercepts[leaf])
        if not np.isfinite(pred_f).all():
            return None
        pred = np.clip(pred_f, -(2.0**62), 2.0**62).astype(np.int64)
        lo = np.maximum(0, pred - err_hi[leaf])
        hi = np.minimum(n, pred + err_lo[leaf] + 1)
        bad = lo >= hi
        if bad.any():
            lo = np.where(bad, np.maximum(0, np.minimum(lo, n - 1)), lo)
            hi = np.where(bad, np.minimum(n, np.maximum(hi, 1)), hi)
        window = hi - lo  # always >= 1 after the clamp
        lcomps = np.frexp(window.astype(np.float64))[1].astype(np.int64)
        lna = (window + 255) // 256
        ss = np.searchsorted(self._keys, lk) if ranks is None else ranks
        idx = np.clip(ss, lo, hi)
        found = (idx < n) & (self._keys[np.minimum(idx, n - 1)] == lk)
        fail = ~found
        if fail.any():
            # Replicate the scalar full-binary-search fallback.
            lcomps[fail] += max(1, n.bit_length())
            ss_f = ss[fail]
            found2 = (ss_f < n) & (self._keys[np.minimum(ss_f, n - 1)] == lk[fail])
            if not found2.all():
                return None
        return lcomps, lna, 2, int(window[-1])

    def _model_bytes(self) -> int:
        """4 params per model, the leaf error bounds and any boundaries."""
        models = (1 + len(self._leaves)) * 32 + len(self._errors) * 16
        return models + (0 if self._boundaries is None else len(self._boundaries) * 8)
