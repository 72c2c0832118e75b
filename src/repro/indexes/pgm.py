"""PGM-style piecewise-linear learned index.

Builds an ε-bounded piecewise linear approximation (PLA) of the key→rank
function with a greedy streaming algorithm: each segment is extended while
a feasible slope interval exists such that every covered key's rank is
within ±ε of the segment's prediction (the classic "shrinking cone"
construction used by FITing-tree / PGM-index). Segments are indexed
recursively by another PLA level until one segment remains.

Lookups descend the levels, each time doing an ε-bounded binary search,
so the worst-case probe cost is O(levels * log ε) instead of O(log n).
Like the RMI here, writes go to the delta buffer of
:class:`~repro.indexes.delta.DeltaBufferedIndex` and merge on retrain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.indexes.delta import DeltaBufferedIndex


@dataclass(frozen=True)
class Segment:
    """One linear segment: predicts rank ``slope * (key - key0) + pos0``."""

    key0: float
    pos0: float
    slope: float

    def predict(self, key: float) -> float:
        """Predicted rank of ``key`` within this segment's level."""
        return self.slope * (key - self.key0) + self.pos0


def build_pla(keys: np.ndarray, epsilon: int) -> List[Segment]:
    """Greedy ε-PLA over sorted ``keys`` (ranks are implicit 0..n-1).

    Maintains a feasible slope interval [lo, hi]; starts a new segment
    when adding the next point would empty the interval.
    """
    n = len(keys)
    if n == 0:
        return []
    segments: List[Segment] = []
    start = 0
    slope_lo, slope_hi = -np.inf, np.inf
    for i in range(1, n + 1):
        if i < n:
            dx = float(keys[i] - keys[start])
            dy = float(i - start)
            if dx <= 0:
                # Duplicate-ish keys: force a break to keep slopes finite.
                feasible = False
            else:
                lo_i = (dy - epsilon) / dx
                hi_i = (dy + epsilon) / dx
                new_lo = max(slope_lo, lo_i)
                new_hi = min(slope_hi, hi_i)
                feasible = new_lo <= new_hi
        else:
            feasible = False
        if feasible:
            slope_lo, slope_hi = new_lo, new_hi
        else:
            if slope_lo > slope_hi or not np.isfinite(slope_lo) or not np.isfinite(slope_hi):
                slope = 0.0
            else:
                slope = (slope_lo + slope_hi) / 2.0
            if not np.isfinite(slope):
                slope = 0.0
            segments.append(Segment(float(keys[start]), float(start), slope))
            start = i
            slope_lo, slope_hi = -np.inf, np.inf
    return segments


class PGMIndex(DeltaBufferedIndex):
    """Multi-level ε-bounded piecewise-linear learned index.

    Args:
        epsilon: Maximum rank error per segment (bounded-search half-width).
        max_delta: Buffered inserts before automatic retrain; ``None``
            disables auto-retraining.
    """

    def __init__(self, epsilon: int = 32, max_delta: Optional[int] = 1024) -> None:
        super().__init__(max_delta)
        if epsilon < 1:
            raise ConfigurationError(f"epsilon must be >= 1, got {epsilon}")
        self._epsilon = epsilon
        # levels[0] covers the data; levels[k] indexes level k-1's segments.
        self._levels: List[List[Segment]] = []
        # _level_keys[k] = the key0 array of level k's segments.
        self._level_keys: List[np.ndarray] = []
        # (retrains, gathered per-level segment params) for bulk lookups.
        self._param_cache: Optional[Tuple[int, list]] = None

    @property
    def epsilon(self) -> int:
        """Per-segment rank error bound."""
        return self._epsilon

    @property
    def levels(self) -> int:
        """Number of PLA levels (0 when untrained/empty)."""
        return len(self._levels)

    @property
    def segment_count(self) -> int:
        """Number of bottom-level segments."""
        return len(self._levels[0]) if self._levels else 0

    # -- build -----------------------------------------------------------------

    def _train(self) -> None:
        self._levels = []
        self._level_keys: List[np.ndarray] = []
        if len(self._keys) == 0:
            self.stats.retrains += 1
            return
        level = build_pla(self._keys, self._epsilon)
        self._levels.append(level)
        while len(level) > 1:
            seg_keys = np.asarray([s.key0 for s in level], dtype=np.float64)
            self._level_keys.append(seg_keys)
            level = build_pla(seg_keys, self._epsilon)
            self._levels.append(level)
        self.stats.retrains += 1

    # -- search -----------------------------------------------------------------

    def _bounded_search(
        self, keys: np.ndarray, key: float, pred: float
    ) -> int:
        """ε-bounded left-insertion search around a predicted rank."""
        n = len(keys)
        lo = max(0, min(n, int(pred) - self._epsilon))
        hi = max(lo, min(n, int(pred) + self._epsilon + 2))
        window = max(1, hi - lo)
        self.stats.last_search_window = window
        self.stats.comparisons += max(1, window.bit_length())
        # Widen if the prediction was off (correctness guard for keys the
        # chosen segment does not actually cover).
        if lo >= n or keys[lo] > key:
            lo = 0
        if hi <= 0 or keys[hi - 1] < key:
            hi = n
        return lo + int(np.searchsorted(keys[lo:hi], key))

    def _rank(self, key: float) -> int:
        """Left insertion point of ``key`` in the learned array."""
        if not self._levels:
            return 0
        # Descend from the top level to find the bottom segment. The
        # responsible segment at each level is the last whose key0 <= key
        # (an exact boundary hit belongs to the *starting* segment).
        seg_idx = 0
        for depth in range(len(self._levels) - 1, 0, -1):
            level = self._levels[depth]
            below = self._levels[depth - 1]
            seg = level[min(seg_idx, len(level) - 1)]
            self.stats.model_evaluations += 1
            self.stats.node_accesses += 1  # one block touch per level
            pred = seg.predict(key)
            seg_keys = self._level_keys[depth - 1]
            pos = self._bounded_search(seg_keys, key, pred)
            if pos < len(seg_keys) and seg_keys[pos] == key:
                seg_idx = pos
            else:
                seg_idx = max(0, pos - 1)
            seg_idx = min(seg_idx, len(below) - 1)
        seg = self._levels[0][min(seg_idx, len(self._levels[0]) - 1)]
        self.stats.model_evaluations += 1
        pred = seg.predict(key)
        self.stats.node_accesses += 1
        return self._bounded_search(self._keys, key, pred)

    def _search(self, key: float) -> Optional[int]:
        """Position of ``key`` in the learned array; None if absent."""
        n = len(self._keys)
        if n == 0:
            return None
        idx = self._rank(key)
        return idx if idx < n and self._keys[idx] == key else None

    def _level_params(self) -> Optional[list]:
        """Per-level (key0, pos0, slope) arrays, cached per retrain."""
        if self._param_cache is not None and self._param_cache[0] == self.stats.retrains:
            return self._param_cache[1]
        if not self._levels:
            return None
        payload = [
            (
                np.asarray([s.key0 for s in level], dtype=np.float64),
                np.asarray([s.pos0 for s in level], dtype=np.float64),
                np.asarray([s.slope for s in level], dtype=np.float64),
            )
            for level in self._levels
        ]
        self._param_cache = (self.stats.retrains, payload)
        return payload

    def _vectorized_bounded_search(
        self, seg_keys: np.ndarray, lk: np.ndarray, pred_f: np.ndarray, ranks=None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_bounded_search`; returns (positions, windows).

        Counter updates are left to the caller (windows carry the widths).
        ``ranks``, when given, is ``searchsorted(seg_keys, lk)``, proven.
        """
        n_k = seg_keys.size
        eps = self._epsilon
        pred = np.clip(np.trunc(pred_f), -(2.0**62), 2.0**62).astype(np.int64)
        lo = np.maximum(0, np.minimum(n_k, pred - eps))
        hi = np.maximum(lo, np.minimum(n_k, pred + eps + 2))
        window = np.maximum(1, hi - lo)
        if n_k:
            widen_lo = (lo >= n_k) | (seg_keys[np.minimum(lo, n_k - 1)] > lk)
            lo = np.where(widen_lo, 0, lo)
            widen_hi = (hi <= 0) | (seg_keys[np.maximum(hi - 1, 0)] < lk)
            hi = np.where(widen_hi, n_k, hi)
        pos = np.clip(np.searchsorted(seg_keys, lk) if ranks is None else ranks, lo, hi)
        return pos, window

    def _bulk_search(self, lk: np.ndarray, ranks: Optional[np.ndarray]):
        """Vectorized :meth:`_search`; counts match the scalar loop's exactly.

        The level descent runs breadth-wise: every key advances one level
        per pass, with segment params gathered from per-retrain caches. A
        proven ``ranks`` stands in for the bottom level's ``searchsorted``.
        """
        if not self._levels:
            return None
        n = len(self._keys)
        params = self._level_params()
        lcomps = np.zeros(lk.size, dtype=np.int64)
        depths = len(self._levels)
        seg_idx = np.zeros(lk.size, dtype=np.int64)
        for depth in range(depths - 1, 0, -1):
            key0, pos0, slope = params[depth]
            si = np.minimum(seg_idx, len(self._levels[depth]) - 1)
            pred_f = slope[si] * (lk - key0[si]) + pos0[si]
            if not np.isfinite(pred_f).all():
                return None
            seg_keys = self._level_keys[depth - 1]
            pos, window = self._vectorized_bounded_search(seg_keys, lk, pred_f)
            lcomps += np.frexp(window.astype(np.float64))[1].astype(np.int64)
            n_k = seg_keys.size
            hit = (pos < n_k) & (seg_keys[np.minimum(pos, n_k - 1)] == lk)
            seg_idx = np.where(hit, pos, np.maximum(0, pos - 1))
            seg_idx = np.minimum(seg_idx, len(self._levels[depth - 1]) - 1)
        key0, pos0, slope = params[0]
        si = np.minimum(seg_idx, len(self._levels[0]) - 1)
        pred_f = slope[si] * (lk - key0[si]) + pos0[si]
        if not np.isfinite(pred_f).all():
            return None
        idx, window = self._vectorized_bounded_search(self._keys, lk, pred_f, ranks)
        lcomps += np.frexp(window.astype(np.float64))[1].astype(np.int64)
        found = (idx < n) & (self._keys[np.minimum(idx, n - 1)] == lk)
        if not found.all():
            return None
        return lcomps, depths, depths, int(window[-1])

    def _model_bytes(self) -> int:
        """3 params per segment per level, and the level key arrays."""
        segments = sum(len(level) for level in self._levels) * 24
        return segments + sum(arr.size for arr in self._level_keys) * 8
