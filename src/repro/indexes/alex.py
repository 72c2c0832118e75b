"""Updatable adaptive learned index (simplified ALEX).

Implements the core ideas of Ding et al., "ALEX: An Updatable Adaptive
Learned Index" (SIGMOD 2020), which the paper cites as the learned index
with update support:

* Data nodes are **gapped arrays**: each node reserves empty slots so a
  model-predicted insert usually lands in (or near) a free slot without
  shifting the whole array.
* Each data node owns a **linear model** from key to slot, retrained when
  the node is rebuilt.
* A node that exceeds its density bound or accumulates too much model
  error **splits** into two children; routing happens through a sorted
  list of node boundaries (a simplified inner structure).

This captures the performance anatomy the benchmark needs — model-based
search whose cost tracks model error, cheap inserts into gaps, occasional
local rebuilds — without the full ALEX machinery (cost-model-driven
split/expand decisions, adaptive RMI inner nodes).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.indexes.base import OrderedIndex, sorted_unique_pairs
from repro.indexes.keybuffer import SortedKeyBuffer
from repro.indexes.models import LinearModel, fit_linear


class _DataNode:
    """A gapped-array leaf with its own linear key→slot model."""

    __slots__ = ("slots", "vals", "occupied", "model", "count", "capacity")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.slots: List[float] = [0.0] * capacity
        self.vals: List[Any] = [None] * capacity
        self.occupied: List[bool] = [False] * capacity
        self.model = LinearModel(0.0, 0.0)
        self.count = 0

    def rebuild(self, pairs: List[Tuple[float, Any]], density: float) -> None:
        """Re-lay out ``pairs`` evenly in a gapped array at ``density``."""
        n = len(pairs)
        self.capacity = max(8, int(np.ceil(n / density)) if n else 8)
        self.slots = [0.0] * self.capacity
        self.vals = [None] * self.capacity
        self.occupied = [False] * self.capacity
        self.count = n
        if n == 0:
            self.model = LinearModel(0.0, 0.0)
            return
        stride = self.capacity / n
        keys = np.asarray([k for k, _ in pairs], dtype=np.float64)
        slot_ids = np.minimum((np.arange(n) * stride).astype(np.int64), self.capacity - 1)
        # Resolve collisions from integer truncation by pushing right.
        used = -1
        for i, (k, v) in enumerate(pairs):
            s = max(int(slot_ids[i]), used + 1)
            s = min(s, self.capacity - 1)
            while self.occupied[s]:
                s += 1
            self.slots[s] = k
            self.vals[s] = v
            self.occupied[s] = True
            used = s
        placed = np.asarray(
            [i for i in range(self.capacity) if self.occupied[i]], dtype=np.float64
        )
        self.model = fit_linear(keys, placed)

    def pairs(self) -> List[Tuple[float, Any]]:
        """All live pairs in slot (== key) order."""
        return [
            (self.slots[i], self.vals[i])
            for i in range(self.capacity)
            if self.occupied[i]
        ]

    def min_key(self) -> Optional[float]:
        for i in range(self.capacity):
            if self.occupied[i]:
                return self.slots[i]
        return None


class AdaptiveLearnedIndex(OrderedIndex):
    """Gapped-array learned index with model-based inserts (ALEX-like).

    Args:
        node_capacity: Target maximum live keys per data node before split.
        density: Fill factor applied when (re)building a node's gapped array.
    """

    def __init__(self, node_capacity: int = 256, density: float = 0.7) -> None:
        super().__init__()
        if node_capacity < 8:
            raise ConfigurationError(f"node_capacity must be >= 8, got {node_capacity}")
        if not 0.1 <= density <= 0.95:
            raise ConfigurationError(f"density must be in [0.1, 0.95], got {density}")
        self._node_capacity = node_capacity
        self._density = density
        first = _DataNode(capacity=8)
        first.rebuild([], density)
        self._nodes: List[_DataNode] = [first]
        self._boundaries: List[float] = []  # boundaries[i] = min key of nodes[i+1]
        # float64 copy of ``_boundaries`` for ``bulk_lookup`` routing.
        self._boundary_flat = SortedKeyBuffer()
        # Every stored key, ascending (:meth:`key_buffer`).
        self._live = SortedKeyBuffer()
        self._size = 0

    @property
    def node_count(self) -> int:
        """Number of data nodes."""
        return len(self._nodes)

    # -- routing ------------------------------------------------------------------

    def _node_for(self, key: float) -> int:
        self.stats.comparisons += max(1, len(self._boundaries).bit_length())
        return bisect.bisect_right(self._boundaries, key)

    def _search_node(self, node: _DataNode, key: float) -> Optional[int]:
        """Exponential search around the model prediction; slot or None."""
        if node.count == 0:
            return None
        self.stats.model_evaluations += 1
        pred = int(node.model.predict(key))
        pred = min(node.capacity - 1, max(0, pred))
        # Walk to the nearest occupied slot, then exponential-search outward.
        probes = 0
        lo = hi = pred
        window = 1
        best = None
        while lo >= 0 or hi < node.capacity:
            for s in (lo, hi):
                if 0 <= s < node.capacity and node.occupied[s]:
                    probes += 1
                    self.stats.comparisons += 1
                    if node.slots[s] == key:
                        self.stats.last_search_window = max(1, probes)
                        return s
            lo -= 1
            hi += 1
            window += 1
            if window > node.capacity:
                break
        self.stats.last_search_window = max(1, probes)
        return best

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        self.stats.node_accesses += 1
        node = self._nodes[self._node_for(key)]
        slot = self._search_node(node, key)
        if slot is None:
            raise KeyNotFoundError(key)
        return node.vals[slot]

    def bulk_lookup(self, keys, ranks=None) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Batched lookups: vectorized routing + per-node probe loop.

        Routing (the boundary bisect) is one ``searchsorted``; the gapped
        exponential probe is inherently sequential, so it runs per key with
        its comparison/model-evaluation deltas captured. On any miss the
        counters are restored to the pre-call snapshot and ``None`` is
        returned so the caller can fall back to scalar ``get`` calls.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        m = keys.size
        route_bits = max(1, len(self._boundaries).bit_length())
        snap = self.stats.snapshot()
        comps = np.empty(m, dtype=np.int64)
        me = np.empty(m, dtype=np.int64)
        node_idx = np.searchsorted(self._boundary_flat.view, keys, side="right")
        for i in range(m):
            c0 = self.stats.comparisons
            e0 = self.stats.model_evaluations
            node = self._nodes[int(node_idx[i])]
            slot = self._search_node(node, float(keys[i]))
            if slot is None:
                self.stats.comparisons = snap.comparisons
                self.stats.model_evaluations = snap.model_evaluations
                self.stats.last_search_window = snap.last_search_window
                return None
            comps[i] = route_bits + (self.stats.comparisons - c0)
            me[i] = self.stats.model_evaluations - e0
        self.stats.lookups += m
        self.stats.node_accesses += m
        self.stats.comparisons += route_bits * m
        return comps, np.ones(m, dtype=np.int64), me

    # -- insert ------------------------------------------------------------------

    def insert(self, key: float, value: Any) -> None:
        self.stats.inserts += 1
        self.stats.node_accesses += 1
        node_idx = self._node_for(key)
        node = self._nodes[node_idx]
        existing = self._search_node(node, key)
        if existing is not None:
            node.vals[existing] = value
            return
        self.stats.model_evaluations += 1
        pred = int(node.model.predict(key))
        pred = min(node.capacity - 1, max(0, pred))
        slot = self._find_free_slot(node, pred, key)
        if slot is None:
            self._rebuild_or_split(node_idx, extra=(key, value))
        else:
            self._place(node, slot, key, value)
        self._live.add(key)
        self._size += 1
        if node.count > self._node_capacity:
            self._rebuild_or_split(node_idx, extra=None)

    def _place(self, node: _DataNode, slot: int, key: float, value: Any) -> None:
        """Put ``key`` at ``slot``, locally shifting to preserve order."""
        node.slots[slot] = key
        node.vals[slot] = value
        node.occupied[slot] = True
        node.count += 1

    def _find_free_slot(
        self, node: _DataNode, pred: int, key: float
    ) -> Optional[int]:
        """Find a free slot near ``pred`` that keeps slot order consistent.

        Scans outward; a candidate free slot is valid when every occupied
        slot left of it holds a smaller key and every occupied slot right
        of it holds a larger key within the scanned neighborhood.
        """
        cap = node.capacity
        for dist in range(cap):
            moved = 0
            for s in (pred - dist, pred + dist):
                if not 0 <= s < cap or node.occupied[s]:
                    continue
                moved += 1
                self.stats.comparisons += 1
                if self._slot_ok(node, s, key):
                    self.stats.last_search_window = dist + 1
                    return s
            if moved == 0 and pred - dist < 0 and pred + dist >= cap:
                break
        return None

    @staticmethod
    def _slot_ok(node: _DataNode, slot: int, key: float) -> bool:
        left = slot - 1
        while left >= 0 and not node.occupied[left]:
            left -= 1
        if left >= 0 and node.slots[left] > key:
            return False
        right = slot + 1
        while right < node.capacity and not node.occupied[right]:
            right += 1
        if right < node.capacity and node.slots[right] < key:
            return False
        return True

    def _rebuild_or_split(
        self, node_idx: int, extra: Optional[Tuple[float, Any]]
    ) -> None:
        """Rebuild a full node; split it when it exceeds capacity."""
        node = self._nodes[node_idx]
        pairs = node.pairs()
        if extra is not None:
            pos = bisect.bisect_left([k for k, _ in pairs], extra[0])
            pairs.insert(pos, extra)
        self.stats.retrains += 1
        if len(pairs) <= self._node_capacity:
            node.rebuild(pairs, self._density)
            return
        mid = len(pairs) // 2
        left_pairs, right_pairs = pairs[:mid], pairs[mid:]
        node.rebuild(left_pairs, self._density)
        right = _DataNode(capacity=8)
        right.rebuild(right_pairs, self._density)
        self._nodes.insert(node_idx + 1, right)
        self._boundaries.insert(node_idx, right_pairs[0][0])
        self._boundary_flat.insert_at(node_idx, right_pairs[0][0])

    # -- delete ------------------------------------------------------------------

    def delete(self, key: float) -> None:
        node = self._nodes[self._node_for(key)]
        slot = self._search_node(node, key)
        if slot is None:
            raise KeyNotFoundError(key)
        node.occupied[slot] = False
        node.vals[slot] = None
        node.count -= 1
        self._live.delete_at(int(self._live.view.searchsorted(key)))
        self._size -= 1
        self.stats.deletes += 1

    # -- range / iteration ----------------------------------------------------------

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        self.stats.range_scans += 1
        start = self._node_for(low)
        out: List[Tuple[float, Any]] = []
        for node in self._nodes[start:]:
            self.stats.node_accesses += 1
            node_min = node.min_key()
            if node_min is not None and node_min > high:
                break
            for k, v in node.pairs():
                if low <= k <= high:
                    out.append((k, v))
                elif k > high:
                    return out
        return out

    def items(self) -> Iterator[Tuple[float, Any]]:
        for node in self._nodes:
            for k, v in node.pairs():
                yield k, v

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        keys, values = sorted_unique_pairs(pairs)
        dedup: List[Tuple[float, Any]] = list(zip(keys.tolist(), values))
        self._nodes = []
        self._boundaries = []
        self._boundary_flat = SortedKeyBuffer()
        self._live = SortedKeyBuffer(keys)
        self._size = len(dedup)
        self.stats.inserts += len(dedup)
        chunk_size = max(8, int(self._node_capacity * self._density))
        if not dedup:
            node = _DataNode(capacity=8)
            node.rebuild([], self._density)
            self._nodes = [node]
            return
        for start in range(0, len(dedup), chunk_size):
            chunk = dedup[start : start + chunk_size]
            node = _DataNode(capacity=8)
            node.rebuild(chunk, self._density)
            if self._nodes:
                self._boundaries.append(chunk[0][0])
            self._nodes.append(node)
        self._boundary_flat = SortedKeyBuffer(self._boundaries)
        self.stats.retrains += 1

    def key_buffer(self) -> SortedKeyBuffer:
        return self._live

    def size_bytes(self) -> int:
        """Gapped slots (keys + values + occupancy) + models + routing."""
        slots = sum(node.capacity for node in self._nodes)
        return slots * 17 + len(self._nodes) * 32 + len(self._boundaries) * 8

    def __len__(self) -> int:
        return self._size
