"""Sorted-array index with binary search.

The simplest ordered baseline: keys live in one sorted float64 buffer
(:class:`~repro.indexes.keybuffer.SortedKeyBuffer`) and lookups
binary-search it. Inserts shift elements, which is O(n) — exactly the
trade-off a B+ tree or an updatable learned index is meant to beat, so
this structure anchors the cost-model calibration.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import KeyNotFoundError
from repro.indexes.base import OrderedIndex, sorted_unique_pairs
from repro.indexes.keybuffer import SortedKeyBuffer


class SortedArrayIndex(OrderedIndex):
    """Binary-searched sorted array of key/value pairs."""

    def __init__(self) -> None:
        super().__init__()
        self._keys = SortedKeyBuffer()
        self._values: List[Any] = []

    def _locate(self, key: float) -> Tuple[int, bool]:
        """``key``'s insertion point and whether it is stored, counting comparisons."""
        keys = memoryview(self._keys.view)  # plain floats, no numpy scalars
        lo, hi, steps = 0, len(keys), 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        self.stats.comparisons += steps
        return lo, lo < len(keys) and keys[lo] == key

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        self.stats.node_accesses += 1
        pos, found = self._locate(key)
        if found:
            return self._values[pos]
        raise KeyNotFoundError(key)

    def bulk_lookup(self, keys, ranks=None) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized masked binary search replicating :meth:`_locate`.

        The lockstep search takes the same branch per key per round as
        the scalar loop, so per-key comparison counts match exactly.
        """
        n = len(self._keys)
        if n == 0:
            return None
        arr = self._keys.view
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        m = keys.size
        lo = np.zeros(m, dtype=np.int64)
        hi = np.full(m, n, dtype=np.int64)
        comps = np.zeros(m, dtype=np.int64)
        active = lo < hi
        while active.any():
            mid = (lo + hi) // 2
            comps[active] += 1
            go_right = np.zeros(m, dtype=bool)
            go_right[active] = arr[mid[active]] < keys[active]
            lo = np.where(active & go_right, mid + 1, lo)
            hi = np.where(active & ~go_right, mid, hi)
            active = lo < hi
        if not (arr[np.minimum(lo, n - 1)] == keys).all() or bool((lo >= n).any()):
            return None
        self.stats.lookups += m
        self.stats.node_accesses += m
        self.stats.comparisons += int(comps.sum())
        return comps, np.ones(m, dtype=np.int64), np.zeros(m, dtype=np.int64)

    def insert(self, key: float, value: Any) -> None:
        pos, found = self._locate(key)
        if found:
            self._values[pos] = value
        else:
            self._keys.insert_at(pos, key)
            self._values.insert(pos, value)
        self.stats.inserts += 1
        self.stats.node_accesses += 1

    def delete(self, key: float) -> None:
        pos, found = self._locate(key)
        if not found:
            raise KeyNotFoundError(key)
        self._keys.delete_at(pos)
        del self._values[pos]
        self.stats.deletes += 1

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        self.stats.range_scans += 1
        keys = self._keys.view
        lo = int(keys.searchsorted(low, side="left"))
        hi = int(keys.searchsorted(high, side="right"))
        self.stats.comparisons += max(1, (len(keys)).bit_length() * 2)
        self.stats.node_accesses += max(1, hi - lo)
        return list(zip(keys[lo:hi].tolist(), self._values[lo:hi]))

    def items(self) -> Iterator[Tuple[float, Any]]:
        return iter(zip(self._keys.view.tolist(), list(self._values)))

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        keys, self._values = sorted_unique_pairs(pairs)  # last value wins
        self._keys = SortedKeyBuffer(keys)
        self.stats.inserts += len(self._keys)

    def __len__(self) -> int:
        return len(self._keys)
