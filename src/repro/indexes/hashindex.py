"""Hash index baseline.

An unordered structure backed by a Python dict. Point operations are O(1);
range scans must sort the full key set, which is the classical argument
for keeping an ordered index around — the benchmark's YCSB-E (scan-heavy)
workload makes this trade-off visible. The sorted key buffer a key-value
store snaps against is kept beside the table and costs no counted work.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import KeyNotFoundError
from repro.indexes.base import OrderedIndex
from repro.indexes.keybuffer import SortedKeyBuffer


class HashIndex(OrderedIndex):
    """Dict-backed hash index with O(n log n) range scans."""

    def __init__(self) -> None:
        super().__init__()
        self._table: Dict[float, Any] = {}
        # Every stored key, ascending (:meth:`key_buffer`).
        self._live = SortedKeyBuffer()

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        self.stats.node_accesses += 1
        self.stats.comparisons += 1
        try:
            return self._table[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def insert(self, key: float, value: Any) -> None:
        self.stats.inserts += 1
        self.stats.node_accesses += 1
        if key not in self._table:
            self._live.add(key)
        self._table[key] = value

    def delete(self, key: float) -> None:
        if key not in self._table:
            raise KeyNotFoundError(key)
        del self._table[key]
        self._live.delete_at(int(self._live.view.searchsorted(key)))
        self.stats.deletes += 1

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        self.stats.range_scans += 1
        # A hash table has no order: a range scan inspects every key.
        self.stats.node_accesses += max(1, len(self._table))
        self.stats.comparisons += len(self._table)
        hits = [(k, v) for k, v in self._table.items() if low <= k <= high]
        hits.sort(key=lambda kv: kv[0])
        return hits

    def items(self) -> Iterator[Tuple[float, Any]]:
        return iter(sorted(self._table.items(), key=lambda kv: kv[0]))

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Store ``pairs`` (last value wins), counting each key kept once."""
        loaded = dict(pairs)
        self._table.update(loaded)
        self._live = SortedKeyBuffer(
            np.sort(np.fromiter(self._table, np.float64, len(self._table)))
        )
        self.stats.inserts += len(loaded)

    def key_buffer(self) -> SortedKeyBuffer:
        return self._live

    def __len__(self) -> int:
        return len(self._table)
