"""Growable sorted float64 key buffer.

The vectorised read path (``bulk_lookup``, ``KVStoreBase._snap_batch``)
searches a flat sorted array of the stored keys. Writes patch that array
in place instead of dropping and rebuilding it: a new key is one slice
move inside a buffer with spare capacity, and a sorted batch of new keys
moves each stretch of the old ones once, so the flat view is never stale
and never costs O(n) Python work per write.
"""

from __future__ import annotations

import numpy as np


class SortedKeyBuffer:
    """Sorted, duplicate-free float64 keys in a capacity-doubling buffer.

    Args:
        keys: Initial keys, already sorted and unique. The first buffer
            is exactly this size; capacity doubles when an insert finds
            it full.
    """

    __slots__ = ("_buf", "_n")
    _dtype = np.float64

    def __init__(self, keys=()) -> None:
        self._buf = np.array(keys, dtype=self._dtype)
        self._n = self._buf.size

    def __len__(self) -> int:
        return self._n

    @property
    def view(self) -> np.ndarray:
        """The live keys (a view: valid until the next write)."""
        return self._buf[: self._n]

    def _reserve(self, extra: int) -> None:
        """Make room for ``extra`` more keys, at least doubling when full."""
        n = self._n
        if n + extra > self._buf.size:
            grown = np.empty(max(16, 2 * n, n + extra), dtype=self._dtype)
            grown[:n] = self._buf[:n]
            self._buf = grown

    def insert_at(self, pos: int, key: float) -> None:
        """Insert ``key`` at ``pos``, its sorted insertion point."""
        n = self._n
        self._reserve(1)
        # A memoryview slice assignment is one memmove; numpy would copy
        # the overlapping slice through a temporary first.
        mem = memoryview(self._buf)
        mem[pos + 1 : n + 1] = mem[pos:n]
        self._buf[pos] = key
        self._n = n + 1

    def merge(self, points, keys) -> None:
        """Insert the batch ``keys`` at their insertion ``points``, in place.

        ``points`` are positions in the current view, non-decreasing
        (equal points keep the batch's order), so ``keys[i]`` ends up at
        ``points[i] + i``. Back to front, each stretch of old keys between
        two points moves once, by one ``memmove``: no temporary the size
        of the buffer.
        """
        points = np.asarray(points, dtype=np.intp)
        m = points.size
        if not m:
            return
        self._reserve(m)
        mem = memoryview(self._buf)
        end = self._n
        for i, point in zip(range(m, 0, -1), points[::-1].tolist()):
            mem[point + i : end + i] = mem[point:end]
            end = point
        self._buf[points + np.arange(m)] = keys
        self._n += m

    def delete_at(self, pos: int) -> None:
        """Remove the key at ``pos``."""
        n = self._n
        mem = memoryview(self._buf)
        mem[pos : n - 1] = mem[pos + 1 : n]
        self._n = n - 1

    def add(self, key: float) -> None:
        """Insert ``key`` unless it is already present."""
        view = self.view
        pos = int(view.searchsorted(key))
        if pos == self._n or view[pos] != key:
            self.insert_at(pos, key)


class PositionTagBuffer(SortedKeyBuffer):
    """One ``intp`` tag per position of a key buffer, moved in step with it.

    The B+ tree keeps each flat-view position's leaf number here; tags of
    consecutive positions are non-decreasing, not unique.
    """

    __slots__ = ()
    _dtype = np.intp
