"""Growable sorted float64 key buffer, with an exact bucket directory for snaps.

The vectorised read path (``bulk_lookup``, ``KVStoreBase._snap_batch``)
searches a flat sorted array of the stored keys. Writes patch that array
in place instead of dropping and rebuilding it: a new key is one slice
move inside a buffer with spare capacity, and a sorted batch of new keys
moves each stretch of the old ones once, so the flat view is never stale
and never costs O(n) Python work per write.

A buffer of ``n`` initial keys starts with room for ``n + n // 8`` (an
empty one for 16), so the first writes after a load fit without copying
the buffer; once full, capacity at least doubles.

A large snap (:meth:`SortedKeyBuffer.snap`) reads a *bucket directory*:
a position model over the view with a bounded last-mile search, the
learned-index idea applied to the harness itself, and exact.

- **Buckets.** ``n`` equal-width buckets span ``[view[0], view[-1]]``;
  a key's bucket is ``clip(floor((x - lo) * scale), 0, n - 1)`` and
  ``table[b]`` counts the keys whose bucket is below ``b`` (one
  ``bincount`` and a ``cumsum``).
- **Exactness.** Rounded subtraction, multiplication by a positive
  constant, ``floor`` and ``clip`` are each monotone, so the bucket
  function is monotone under IEEE arithmetic: a key in a lower bucket
  than a needle's is below the needle, and one in a higher bucket is
  above it. Hence
  ``table[b] <= searchsorted(view, x) <= table[b + 1]`` for every
  needle ``x`` in bucket ``b``, with no tolerance.
- **Refine.** A few fixed vectorised steps of a branch-free lower bound
  from ``table[b]`` find the insertion point, as many as the fullest
  bucket needs (at most three). The search runs over a
  ``(nan, view, +inf...)`` padded copy, so neither the steps nor the
  nearest-key tie rule need a clamp: the ``nan`` below the first key
  loses every tie, the ``+inf`` past the last wins none.
- **Fallback.** Rows in a bucket holding more keys than the steps can
  cover (clustered keys), and non-finite needles, go through the
  general snap: sort them, search the view in that order, scatter back.
  Only those rows pay for it. When more than half of the keys sit in
  crowded buckets (a skewed set such as ``osm``), most rows would, so
  the directory serves none and every row takes the general path.
- **Rebuild rule.** Every write drops the directory. A snap of at least
  ``n / 8`` needles rebuilds it (the build costs about as much as
  snapping ``n / 8`` rows the general way); a smaller snap against a
  dropped directory takes the general path for all its rows.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Most refine steps: a bucket may hold up to ``2**3 - 1`` keys.
_MAX_STEPS = 3


class SortedKeyBuffer:
    """Sorted, duplicate-free float64 keys in a capacity-doubling buffer.

    Args:
        keys: Initial keys, already sorted and unique (copied). The first
            buffer holds ``n + n // 8`` keys (16 when empty); capacity at
            least doubles when a write finds it full.
    """

    __slots__ = ("_buf", "_n", "_directory")
    _dtype = np.float64

    def __init__(self, keys=()) -> None:
        """Copy ``keys`` into a fresh buffer with an eighth of headroom."""
        keys = np.asarray(keys, dtype=self._dtype)
        n = keys.size
        self._buf = np.empty(n + n // 8 if n else 16, dtype=self._dtype)
        self._buf[:n] = keys
        self._n = n
        self._directory = None

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
        self._directory = None
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
        self._directory = None
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
        self._directory = None
        mem = memoryview(self._buf)
        mem[pos : n - 1] = mem[pos + 1 : n]
        self._n = n - 1

    def add(self, key: float) -> None:
        """Insert ``key`` unless it is already present."""
        view = self.view
        pos = int(view.searchsorted(key))
        if pos == self._n or view[pos] != key:
            self.insert_at(pos, key)

    def snap(self, needles: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nearest stored key to each float64 needle, ties to the lower.

        Returns ``(targets, ranks, gaps)``, the last two ``intp``: each
        needle's nearest key, that key's position, and the needle's
        insertion point (``searchsorted``, left). The buffer must not be
        empty. A call of at least ``n / 8`` needles reads the bucket
        directory, building it if a write dropped it; a smaller one on a
        dropped directory takes the general path.
        """
        view = self.view
        directory = self._directory
        if directory is None:
            if 8 * needles.size < self._n:
                return _snap_sorted(view, needles)
            directory = self._directory = _BucketDirectory(view)
        return directory.snap(view, needles)


class _BucketDirectory:
    """Bucket counts over one state of a key view (see the module docstring).

    ``table`` is ``None`` when the keys admit no finite positive scale
    (one key, or a non-finite first or last key), or when more than half
    of them sit in crowded buckets; every row then takes the general
    path.
    """

    __slots__ = ("lo", "scale", "top", "table", "steps", "crowded", "padded")

    def __init__(self, view: np.ndarray) -> None:
        n = view.size
        self.table = None
        with np.errstate(all="ignore"):
            self.lo = view[0]
            self.scale = n / (view[-1] - self.lo)
        if n < 2 or not (np.isfinite(self.lo) and 0 < self.scale < np.inf):
            return
        self.top = n - 1
        counts = np.bincount(self._buckets(view, np.empty(n)), minlength=n)
        fullest = int(counts.max())
        self.steps = [1 << i for i in reversed(range(min(_MAX_STEPS, fullest.bit_length())))]
        cover = 2 * self.steps[0] - 1
        self.crowded = None
        if fullest > cover:
            self.crowded = counts > cover
            if 2 * counts[self.crowded].sum() > n:
                return  # clustered keys: most snaps would fall back anyway
        self.table = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=self.table[1:])
        self.padded = np.concatenate(([np.nan], view, np.full(cover + 1, np.inf)))

    def _buckets(self, x: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The bucket of each of ``x`` (garbage for a NaN), through the
        float scratch ``work``."""
        np.subtract(x, self.lo, out=work)
        work *= self.scale
        np.clip(work, 0, self.top, out=work)
        return work.astype(np.intp)

    def snap(self, view: np.ndarray, needles: np.ndarray):
        """:meth:`SortedKeyBuffer.snap` through the directory.

        ``padded[j + 1]`` is ``view[j]``. Each step moves a row's gap up
        by ``step`` when the key just below the new gap is below the
        needle; the scratch arrays are reused, as fresh ones of this
        size cost more in page faults than the arithmetic on them.
        """
        if self.table is None:
            return _snap_sorted(view, needles)
        padded = self.padded
        # A NaN or infinite needle makes invalid values (a NaN bucket,
        # inf - inf) only in its own row, which the fallback overwrites; a
        # finite needle whose ``x - lo`` overflows lands in an end bucket.
        with np.errstate(invalid="ignore", over="ignore"):
            work = np.empty(needles.size)
            probe = self._buckets(needles, work)
            fallback = ~np.isfinite(needles)
            if self.crowded is not None:
                fallback |= self.crowded.take(probe, mode="clip")
            gaps = self.table.take(probe, mode="clip")
            below = np.empty(needles.size, dtype=bool)
            for step in self.steps:
                np.add(gaps, step, out=probe)
                padded.take(probe, out=work, mode="clip")
                np.less(work, needles, out=below)
                np.multiply(below, step, out=probe)
                gaps += probe
            # The tie rule of ``_snap_sorted``: lower neighbour unless the
            # upper one is strictly nearer.
            padded.take(gaps, out=work, mode="clip")
            np.subtract(needles, work, out=work)
            ranks = np.add(gaps, 1, out=probe)
            targets = padded.take(ranks, mode="clip")
            np.subtract(targets, needles, out=targets)
            np.less_equal(work, targets, out=below)
            np.subtract(gaps, below, out=ranks)
            view.take(ranks, out=targets, mode="clip")
        rows = np.flatnonzero(fallback)
        if rows.size:
            targets[rows], ranks[rows], gaps[rows] = _snap_sorted(view, needles[rows])
        return targets, ranks, gaps


def _snap_sorted(view: np.ndarray, needles: np.ndarray):
    """The general snap: :meth:`SortedKeyBuffer.snap` for any sorted ``view``.

    The needles are searched in sorted order, which walks the view front
    to back instead of jumping through it, and scattered back. Clamped
    neighbours make both ends fall out of the tie rule: below the first
    key or past the last, ``lo`` and ``hi`` coincide. Infinite keys and
    needles can make ``inf - inf``; its NaN compares false and picks
    ``hi``, so only the warning needs silencing.
    """
    order = np.argsort(needles)
    gaps = np.empty(needles.size, dtype=np.intp)
    gaps[order] = np.searchsorted(view, needles[order])
    lo = np.maximum(gaps - 1, 0)
    hi = np.minimum(gaps, view.size - 1)
    ranks = np.where(lower_is_nearest(needles, view[lo], view[hi]), lo, hi)
    return view[ranks], ranks, gaps


def lower_is_nearest(needles: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The snap's tie rule: whether each needle snaps to its ``lower``
    neighbour rather than its ``upper`` one (ties go to the lower)."""
    with np.errstate(invalid="ignore"):
        return needles - lower <= upper - needles

