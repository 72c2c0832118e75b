"""The delta-buffer design the RMI and the PGM index share.

"Are Updatable Learned Indexes Ready?" sorts updatable learned indexes
into in-place designs (ALEX, :mod:`repro.indexes.alex`) and delta-buffer
ones; :class:`DeltaBufferedIndex` is the second, written once. The *base*
is a sorted float64 key array and its values, which the model is trained
on. The *delta* holds the keys written since the last merge, in one
:class:`~repro.indexes.keybuffer.SortedKeyBuffer` beside a values list; a
delta key equal to a base key *shadows* it. The *tombstones* are deleted
base keys, with ``tombstones ⊆ base \\ delta`` as the invariant: an insert
lifts its key's tombstone, and deleting a delta key that shadows a base
key tombstones the base key too, so the old value cannot come back.

A retrain merges delta and tombstones into the base (a shadowing key
keeps the base key's bits: ``-0.0`` stays ``-0.0`` under ``0.0``) and
rebuilds the model; so does an insert that grows the delta past
``max_delta``. A subclass supplies only its model: ``_train``,
``_search``, ``_bulk_search`` and ``_model_bytes``.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import KeyNotFoundError
from repro.indexes.base import OrderedIndex, sorted_unique_pairs, verified_ranks
from repro.indexes.keybuffer import SortedKeyBuffer


def _held(sorted_keys: np.ndarray, keys) -> np.ndarray:
    """Which of ``keys`` the ascending ``sorted_keys`` hold, by binary search."""
    return np.searchsorted(sorted_keys, keys, "right") > np.searchsorted(sorted_keys, keys)


class DeltaBufferedIndex(OrderedIndex):
    """A learned model over a sorted base array, with a delta buffer for writes.

    Args:
        max_delta: Inserts buffered before an automatic retrain; ``None``
            disables auto-retraining (the caller controls retrains).
    """

    #: ``model_evaluations`` a ``range`` over a non-empty base charges.
    RANGE_MODEL_EVALUATIONS = 0

    def __init__(self, max_delta: Optional[int]) -> None:
        super().__init__()
        self._max_delta = max_delta
        self._keys: np.ndarray = np.empty(0, dtype=np.float64)
        self._values: List[Any] = []
        self._clear_delta()

    def _clear_delta(self) -> None:
        self._delta = SortedKeyBuffer()
        self._delta_values: List[Any] = []
        self._tombstones: set = set()

    @property
    def delta_size(self) -> int:
        """Number of buffered (unlearned) inserts."""
        return len(self._delta)

    # -- what the model supplies --------------------------------------------------

    @abstractmethod
    def _train(self) -> None:
        """Build the model over the base; counts one retrain."""

    @abstractmethod
    def _search(self, key: float) -> Optional[int]:
        """``key``'s position in the base, or ``None``; counts its own work."""

    @abstractmethod
    def _bulk_search(self, keys: np.ndarray, ranks: Optional[np.ndarray]) -> Optional[tuple]:
        """:meth:`_search` over a non-empty base, vectorised, stats untouched:
        per-key comparisons, node accesses and model evaluations, and the
        last key's window; ``None`` if any key misses. ``ranks`` is ``None``
        or each key's proven position in the base."""

    @abstractmethod
    def _model_bytes(self) -> int:
        """The model's part of :meth:`size_bytes`."""

    # -- build ----------------------------------------------------------------------

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Sort, dedupe (last value wins) and train on ``pairs``."""
        self._keys, self._values = sorted_unique_pairs(pairs)
        self._clear_delta()
        self.stats.inserts += len(self._keys)
        self._train()

    def retrain(self) -> None:
        """Merge the delta and the tombstones into the base; rebuild the model."""
        self._merge()
        self._train()

    def _merge(self) -> None:
        """Fold the delta and the tombstones into the base."""
        if len(self._delta) or self._tombstones:
            pairs = self._live_pairs(float("-inf"), float("inf"))
            self._keys = np.fromiter((k for k, _ in pairs), np.float64, len(pairs))
            self._values = [v for _, v in pairs]
            self._clear_delta()

    def _live_pairs(self, low: float, high: float) -> List[Tuple[float, Any]]:
        """The stored pairs in ``[low, high]``, ascending; counts nothing."""
        lo = int(np.searchsorted(self._keys, low, side="left"))
        hi = int(np.searchsorted(self._keys, high, side="right"))
        base = zip(self._keys[lo:hi].tolist(), self._values[lo:hi])
        out = {k: v for k, v in base if k not in self._tombstones}
        view = self._delta.view
        dlo = int(view.searchsorted(low, side="left"))
        dhi = int(view.searchsorted(high, side="right"))
        # A delta key equal to a base key takes its value, not its bits.
        out.update(zip(view[dlo:dhi].tolist(), self._delta_values[dlo:dhi]))
        return sorted(out.items(), key=lambda kv: kv[0])

    # -- reads ------------------------------------------------------------------------

    def _delta_probe(self, key: float) -> Tuple[int, bool]:
        """``key``'s insertion point in the delta and whether it is there."""
        if not self._delta_values:
            return 0, False
        view = self._delta.view
        pos = int(view.searchsorted(key))
        return pos, bool(pos < view.size and view[pos] == key)

    def get(self, key: float) -> Any:
        self.stats.lookups += 1
        if key in self._tombstones:
            raise KeyNotFoundError(key)
        # Delta buffer first: most-recent writes win.
        dpos, in_delta = self._delta_probe(key)
        self.stats.comparisons += max(1, len(self._delta_values).bit_length())
        if in_delta:
            return self._delta_values[dpos]
        idx = self._search(key)
        if idx is None:
            raise KeyNotFoundError(key)
        return self._values[idx]

    def bulk_lookup(self, keys, ranks=None) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorized :meth:`get` over found keys; stats match exactly.

        Keys the delta does not hold go to :meth:`_bulk_search`. A verified
        ``ranks`` hint (positions among *all* stored keys) stands in for its
        base search; while the delta holds keys, it usually fails to verify.
        """
        if self._tombstones:
            return None
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        m = keys.size
        comps = np.full(m, max(1, len(self._delta).bit_length()), dtype=np.int64)
        na = np.zeros(m, dtype=np.int64)
        me = np.zeros(m, dtype=np.int64)
        learned = ~_held(self._delta.view, keys)
        last_window = None
        if m and learned.any():
            if not len(self._keys):
                return None
            hinted = verified_ranks(ranks, self._keys, keys)
            found = self._bulk_search(keys[learned], None if hinted is None else hinted[learned])
            if found is None:
                return None
            lcomps, lna, lme, last_window = found
            comps[learned] += lcomps
            na[learned] += lna
            me[learned] += lme
        self.stats.lookups += m
        self.stats.comparisons += int(comps.sum())
        self.stats.node_accesses += int(na.sum())
        self.stats.model_evaluations += int(me.sum())
        if last_window is not None:
            self.stats.last_search_window = last_window
        return comps, na, me

    # -- writes -----------------------------------------------------------------------

    def insert(self, key: float, value: Any) -> None:
        self.stats.inserts += 1
        self._tombstones.discard(key)
        dpos, in_delta = self._delta_probe(key)
        if in_delta:
            self._delta_values[dpos] = value
        else:
            self._delta.insert_at(dpos, key)
            self._delta_values.insert(dpos, value)
        self.stats.node_accesses += 1
        if self._max_delta is not None and len(self._delta) > self._max_delta:
            self.retrain()

    def delete(self, key: float) -> None:
        dpos, in_delta = self._delta_probe(key)
        if in_delta:
            self._delta.delete_at(dpos)
            del self._delta_values[dpos]
        elif self._search(key) is None or key in self._tombstones:
            raise KeyNotFoundError(key)
        if _held(self._keys, key):
            self._tombstones.add(key)  # a base copy goes too, shadowed or not
        self.stats.deletes += 1

    # -- range / iteration ----------------------------------------------------------

    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        self.stats.range_scans += 1
        if len(self._keys):
            lo = int(np.searchsorted(self._keys, low, side="left"))
            hi = int(np.searchsorted(self._keys, high, side="right"))
            self.stats.model_evaluations += self.RANGE_MODEL_EVALUATIONS
            self.stats.node_accesses += max(1, hi - lo)
        return self._live_pairs(low, high)

    def items(self) -> Iterator[Tuple[float, Any]]:
        return iter(self.range(float("-inf"), float("inf")))

    def size_bytes(self) -> int:
        """Base and delta keys with value pointers, plus the model."""
        return 16 * (len(self._keys) + len(self._delta)) + self._model_bytes()

    def __len__(self) -> int:
        shadowing = int(_held(self._keys, self._delta.view).sum())
        return len(self._keys) - len(self._tombstones) + len(self._delta) - shadowing
