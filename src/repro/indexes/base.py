"""Common interface for ordered key-value indexes.

Every index in :mod:`repro.indexes` implements :class:`OrderedIndex` so the
key-value systems under test (:mod:`repro.suts`) can swap structures freely.
Keys are numeric (``float`` or ``int``); values are arbitrary objects.

Indexes also expose :class:`IndexStats`, a per-operation cost accounting
record used by the virtual-time cost models: a lookup reports how many
node probes / comparisons it performed, and the cost model converts those
counts into simulated service time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.indexes.keybuffer import SortedKeyBuffer


def key_column(pairs) -> np.ndarray:
    """The float64 keys of ``pairs``, in input order.

    A pair sequence backed by a key column (``pairs.key_column``, as the
    driver's initial load is) hands the column over; anything else costs
    one pass over its tuples.
    """
    column = getattr(pairs, "key_column", None)
    if column is None:
        return np.fromiter((k for k, _ in pairs), np.float64, len(pairs))
    return column


def strictly_ascending(keys: np.ndarray) -> bool:
    """Whether ``keys`` is already sorted and duplicate-free."""
    return bool((keys[1:] > keys[:-1]).all())


def sorted_unique_pairs(pairs) -> Tuple[np.ndarray, Sequence[Any]]:
    """Ascending unique float64 keys of ``pairs`` and their values.

    The one load-time sort every ``bulk_load`` shares: a stable argsort
    keeps equal keys in input order, so keeping the last of each run is
    "last value wins". Strictly ascending keys of a column-backed
    sequence come back as they are, key column and value sequence alike
    (the driver's ``range`` of ranks stays a ``range``): treat both as
    read-only, and copy the values before writing to them. A tuple list
    yields a new values list, and an unsorted or duplicated load new
    keys and a new values list.
    """
    keys = key_column(pairs)
    values = pairs.values if hasattr(pairs, "key_column") else [v for _, v in pairs]
    if strictly_ascending(keys):
        return keys, values
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return keys[last], [values[i] for i in order[last].tolist()]


def verified_ranks(ranks, sorted_keys: np.ndarray, keys: np.ndarray) -> Optional[np.ndarray]:
    """``ranks`` if it provably is where each of ``keys`` sits, else ``None``.

    ``ranks`` is an untrusted hint. It is returned only after its type,
    shape and bounds have been checked and ``sorted_keys[ranks] == keys``
    holds for every key, which on a strictly ascending ``sorted_keys``
    makes it equal to ``searchsorted(sorted_keys, keys)``.
    """
    proven = (
        isinstance(ranks, np.ndarray)
        and ranks.dtype.kind in "iu"
        and ranks.shape == keys.shape
        and (not keys.size or (ranks.min() >= 0 and ranks.max() < sorted_keys.size))
        and bool((sorted_keys[ranks] == keys).all())
    )
    return ranks.astype(np.intp, copy=False) if proven else None


def verified_gaps(ranks, sorted_keys: np.ndarray, keys: np.ndarray) -> Optional[np.ndarray]:
    """``ranks`` if it provably is each of ``keys``' insertion point, else ``None``.

    The insertion point is ``searchsorted(sorted_keys, keys)`` (left): a
    stored key's position, an unstored key's gap. ``ranks`` is the same
    untrusted hint :func:`verified_ranks` checks, returned only after its
    type, shape and bounds have been checked and
    ``sorted_keys[r - 1] < key <= sorted_keys[r]`` holds for every key,
    with no bound below a rank of 0 and none above ``len(sorted_keys)``.
    """
    n = sorted_keys.size
    if not (
        isinstance(ranks, np.ndarray)
        and ranks.dtype.kind in "iu"
        and ranks.shape == keys.shape
        and n
        and (not keys.size or (ranks.min() >= 0 and ranks.max() <= n))
    ):
        return None
    ranks = ranks.astype(np.intp, copy=False)
    below = (ranks == 0) | (sorted_keys.take(ranks - 1, mode="clip") < keys)
    above = (ranks == n) | (keys <= sorted_keys.take(ranks, mode="clip"))
    return ranks if (below & above).all() else None


@dataclass
class IndexStats:
    """Cumulative operation counters for an index.

    Attributes:
        lookups: Number of point lookups served.
        inserts: Number of successful inserts.
        deletes: Number of successful deletes.
        range_scans: Number of range scans served.
        comparisons: Total key comparisons performed (search work).
        node_accesses: Total node/block touches (memory-hierarchy work).
        model_evaluations: Total learned-model evaluations (learned
            indexes only; zero for traditional structures).
        retrains: Number of times the structure rebuilt or retrained.
        last_search_window: Width of the bounded search window used by
            the most recent learned lookup (0 for exact model hits).
    """

    lookups: int = 0
    inserts: int = 0
    deletes: int = 0
    range_scans: int = 0
    comparisons: int = 0
    node_accesses: int = 0
    model_evaluations: int = 0
    retrains: int = 0
    last_search_window: int = 0

    def snapshot(self) -> "IndexStats":
        """Return a copy of the current counters."""
        return IndexStats(
            lookups=self.lookups,
            inserts=self.inserts,
            deletes=self.deletes,
            range_scans=self.range_scans,
            comparisons=self.comparisons,
            node_accesses=self.node_accesses,
            model_evaluations=self.model_evaluations,
            retrains=self.retrains,
            last_search_window=self.last_search_window,
        )

    def diff(self, earlier: "IndexStats") -> "IndexStats":
        """Return counters accumulated since an ``earlier`` snapshot."""
        return IndexStats(
            lookups=self.lookups - earlier.lookups,
            inserts=self.inserts - earlier.inserts,
            deletes=self.deletes - earlier.deletes,
            range_scans=self.range_scans - earlier.range_scans,
            comparisons=self.comparisons - earlier.comparisons,
            node_accesses=self.node_accesses - earlier.node_accesses,
            model_evaluations=self.model_evaluations - earlier.model_evaluations,
            retrains=self.retrains - earlier.retrains,
            last_search_window=self.last_search_window,
        )


class OrderedIndex(ABC):
    """Abstract ordered index over numeric keys.

    Implementations must keep :attr:`stats` up to date; the benchmark's
    cost models read those counters to charge virtual time per operation.
    """

    def __init__(self) -> None:
        self.stats = IndexStats()

    # -- required interface -------------------------------------------------

    @abstractmethod
    def get(self, key: float) -> Any:
        """Return the value stored under ``key``.

        Raises:
            KeyNotFoundError: If ``key`` is absent.
        """

    @abstractmethod
    def insert(self, key: float, value: Any) -> None:
        """Insert ``key`` → ``value``; overwrite if the key exists."""

    @abstractmethod
    def delete(self, key: float) -> None:
        """Remove ``key``.

        Raises:
            KeyNotFoundError: If ``key`` is absent.
        """

    @abstractmethod
    def range(self, low: float, high: float) -> List[Tuple[float, Any]]:
        """Return all ``(key, value)`` pairs with ``low <= key <= high``,
        in ascending key order."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[float, Any]]:
        """Iterate all pairs in ascending key order."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of keys stored."""

    def key_buffer(self) -> SortedKeyBuffer:
        """The stored keys, ascending, as a live :class:`SortedKeyBuffer`.

        Exact after every operation: the index's own ``bulk_load``,
        ``insert``, ``bulk_apply`` and ``delete`` keep it, and keeping it
        counts nothing in :attr:`stats`. Writing a key equal to a stored
        one (``0.0`` onto ``-0.0``) keeps the stored one. Callers read and snap
        against it, never write it. The key-value stores snap, scan and
        count against it; every index in :mod:`repro.indexes` supplies
        one (a B+ tree or a sorted array hands over its own key array).
        """
        raise NotImplementedError(f"{type(self).__name__} keeps no key buffer")

    # -- optional interface --------------------------------------------------

    def bulk_lookup(self, keys, ranks=None) -> "Any":
        """Vectorized point lookups over a float64 key array, or ``None``.

        Contract: when supported and *every* key is found, perform the
        lookups, commit exactly the counter increments the equivalent
        sequence of :meth:`get` calls would have made to :attr:`stats`,
        and return a ``(comparisons, node_accesses, model_evaluations)``
        tuple of per-key int arrays, in query order. Return ``None`` —
        with :attr:`stats` untouched — when the bulk path is unsupported
        or any key would miss; the caller then falls back to scalar
        :meth:`get` calls. Default: unsupported.

        ``ranks`` is an optional, *untrusted* hint: the caller's belief
        of each key's position among the stored keys in ascending order
        (the SUT learns it while snapping). It never changes the result.
        An index may skip its own search for the keys only after
        :func:`verified_ranks` has proved the hint; a hint that is
        missing, malformed or wrong is ignored and the index searches.
        """
        return None

    def bulk_apply(self, keys, ranks, writes, values) -> "Any":
        """Vectorized gets and inserts in row order, or ``None``.

        Row ``i`` is a :meth:`get` of ``keys[i]`` when ``writes[i]`` is
        false, else an :meth:`insert` of ``keys[i]`` → ``values[i]``: a
        new key, or an overwrite when the key is stored or an earlier row
        wrote it (a repeated key keeps its last value). A read may be of a
        stored key or of one an earlier row wrote. Contract: when
        supported, perform the rows in order up to the first row the
        index cannot serve exactly (a B+ tree leaf split, say), commit
        exactly the counter increments that call sequence would have made
        (``lookups`` for reads, ``inserts`` for writes, plus comparisons
        and node accesses), and return a ``(comparisons, node_accesses,
        model_evaluations)`` tuple of per-row int arrays for the rows
        served, a prefix of the call. Return ``None`` — with
        :attr:`stats`, every value and the key set untouched — when the
        bulk path is unsupported, row 0 cannot be served, or a read's key
        is neither stored at the start of the call nor written by an
        earlier row. ``ranks`` is an untrusted hint of each key's
        insertion point in the key set before the call (a stored key's
        position, an unstored key's gap); an index may skip its own
        search only after :func:`verified_gaps` has proved it. Default:
        unsupported.

        An index that overrides this promises that a row's cost depends
        only on the rows before it in the call, never on later ones: the
        key-value store then serves READ, UPDATE and INSERT in one run.
        """
        return None

    def contains(self, key: float) -> bool:
        """Return whether ``key`` is present (default: probe ``get``)."""
        from repro.errors import KeyNotFoundError

        try:
            self.get(key)
        except KeyNotFoundError:
            return False
        return True

    def bulk_load(self, pairs: List[Tuple[float, Any]]) -> None:
        """Load sorted-or-unsorted pairs; default inserts one by one.

        Structures with faster bottom-up builds override this.
        """
        for key, value in sorted(pairs, key=lambda kv: kv[0]):
            self.insert(key, value)

    def keys(self) -> List[float]:
        """Return all keys in ascending order."""
        return [key for key, _ in self.items()]

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the *index structure*.

        Counts keys, pointers, and model parameters at 8 bytes each
        (values are excluded — all structures store the same payload).
        Feeds the size-vs-latency Pareto comparison (SOSD's headline
        plot) and memory-aware TCO accounting. Default: 16 bytes per
        stored key (key + pointer).
        """
        return 16 * len(self)

    def index_overhead_bytes(self) -> int:
        """Structure size beyond the raw sorted (key, pointer) payload.

        SOSD's framing: the data itself (16 bytes/record) is the same for
        every structure; what differs is the *auxiliary* index — a B+
        tree's whole node graph vs an RMI's few model parameters. Never
        negative.
        """
        return max(0, self.size_bytes() - 16 * len(self))

    @property
    def name(self) -> str:
        """Short human-readable structure name."""
        return type(self).__name__

