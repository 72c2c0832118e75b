"""Shared machinery for key-value systems under test.

Workload generators sample keys from continuous distributions, so a
requested key almost never exactly equals a stored key. Following YCSB's
convention that operations target existing records, the base SUT *snaps*
each requested key to the nearest stored key (driver-side bookkeeping, no
virtual time charged) and then executes the real operation on the real
index; the index's stats delta is what gets priced into service time.

Batched execution serves maximal runs of READs — and of UPDATEs too,
when the index implements ``bulk_update`` — through the index's bulk
kernels, and every other operation through the scalar path, with the
same service times and counters as the per-query loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.sut import SystemUnderTest
from repro.indexes.base import OrderedIndex, key_column, strictly_ascending
from repro.indexes.keybuffer import SortedKeyBuffer
from repro.suts.cost_models import KVCostModel
from repro.workloads.generators import KV_OP_CODES, KVOperation, KVQuery, QueryBatch

_READ_CODE = KV_OP_CODES[KVOperation.READ]
_UPDATE_CODE = KV_OP_CODES[KVOperation.UPDATE]


class KVStoreBase(SystemUnderTest):
    """A key-value SUT wrapping one :class:`OrderedIndex`.

    Args:
        name: SUT name.
        index: The underlying index structure.
        cost_model: Operation-to-seconds conversion.
        tuning_level: DBA tuning level applied to service times
            (traditional systems; learned systems leave it at 0).
    """

    def __init__(
        self,
        name: str,
        index: OrderedIndex,
        cost_model: Optional[KVCostModel] = None,
        tuning_level: int = 0,
    ) -> None:
        super().__init__(name)
        self.index = index
        self.cost_model = cost_model or KVCostModel()
        self.tuning_level = tuning_level
        # Sorted copy of the index's key set, for snapping and scan bounds.
        self._mirror = SortedKeyBuffer()

    # -- lifecycle --------------------------------------------------------------

    def setup(self, pairs: List[Tuple[float, object]]) -> None:
        self.index.bulk_load(pairs)
        keys = key_column(pairs)
        self._mirror = SortedKeyBuffer(
            keys if strictly_ascending(keys) else np.unique(keys)
        )

    def inject(self, pairs: List[Tuple[float, object]]) -> None:
        """Bulk data injection: loads the index, skips the clock."""
        for key, value in pairs:
            self.index.insert(key, value)
            self._mirror.add(key)

    def teardown(self) -> None:
        # Flush the index's cumulative work counters into the run's
        # telemetry before releasing state (monotonic totals, so one
        # end-of-run delta is exact).
        stats = self.index.stats
        self.tracer.counter("index.model_evaluations", stats.model_evaluations)
        self.tracer.counter("index.retrains", stats.retrains)
        self.tracer.counter("index.node_accesses", stats.node_accesses)
        self._mirror = SortedKeyBuffer()

    # -- key snapping --------------------------------------------------------------

    def _snap(self, key: float) -> Optional[float]:
        """Nearest stored key to ``key`` (None when the store is empty)."""
        keys = self._mirror.view
        n = keys.size
        if not n:
            return None
        pos = int(keys.searchsorted(key))
        if pos >= n:
            return keys.item(n - 1)
        if pos == 0:
            return keys.item(0)
        before, after = keys.item(pos - 1), keys.item(pos)
        return before if key - before <= after - key else after

    def _snap_batch(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`_snap` (caller guarantees a non-empty store).

        Returns the snapped keys and each one's rank in the mirror, so the
        index can be told where its keys are instead of searching again.
        The needles are searched in sorted order, which walks the mirror
        front to back instead of jumping through it, and scattered back.
        """
        arr = self._mirror.view
        order = np.argsort(keys)
        pos = np.empty(keys.size, dtype=np.intp)
        pos[order] = np.searchsorted(arr, keys[order])
        # Clamped neighbours make both ends fall out of the tie rule:
        # below the first key or past the last, ``lo`` and ``hi`` coincide.
        lo = np.maximum(pos - 1, 0)
        hi = np.minimum(pos, arr.size - 1)
        ranks = np.where(keys - arr[lo] <= arr[hi] - keys, lo, hi)
        return arr[ranks], ranks

    def _scan_bounds(self, key: float, length: int) -> Tuple[float, float]:
        """Start/end stored keys covering ``length`` items from ``key``."""
        keys = self._mirror.view
        pos = min(int(keys.searchsorted(key)), keys.size - 1)
        end = min(pos + max(1, length) - 1, keys.size - 1)
        return keys.item(pos), keys.item(end)

    # -- execution --------------------------------------------------------------

    def execute(self, query: KVQuery, now: float) -> float:
        """Run the real operation; return its virtual service time."""
        before = self.index.stats.snapshot()
        writes = 0
        scanned = 0
        if query.op == KVOperation.READ:
            target = self._snap(query.key)
            if target is not None:
                self.index.get(target)
        elif query.op == KVOperation.UPDATE:
            target = self._snap(query.key)
            if target is not None:
                self.index.insert(target, now)
                writes = 1
        elif query.op == KVOperation.INSERT:
            self.index.insert(query.key, now)
            self._mirror.add(query.key)
            writes = 1
        elif query.op == KVOperation.SCAN:
            if self._mirror:
                low, high = self._scan_bounds(query.key, query.scan_length)
                scanned = len(self.index.range(low, high))
        elif query.op == KVOperation.READ_MODIFY_WRITE:
            target = self._snap(query.key)
            if target is not None:
                value = self.index.get(target)
                self.index.insert(target, value)
                writes = 1
        delta = self.index.stats.snapshot().diff(before)
        self._after_execute(query, now)
        return self.cost_model.service_time(
            delta,
            writes=writes,
            scanned_items=scanned,
            tuning_level=self.tuning_level,
        )

    def _after_execute(self, query: KVQuery, now: float) -> None:
        """Hook for subclasses (drift observation etc.). Default: none."""

    @property
    def _updates_join_runs(self) -> bool:
        """Whether UPDATEs ride in bulk runs: the index overrides
        :meth:`~repro.indexes.base.OrderedIndex.bulk_update`, promising
        that an overwrite changes neither the key set nor any other
        operation's cost."""
        return type(self.index).bulk_update is not OrderedIndex.bulk_update

    def execute_batch(self, batch: QueryBatch, now: float) -> np.ndarray:
        """Vectorized execution: bulk runs between scalar write barriers.

        A bulk run is a maximal span of READ queries, served by the
        index's ``bulk_lookup`` kernel. When the index overrides
        ``bulk_update``, UPDATEs join the span and are served by that
        kernel. Every other operation (INSERT, SCAN, READ_MODIFY_WRITE)
        and any run the index declines to serve in bulk goes through the
        scalar :meth:`execute` path, so results match the per-query loop
        exactly.
        """
        n = len(batch)
        services = np.empty(n, dtype=np.float64)
        in_run = batch.ops == _READ_CODE
        if self._updates_join_runs:
            in_run |= batch.ops == _UPDATE_CODE
        barriers = np.flatnonzero(~in_run).tolist()
        barriers.append(n)
        pos = 0
        for barrier in barriers:
            if barrier > pos:
                self._execute_run(batch, pos, barrier, services)
            if barrier < n:
                services[barrier] = self.execute(
                    batch.query(barrier), float(batch.arrivals[barrier])
                )
            pos = barrier + 1
        return services

    def _execute_run(
        self, batch: QueryBatch, a: int, b: int, services: np.ndarray
    ) -> None:
        """Serve the READ/UPDATE run ``[a, b)`` in bulk (scalar fallback).

        The run is snapped once and priced once: an update's ``writes``
        is 1, as :meth:`execute` prices it, and a read's 0. If the index
        declines either bulk call, the whole run goes through scalar
        :meth:`execute` calls.
        """
        self.tracer.counter("kv.read_runs")
        cost = self.cost_model
        tuning = self.tuning_level
        if not self._mirror:
            # Empty store: every read and update is a snap-miss costing
            # base overhead.
            services[a:b] = cost.service_time_arrays(0, 0, 0, tuning_level=tuning)
            self._after_execute_slice(batch, a, b)
            return
        targets, ranks = self._snap_batch(batch.keys[a:b])
        updates = batch.ops[a:b] == _UPDATE_CODE
        n_updates = int(np.count_nonzero(updates))
        if n_updates:
            counts = self._bulk_read_and_update(
                targets, ranks, updates, batch.arrivals[a:b]
            )
        else:
            counts = self.index.bulk_lookup(targets, ranks)
        if counts is None:
            # Fast-path miss: the run falls back to the scalar path.
            self.tracer.counter("kv.bulk_fallback_runs")
            self.tracer.counter("kv.bulk_fallback_queries", b - a)
            for i in range(a, b):
                services[i] = self.execute(batch.query(i), float(batch.arrivals[i]))
            return
        services[a:b] = cost.service_time_arrays(
            *counts, writes=updates if n_updates else 0, tuning_level=tuning
        )
        self.tracer.counter("kv.bulk_hit_runs")
        self.tracer.counter("kv.bulk_hit_queries", b - a - n_updates)
        if n_updates:
            self.tracer.counter("kv.bulk_update_queries", n_updates)
        self._after_execute_slice(batch, a, b)

    def _bulk_read_and_update(
        self,
        targets: np.ndarray,
        ranks: np.ndarray,
        updates: np.ndarray,
        arrivals: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Per-query counts of a run whose ``updates`` rows overwrite.

        Reads go to ``bulk_lookup``, then updates to ``bulk_update`` with
        their arrivals as values. Returns the ``(3, run length)`` counts
        in run order, or ``None`` with the index's counters as they were
        when either call declines.
        """
        index = self.index
        counts = np.empty((3, updates.size), dtype=np.int64)
        before = index.stats.snapshot()
        reads = ~updates
        if reads.any():
            got = index.bulk_lookup(targets[reads], ranks[reads])
            if got is None:
                return None
            counts[:, reads] = got
        put = index.bulk_update(targets[updates], ranks[updates], arrivals[updates].tolist())
        if put is None:
            index.stats = before  # take back what the lookups committed
            return None
        counts[:, updates] = put
        return counts

    def _after_execute_slice(self, batch: QueryBatch, a: int, b: int) -> None:
        """Fire :meth:`_after_execute` for queries ``[a, b)``, in order.

        Deferring the hook to the end of a bulk run is exact because the
        hooks cannot change intra-run lookup or overwrite costs and the
        driver never lets a run cross an ``on_tick`` boundary. Subclasses
        with a vectorized observer override this.
        """
        if type(self)._after_execute is KVStoreBase._after_execute:
            return
        for i in range(a, b):
            self._after_execute(batch.query(i), float(batch.arrivals[i]))

    # -- introspection --------------------------------------------------------------

    @property
    def stored_keys(self) -> int:
        """Number of keys currently stored."""
        return len(self._mirror)

    def describe(self) -> dict:
        out = super().describe()
        out.update(index=self.index.name, tuning_level=self.tuning_level)
        return out
