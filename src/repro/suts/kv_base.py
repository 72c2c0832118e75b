"""Shared machinery for key-value systems under test.

Workload generators sample keys from continuous distributions, so a
requested key almost never exactly equals a stored key. Following YCSB's
convention that operations target existing records, the base SUT *snaps*
each requested key to the nearest stored key (driver-side bookkeeping, no
virtual time charged) and then executes the real operation on the real
index; the index's stats delta is what gets priced into service time.
Snaps, scan bounds and the key count read the index's own sorted key
buffer (:meth:`~repro.indexes.base.OrderedIndex.key_buffer`), which the
index keeps exact through its writes: the store holds no key set of its own.

Batched execution serves maximal runs of READs through the index's
``bulk_lookup`` kernel. When the index implements ``bulk_apply``, a run
takes UPDATEs and INSERTs too, cut only where an INSERT could move a
later read's snap. Every other operation goes through the scalar path,
with the same service times and counters as the per-query loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.sut import SystemUnderTest
from repro.indexes.base import OrderedIndex
from repro.suts.cost_models import KVCostModel
from repro.workloads.generators import KV_OP_CODES, KVOperation, KVQuery, QueryBatch

_READ_CODE = KV_OP_CODES[KVOperation.READ]
_UPDATE_CODE = KV_OP_CODES[KVOperation.UPDATE]
_INSERT_CODE = KV_OP_CODES[KVOperation.INSERT]


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

    # -- lifecycle --------------------------------------------------------------

    def setup(self, pairs: List[Tuple[float, object]]) -> None:
        self.index.bulk_load(pairs)

    def inject(self, pairs: List[Tuple[float, object]]) -> None:
        """Bulk data injection: loads the index, skips the clock."""
        for key, value in pairs:
            self.index.insert(key, value)

    def teardown(self) -> None:
        # Flush the index's cumulative work counters into the run's
        # telemetry before releasing state (monotonic totals, so one
        # end-of-run delta is exact).
        stats = self.index.stats
        self.tracer.counter("index.model_evaluations", stats.model_evaluations)
        self.tracer.counter("index.retrains", stats.retrains)
        self.tracer.counter("index.node_accesses", stats.node_accesses)

    # -- key snapping --------------------------------------------------------------

    def _snap(self, key: float) -> Optional[float]:
        """Nearest stored key to ``key`` (None when the store is empty)."""
        keys = self.index.key_buffer().view
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

    def _snap_batch(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`_snap` (caller guarantees a non-empty store).

        Returns the snapped keys, each one's rank among the stored keys,
        so the index can be told where its keys are instead of searching
        again, and each key's gap (its insertion point among them); see
        :meth:`~repro.indexes.keybuffer.SortedKeyBuffer.snap`.
        """
        return self.index.key_buffer().snap(keys)

    def _scan_bounds(self, key: float, length: int) -> Tuple[float, float]:
        """Start/end stored keys covering ``length`` items from ``key``."""
        keys = self.index.key_buffer().view
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
            writes = 1
        elif query.op == KVOperation.SCAN:
            if self.stored_keys:
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
    def _writes_join_runs(self) -> bool:
        """Whether UPDATEs and INSERTs ride in bulk runs: the index
        overrides :meth:`~repro.indexes.base.OrderedIndex.bulk_apply`."""
        return type(self.index).bulk_apply is not OrderedIndex.bulk_apply

    def execute_batch(self, batch: QueryBatch, now: float) -> np.ndarray:
        """Vectorized execution: bulk runs between scalar barriers.

        A bulk run is a maximal span of READs, served by the index's
        ``bulk_lookup`` kernel. When the index overrides ``bulk_apply``,
        UPDATEs and INSERTs join the span, and a span holding a write goes
        to that kernel as one or more runs, cut where an INSERT could move
        a later snap (see :meth:`_execute_run`); a READ-only span stays on
        ``bulk_lookup``. SCAN and READ_MODIFY_WRITE — and every write on
        an index that does not opt in — are scalar barriers. When the
        index declines a run, the rest of its span is served as if
        INSERTs did not join runs (see :meth:`_serve_declined`). Results
        match the per-query loop exactly.
        """
        ops = batch.ops
        joins = ops == _READ_CODE
        if self._writes_join_runs:
            joins |= (ops == _UPDATE_CODE) | (ops == _INSERT_CODE)
        services = np.empty(len(batch), dtype=np.float64)
        self._serve(batch, 0, len(batch), joins, services)
        return services

    def _serve(
        self, batch: QueryBatch, a: int, b: int, joins: np.ndarray, services: np.ndarray
    ) -> None:
        """Serve ``[a, b)``: spans of the rows ``joins`` marks in bulk, the
        rest scalar in place (``joins`` covers ``[a, b)``)."""
        barriers = (np.flatnonzero(~joins) + a).tolist()
        barriers.append(b)
        for barrier in barriers:
            if barrier > a:
                self._execute_span(batch, a, barrier, services)
            if barrier < b:
                services[barrier] = self.execute(
                    batch.query(barrier), float(batch.arrivals[barrier])
                )
            a = barrier + 1

    def _execute_span(
        self, batch: QueryBatch, a: int, b: int, services: np.ndarray
    ) -> None:
        """Serve the span ``[a, b)`` as consecutive bulk runs.

        A run is snapped over a look-ahead window: the whole span first,
        then twice the rows the last run served. A span cut into many
        short runs is so snapped at most three times over in all, not
        once per run.
        """
        window = b - a
        while a < b:
            end = self._execute_run(batch, a, min(b, a + window), services)
            if end is None:
                self._serve_declined(batch, a, b, services)
                return
            window, a = 2 * (end - a), end

    def _serve_declined(
        self, batch: QueryBatch, a: int, b: int, services: np.ndarray
    ) -> None:
        """The rest of a span whose run the index declined.

        With INSERTs, they become scalar barriers and the READ/UPDATE
        runs between them, which add no key, go back to bulk. Without,
        the span goes through scalar :meth:`execute` calls.
        """
        self.tracer.counter("kv.bulk_fallback_runs")
        inserts = batch.ops[a:b] == _INSERT_CODE
        if inserts.any():
            self.tracer.counter("kv.bulk_fallback_queries", int(np.count_nonzero(inserts)))
            self._serve(batch, a, b, ~inserts, services)
            return
        self.tracer.counter("kv.bulk_fallback_queries", b - a)
        for i in range(a, b):
            services[i] = self.execute(batch.query(i), float(batch.arrivals[i]))

    def _execute_run(
        self, batch: QueryBatch, a: int, b: int, services: np.ndarray
    ) -> Optional[int]:
        """Serve one bulk run from ``a``; return its end, or ``None``.

        The run is snapped once against the stored keys and priced once:
        a write's ``writes`` is 1, as :meth:`execute` prices it, a read's
        0, and each write stores its arrival, as :meth:`execute` does.
        With INSERTs the run ends before the first READ/UPDATE whose gap
        (insertion point among the stored keys) an earlier INSERT of the
        run landed in: only there could the scalar snap differ. The
        index's ``bulk_apply`` adds the run's new keys to its key buffer.
        ``None`` means the index declined (or the store was empty under
        an INSERT), with nothing served.
        """
        self.tracer.counter("kv.read_runs")
        cost = self.cost_model
        tuning = self.tuning_level
        ops = batch.ops[a:b]
        writes = ops != _READ_CODE
        inserts = ops == _INSERT_CODE
        n_inserts = int(np.count_nonzero(inserts))
        if not self.stored_keys:
            if n_inserts:
                return None
            # Empty store: every read and update is a snap-miss costing
            # base overhead.
            services[a:b] = cost.service_time_arrays(0, 0, 0, tuning_level=tuning)
            self._after_execute_slice(batch, a, b)
            return b
        keys = batch.keys[a:b]
        targets, ranks, gaps = self._snap_batch(keys)
        if n_inserts:
            end = _conflict_free_prefix(gaps, inserts)
            if end < b - a:
                self.tracer.counter("kv.run_cuts")
                b = a + end
                keys, targets, ranks, gaps = keys[:end], targets[:end], ranks[:end], gaps[:end]
                writes, inserts = writes[:end], inserts[:end]
                n_inserts = int(np.count_nonzero(inserts))
            targets = np.where(inserts, keys, targets)
            ranks = np.where(inserts, gaps, ranks)
        n_writes = int(np.count_nonzero(writes))
        if n_writes:
            counts = self.index.bulk_apply(
                targets, ranks, writes, batch.arrivals[a:b].tolist()
            )
        else:
            counts = self.index.bulk_lookup(targets, ranks)
        if counts is None:
            return None
        services[a:b] = cost.service_time_arrays(
            *counts, writes=writes if n_writes else 0, tuning_level=tuning
        )
        self.tracer.counter("kv.bulk_hit_runs")
        self.tracer.counter("kv.bulk_hit_queries", b - a - n_writes)
        if n_writes > n_inserts:
            self.tracer.counter("kv.bulk_update_queries", n_writes - n_inserts)
        if n_inserts:
            self.tracer.counter("kv.bulk_insert_queries", n_inserts)
        self._after_execute_slice(batch, a, b)
        return b

    def _after_execute_slice(self, batch: QueryBatch, a: int, b: int) -> None:
        """Fire :meth:`_after_execute` for queries ``[a, b)``, in order.

        Deferring the hook to the end of a bulk run is exact because the
        hooks cannot change intra-run lookup or write costs and the
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
        return len(self.index.key_buffer())

    def describe(self) -> dict:
        out = super().describe()
        out.update(index=self.index.name, tuning_level=self.tuning_level)
        return out


def _conflict_free_prefix(gaps: np.ndarray, inserts: np.ndarray) -> int:
    """Rows before the first READ/UPDATE whose gap an earlier INSERT holds.

    A snap reads only the two stored keys bounding its gap, so it can
    change only when a new key lands in that same gap first. Each gap's
    earliest INSERT row is found by a stable sort of the INSERTs by gap.
    """
    rows = np.flatnonzero(inserts)
    order = np.argsort(gaps[rows], kind="stable")
    insert_gaps, first_rows = gaps[rows][order], rows[order]
    at = np.minimum(np.searchsorted(insert_gaps, gaps), rows.size - 1)
    conflicts = np.flatnonzero(
        (insert_gaps[at] == gaps) & (first_rows[at] < np.arange(gaps.size)) & ~inserts
    )
    return int(conflicts[0]) if conflicts.size else gaps.size
