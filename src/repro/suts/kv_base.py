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
takes UPDATEs and INSERTs too: a READ or UPDATE whose snap an earlier
INSERT of the run moves is snapped again in place, and the run ends only
where the index stops serving it (a B+ tree leaf split). Every other
operation goes through the scalar path, with the same service times and
counters as the per-query loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.sut import SystemUnderTest
from repro.indexes.base import OrderedIndex
from repro.indexes.keybuffer import lower_is_nearest
from repro.suts.cost_models import KVCostModel
from repro.workloads.generators import KV_OP_CODES, KVOperation, KVQuery, QueryBatch

_READ_CODE = KV_OP_CODES[KVOperation.READ]
_UPDATE_CODE = KV_OP_CODES[KVOperation.UPDATE]
_INSERT_CODE = KV_OP_CODES[KVOperation.INSERT]


class KVStoreBase(SystemUnderTest):
    """A key-value SUT wrapping one :class:`OrderedIndex`.

    :meth:`execute` is the per-query path; :meth:`execute_batch` serves
    each span of READ, UPDATE and INSERT as one bulk run, snapped once,
    with the same results.

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
        to that kernel as one run (see :meth:`_execute_run`); a READ-only
        span stays on ``bulk_lookup``. SCAN and READ_MODIFY_WRITE — and
        every write on an index that does not opt in — are scalar
        barriers. The rows of a span the index does not serve are served
        as if INSERTs did not join runs (see :meth:`_serve_declined`).
        Results match the per-query loop exactly.
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
                end = self._execute_run(batch, a, barrier, services)
                if end < barrier:
                    self._serve_declined(batch, end, barrier, services)
            if barrier < b:
                services[barrier] = self.execute(
                    batch.query(barrier), float(batch.arrivals[barrier])
                )
            a = barrier + 1

    def _serve_declined(
        self, batch: QueryBatch, a: int, b: int, services: np.ndarray
    ) -> None:
        """The rows ``[a, b)`` of a span that its bulk run did not serve.

        With INSERTs, they become scalar barriers and the READ/UPDATE
        runs between them, which add no key, go back to bulk. Without,
        the rows go through scalar :meth:`execute` calls.
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
    ) -> int:
        """Serve the span ``[a, b)`` as one bulk run; return where it ended.

        The run is snapped once against the stored keys and priced once:
        a write's ``writes`` is 1, as :meth:`execute` prices it, a read's
        0, and each write stores its arrival, as :meth:`execute` does.
        A READ/UPDATE whose gap (insertion point among the stored keys)
        holds the new key of an earlier INSERT of the run is snapped
        again over those keys (:func:`_resnap`), as the loop would snap
        it. The index's ``bulk_apply`` adds the run's new keys to its key
        buffer; it may serve only the rows before its first leaf split,
        and the run ends there. An end of ``a`` means the index declined
        (or the store was empty under an INSERT), with nothing served.
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
                return a
            # Empty store: every read and update is a snap-miss costing
            # base overhead.
            services[a:b] = cost.service_time_arrays(0, 0, 0, tuning_level=tuning)
            self._after_execute_slice(batch, a, b)
            return b
        keys = batch.keys[a:b]
        targets, ranks, gaps = self._snap_batch(keys)
        if n_inserts:
            _resnap(self.index.key_buffer().view, keys, gaps, inserts, targets, ranks)
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
            return a
        served = counts[0].size
        if served < b - a:
            writes, inserts = writes[:served], inserts[:served]
            n_writes = int(np.count_nonzero(writes))
            n_inserts = int(np.count_nonzero(inserts))
        services[a : a + served] = cost.service_time_arrays(
            *counts, writes=writes if n_writes else 0, tuning_level=tuning
        )
        self.tracer.counter("kv.bulk_hit_runs")
        self.tracer.counter("kv.bulk_hit_queries", served - n_writes)
        if n_writes > n_inserts:
            self.tracer.counter("kv.bulk_update_queries", n_writes - n_inserts)
        if n_inserts:
            self.tracer.counter("kv.bulk_insert_queries", n_inserts)
        self._after_execute_slice(batch, a, a + served)
        return a + served

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


def _resnap(
    view: np.ndarray,
    keys: np.ndarray,
    gaps: np.ndarray,
    inserts: np.ndarray,
    targets: np.ndarray,
    ranks: np.ndarray,
) -> None:
    """Snap again, in place, each READ/UPDATE whose gap an earlier INSERT added a key to.

    ``targets``, ``ranks`` and ``gaps`` are the run's snap of ``keys``
    against the stored ``view``. The loop snaps such a row after those
    INSERTs, over the stored keys plus their new keys. A snap reads only
    the nearest key below its needle and the nearest at or above it, and
    a new key of the row's gap lies between the gap's two stored keys, so
    the row's neighbours are the nearest new keys on each side that an
    earlier row added, else the gap's stored keys (one side is missing
    at gap 0 and at the last gap, as in the store's snap). The tie rule
    is the store's (:func:`lower_is_nearest`). A new key's rank is its
    gap; a stored key's its position.
    """
    n = view.size
    rows = np.flatnonzero(inserts)
    rows = rows[view[np.minimum(gaps[rows], n - 1)] != keys[rows]]  # INSERTs of new keys
    if not rows.size:
        return
    first = np.full(n + 1, gaps.size)  # per gap, the first row that adds a key to it
    np.minimum.at(first, gaps[rows], rows)
    conflicts = np.flatnonzero((first[gaps] < np.arange(gaps.size)) & ~inserts)
    if not conflicts.size:
        return
    hot = np.zeros(n + 1, dtype=bool)
    hot[gaps[conflicts]] = True
    rows = rows[hot[gaps[rows]]]  # only the new keys of those gaps matter
    new_keys, index = np.unique(keys[rows], return_index=True)
    born = rows[index]  # the row that adds each new key
    new_gaps = gaps[born]  # ascending, as the new keys are
    needles, gap = keys[conflicts], gaps[conflicts]
    low, high = new_gaps.searchsorted(gap), new_gaps.searchsorted(gap, side="right")
    # New keys ``[low, split)`` of the row's gap lie below its needle, ``[split, high)`` not.
    split = np.clip(new_keys.searchsorted(needles), low, high)
    table = _earliest_table(born)
    below = _last_added_before(table, low, split, conflicts)
    size = born.size
    above = size - 1 - _last_added_before(
        [level[::-1] for level in table], size - high, size - split, conflicts
    )
    has_below, has_above = below >= low, above < high
    lower = np.where(has_below, new_keys.take(below, mode="clip"), view.take(gap - 1, mode="clip"))
    lower_rank = np.where(has_below, gap, gap - 1)
    upper = np.where(has_above, new_keys.take(above, mode="clip"), view.take(gap, mode="clip"))
    # Below the first key or past the last, both neighbours are the one there is.
    no_lower, no_upper = ~has_below & (gap == 0), ~has_above & (gap == n)
    lower, lower_rank = np.where(no_lower, upper, lower), np.where(no_lower, gap, lower_rank)
    upper, upper_rank = np.where(no_upper, lower, upper), np.where(no_upper, lower_rank, gap)
    nearest_lower = lower_is_nearest(needles, lower, upper)
    targets[conflicts] = np.where(nearest_lower, lower, upper)
    ranks[conflicts] = np.where(nearest_lower, lower_rank, upper_rank)


def _earliest_table(born: np.ndarray) -> List[np.ndarray]:
    """A sparse table: level ``k`` holds the earliest of each ``2**k`` consecutive rows."""
    table = [born]
    while 2 ** len(table) <= born.size:
        width = 2 ** (len(table) - 1)
        table.append(np.minimum(table[-1][:-width], table[-1][width:]))
    return table


def _last_added_before(
    table: List[np.ndarray], start: np.ndarray, stop: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Per row, the last ``q`` in ``[start, stop)`` with ``table[0][q] < row``
    (``start - 1`` if none): a binary descent from ``stop`` over blocks
    whose keys were all added at or after the row."""
    end = stop.copy()
    for k in reversed(range(len(table))):
        step = end - 2**k
        later = step >= start
        later[later] = table[k][step[later]] > rows[later]
        end[later] = step[later]
    return end - 1
