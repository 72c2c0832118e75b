"""Pull-based plan executor.

Executes a :class:`~repro.engine.plans.LogicalPlan` against a
:class:`~repro.engine.catalog.Catalog`. Physical decisions that the plan
leaves open (join method) default to hash join. The executor counts the
work it does — rows scanned, rows joined, hash probes — in
:class:`ExecutionResult.work`, and that count is what the benchmark's
analytic cost model converts into virtual service time: a bad plan does
more work, so it is charged more time, exactly the feedback loop a
learned optimizer needs.

Both join methods find their matches with one vectorised kernel,
:func:`_match` (stable argsort of the inner keys, ``searchsorted`` of the
outer keys, ``repeat``/``cumsum`` expansion; one search and an equality
check when the inner keys are unique), which emits pairs ordered by
outer row, then inner row. They differ in which side is outer and in the
work they charge: a hash join charges ``build + probe + matches`` with
the smaller side built (ties build on the right) and the other probing;
nested loops charge ``left * max(1, right)`` with ``left`` outermost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.plans import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    Project,
    Scan,
    Sort,
)
from repro.engine.schema import Column, ColumnType, Schema
from repro.engine.table import Table
from repro.errors import PlanError


@dataclass
class ExecutionResult:
    """The output of executing a plan.

    Attributes:
        table: Result rows (a transient :class:`Table`).
        scalar: Aggregate result when the plan root is an
            :class:`Aggregate`, else ``None``.
        work: Abstract work units performed (rows touched + hash ops).
        cardinalities: Observed output cardinality per plan node
            (canonical string → rows), the ground-truth labels that
            supervised cardinality estimators train on — collected during
            execution as §IV of the paper describes.
    """

    table: Table
    scalar: Optional[float]
    work: float
    cardinalities: Dict[str, int] = field(default_factory=dict)


class Executor:
    """Executes logical plans against a catalog.

    Args:
        catalog: Tables to execute against.
        learned_sorter: When set, :class:`~repro.engine.plans.Sort` nodes
            run through the learned CDF sort (its reported work units are
            charged) instead of a comparison sort (charged n·log2 n).
    """

    def __init__(self, catalog: Catalog, learned_sorter=None) -> None:
        self.catalog = catalog
        self.learned_sorter = learned_sorter

    def execute(self, plan: LogicalPlan) -> ExecutionResult:
        """Run ``plan`` and return rows, work, and per-node cardinalities."""
        cards: Dict[str, int] = {}
        table, work, scalar = self._run(plan, cards)
        return ExecutionResult(table=table, scalar=scalar, work=work, cardinalities=cards)

    # -- node dispatch ---------------------------------------------------------

    def _run(
        self, plan: LogicalPlan, cards: Dict[str, int]
    ) -> Tuple[Table, float, Optional[float]]:
        if isinstance(plan, Scan):
            result = self._scan(plan)
            work = float(result.row_count)
            scalar = None
        elif isinstance(plan, Filter):
            child, child_work, _ = self._run(plan.child, cards)
            result = self._filter(plan, child)
            work = child_work + child.row_count
            scalar = None
        elif isinstance(plan, Project):
            child, child_work, _ = self._run(plan.child, cards)
            result = self._project(plan, child)
            work = child_work + 0.1 * child.row_count
            scalar = None
        elif isinstance(plan, Join):
            left, lwork, _ = self._run(plan.left, cards)
            right, rwork, _ = self._run(plan.right, cards)
            result, join_work = self._join(plan, left, right)
            work = lwork + rwork + join_work
            scalar = None
        elif isinstance(plan, Sort):
            child, child_work, _ = self._run(plan.child, cards)
            result, sort_work = self._sort(plan, child)
            work = child_work + sort_work
            scalar = None
        elif isinstance(plan, Aggregate):
            child, child_work, _ = self._run(plan.child, cards)
            scalar = self._aggregate(plan, child)
            result = Table.from_columns(
                "agg",
                Schema([Column("value", ColumnType.FLOAT)]),
                {"value": [scalar]},
            )
            work = child_work + child.row_count
        else:
            raise PlanError(f"unknown plan node {type(plan).__name__}")
        cards[plan.canonical()] = result.row_count
        return result, work, scalar

    # -- operators -----------------------------------------------------------------

    def _scan(self, plan: Scan) -> Table:
        return self.catalog.get(plan.table_name)

    @staticmethod
    def _filter(plan: Filter, child: Table) -> Table:
        mask = plan.predicate.evaluate(child)
        return child.select_rows(np.asarray(mask, dtype=bool))

    @staticmethod
    def _project(plan: Project, child: Table) -> Table:
        cols = {name: child.column(name) for name in plan.columns}
        schema = Schema([child.schema.column(name) for name in plan.columns])
        return Table.from_columns(child.name, schema, cols)

    def _sort(self, plan: Sort, child: Table) -> Tuple[Table, float]:
        """Sort rows by a numeric column; returns (table, work units)."""
        data = child.column(plan.column)
        if isinstance(data, list):
            raise PlanError(f"cannot Sort by string column {plan.column!r}")
        if child.row_count == 0:
            return child, 0.0
        if self.learned_sorter is not None:
            _, report = self.learned_sorter.sort(np.asarray(data))
            order = np.argsort(data, kind="stable")
            work = report.work_units
        else:
            order = np.argsort(data, kind="stable")
            n = child.row_count
            work = float(n * max(1.0, np.log2(max(2, n))))
        return child.select_rows(order), work

    def _join(self, plan: Join, left: Table, right: Table) -> Tuple[Table, float]:
        method = plan.method or "hash"
        if method == "hash":
            return self._hash_join(plan, left, right)
        return self._nl_join(plan, left, right)

    def _hash_join(self, plan: Join, left: Table, right: Table) -> Tuple[Table, float]:
        left_keys, right_keys = _join_keys(plan, left, right)
        # Build on the smaller side (ties build on right); the probe side
        # is the kernel's outer, so rows come out in probe order.
        if right.row_count <= left.row_count:
            left_idx, right_idx = _match(left_keys, right_keys)
        else:
            right_idx, left_idx = _match(right_keys, left_keys)
        work = float(left.row_count + right.row_count + left_idx.size)
        return self._materialize_join(left, right, left_idx, right_idx), work

    def _nl_join(self, plan: Join, left: Table, right: Table) -> Tuple[Table, float]:
        left_idx, right_idx = _match(*_join_keys(plan, left, right))
        work = float(left.row_count * max(1, right.row_count))
        return self._materialize_join(left, right, left_idx, right_idx), work

    @staticmethod
    def _materialize_join(
        left: Table, right: Table, left_idx: np.ndarray, right_idx: np.ndarray
    ) -> Table:
        schema = left.schema.concat(right.schema, left.name, right.name)
        out_cols: Dict[str, Any] = {}
        names = iter(schema.names)
        for table, idx in ((left, left_idx), (right, right_idx)):
            for col in table.schema.columns:
                data = table.column(col.name)
                out_cols[next(names)] = (
                    [data[i] for i in idx.tolist()] if isinstance(data, list) else data[idx]
                )
        return Table.from_columns("join", schema, out_cols)

    @staticmethod
    def _aggregate(plan: Aggregate, child: Table) -> float:
        if plan.agg == "count":
            return float(child.row_count)
        data = child.column(plan.column)  # type: ignore[arg-type]
        if isinstance(data, list):
            raise PlanError(f"cannot {plan.agg} a string column {plan.column!r}")
        if len(data) == 0:
            return 0.0
        if plan.agg == "sum":
            return float(np.sum(data))
        if plan.agg == "avg":
            return float(np.mean(data))
        if plan.agg == "min":
            return float(np.min(data))
        return float(np.max(data))


def _join_keys(plan: Join, left: Table, right: Table) -> Tuple[np.ndarray, np.ndarray]:
    """Both join columns as float64 keys that are equal exactly when the rows join.

    Numeric columns compare as float64 whatever their declared type.
    String columns get integer codes from one shared dictionary. A string
    column never equals a numeric one, which all-NaN keys express.
    """
    left_col = left.column(plan.left_col)
    right_col = right.column(plan.right_col)
    left_is_str = isinstance(left_col, list)
    if left_is_str != isinstance(right_col, list):
        return np.full(len(left_col), np.nan), np.full(len(right_col), np.nan)
    if left_is_str:
        codes: Dict[str, int] = {}
        left_col = [codes.setdefault(v, len(codes)) for v in left_col]
        right_col = [codes.setdefault(v, len(codes)) for v in right_col]
    return (
        np.asarray(left_col, dtype=np.float64),
        np.asarray(right_col, dtype=np.float64),
    )


def _match(outer: np.ndarray, inner: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equi-join match kernel: every ``(outer_idx, inner_idx)`` with equal keys.

    Pairs are ordered by outer row, then by inner row — the order a hash
    join emits (probe order, build insertion order) and the order of a
    nested double loop. NaN equals nothing, itself included; ``-0.0``
    equals ``0.0``.
    """
    order = np.argsort(inner, kind="stable")
    # NaNs sort last: cut them off, and a NaN outer key finds an empty range.
    sorted_inner = inner[order][: inner.size - np.count_nonzero(np.isnan(inner))]
    if sorted_inner.size and (sorted_inner[1:] > sorted_inner[:-1]).all():
        # Unique inner keys (``-0.0`` and ``0.0`` are not): each outer key
        # matches at its left insertion point or nowhere.
        pos = np.minimum(np.searchsorted(sorted_inner, outer), sorted_inner.size - 1)
        outer_idx = np.flatnonzero(sorted_inner[pos] == outer)
        return outer_idx, order[pos[outer_idx]]
    lo = np.searchsorted(sorted_inner, outer, side="left")
    counts = np.searchsorted(sorted_inner, outer, side="right") - lo
    outer_idx = np.repeat(np.arange(outer.size), counts)
    # Sorted-inner position of each pair: its range start + rank in the range.
    starts = np.cumsum(counts) - counts
    inner_pos = np.repeat(lo - starts, counts) + np.arange(outer_idx.size)
    return outer_idx, order[inner_pos]
