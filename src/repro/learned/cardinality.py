"""Cardinality estimation: traditional histograms vs a learned model.

Three estimators, all satisfying the
:class:`repro.engine.optimizer_base.CardinalityEstimator` protocol:

* :class:`HistogramEstimator` — per-column equi-width histograms with the
  classical independence assumption for conjunctions; the "traditional
  system" baseline.
* :class:`LearnedCardinalityEstimator` — featurizes a query's predicate
  ranges and regresses log-cardinality by online gradient descent; it is
  *supervised*, trained on (query, true-cardinality) labels. The paper's
  §IV highlights that collecting those labels has a measurable cost, so
  the estimator accounts every label it consumes in
  :attr:`label_collection_rows`.
* :class:`TrueCardinalityOracle` — returns exact cardinalities by
  executing the plan; the upper bound ("perfect estimates") used in
  ablations, with its own (large) accounted cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.expressions import Predicate
from repro.engine.plans import (
    Aggregate,
    Filter,
    Join,
    LogicalPlan,
    Project,
    Scan,
    Sort,
)
from repro.engine.schema import ColumnType
from repro.errors import NotTrainedError


def _clip_unit(x: float) -> float:
    """``np.clip(x, 0.0, 1.0)`` of one scalar, bit for bit (NaN and ``-0.0`` stay)."""
    return min(max(x, 0.0), 1.0)


class HistogramEstimator:
    """Per-column equi-width histograms + independence assumption.

    Call :meth:`analyze` after loading (or significantly changing) a
    table, mirroring a DBMS's ``ANALYZE``. Unanalyzed columns fall back
    to magic selectivity constants — the classical failure mode under
    data drift that learned estimators are meant to fix.
    """

    #: Default selectivity for predicates on unanalyzed columns.
    DEFAULT_SELECTIVITY = 0.1

    def __init__(self, buckets: int = 32) -> None:
        """Start with no statistics; ``buckets`` bins per analyzed column."""
        self.buckets = buckets
        self._hist: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]] = {}
        self._distinct: Dict[Tuple[str, str], int] = {}

    def analyze(self, catalog: Catalog, table_name: str) -> None:
        """Build histograms for every numeric column of ``table_name``."""
        table = catalog.get(table_name)
        for col in table.schema.columns:
            if col.ctype == ColumnType.STRING:
                continue
            data = np.asarray(table.column(col.name), dtype=np.float64)
            if data.size == 0:
                continue
            counts, edges = np.histogram(data, bins=self.buckets)
            self._hist[(table_name, col.name)] = (counts.astype(np.float64), edges)
            self._distinct[(table_name, col.name)] = int(len(np.unique(data)))

    # -- selectivity ----------------------------------------------------------

    def _column_selectivity(
        self, table: str, column: str, op: str, value: float
    ) -> float:
        key = (table, column)
        if key not in self._hist:
            return self.DEFAULT_SELECTIVITY
        counts, edges = self._hist[key]
        total = counts.sum()
        if total <= 0:
            return self.DEFAULT_SELECTIVITY
        if op == "=":
            distinct = max(1, self._distinct.get(key, 1))
            return 1.0 / distinct
        if op in ("<", "<="):
            mass = counts[edges[1:] <= value].sum()
            partial_bucket = np.searchsorted(edges, value) - 1
            if 0 <= partial_bucket < len(counts) and edges[partial_bucket + 1] > value:
                width = edges[partial_bucket + 1] - edges[partial_bucket]
                frac = (value - edges[partial_bucket]) / max(width, 1e-12)
                mass += counts[partial_bucket] * np.clip(frac, 0.0, 1.0)
            return float(np.clip(mass / total, 0.0, 1.0))
        if op in (">", ">="):
            return float(
                np.clip(1.0 - self._column_selectivity(table, column, "<=", value), 0.0, 1.0)
            )
        if op == "!=":
            return 1.0 - self._column_selectivity(table, column, "=", value)
        return self.DEFAULT_SELECTIVITY

    def _predicate_selectivity(self, plan: Filter, table_names: List[str]) -> float:
        leaves = plan.predicate.selectivity_features()
        if not leaves:
            return self.DEFAULT_SELECTIVITY
        selectivity = 1.0
        for column, op, value in leaves:
            best = self.DEFAULT_SELECTIVITY
            for table in table_names:
                if (table, column) in self._hist:
                    best = self._column_selectivity(table, column, op, value)
                    break
            selectivity *= best
        return float(np.clip(selectivity, 1e-9, 1.0))

    # -- CardinalityEstimator protocol ---------------------------------------------

    def estimate(self, plan: LogicalPlan, catalog: Catalog) -> float:
        """Estimated output cardinality of ``plan``."""
        if isinstance(plan, Scan):
            return float(catalog.row_count(plan.table_name))
        if isinstance(plan, Filter):
            child = self.estimate(plan.children()[0], catalog)
            return child * self._predicate_selectivity(plan, plan.tables())
        if isinstance(plan, (Project, Sort)):
            return self.estimate(plan.children()[0], catalog)
        if isinstance(plan, Aggregate):
            return 1.0
        if isinstance(plan, Join):
            left = self.estimate(plan.left, catalog)
            right = self.estimate(plan.right, catalog)
            # Classic equi-join estimate: |L||R| / max(ndv_left, ndv_right).
            ndv = 1.0
            for table in plan.tables():
                for column in (plan.left_col, plan.right_col):
                    key = (table, column)
                    if key in self._distinct:
                        ndv = max(ndv, float(self._distinct[key]))
            return max(1.0, left * right / ndv)
        return 1.0


@dataclass
class _TrainingExample:
    """One supervised example: feature vector and log-cardinality label."""

    features: np.ndarray
    log_card: float


class LearnedCardinalityEstimator:
    """Online linear regression over query features → log cardinality.

    Features per tracked column: normalized range bounds implied by the
    query's predicates. Join presence and table sizes enter as extra
    features. Training examples arrive via :meth:`observe` (ground-truth
    cardinalities from executed plans) and the model performs mini-batch
    gradient steps; the label-collection footprint is accounted in
    :attr:`label_collection_rows` per §IV of the paper.

    Args:
        tracked_columns: Numeric columns featurized as range bounds.
        learning_rate: SGD step size.
        l2: Ridge regularization strength.
    """

    def __init__(
        self,
        tracked_columns: List[Tuple[str, str]],
        learning_rate: float = 0.05,
        l2: float = 1e-4,
    ) -> None:
        """Start untrained: zero weights and no column bounds."""
        self.tracked_columns = list(tracked_columns)
        self.learning_rate = learning_rate
        self.l2 = l2
        self._bounds: Dict[Tuple[str, str], Tuple[float, float]] = {}
        # Features: [bias, join?, log(left rows), log(right rows)] +
        # [lo, hi, hi-lo] per tracked column.
        self._dim = 4 + 3 * len(self.tracked_columns)
        self._weights = np.zeros(self._dim, dtype=np.float64)
        self._trained_examples = 0
        self.label_collection_rows = 0

    @property
    def trained_examples(self) -> int:
        """Number of supervised examples consumed so far."""
        return self._trained_examples

    def bind_statistics(self, catalog: Catalog) -> None:
        """Record column min/max for feature normalization."""
        for table, column in self.tracked_columns:
            if table in catalog:
                tbl = catalog.get(table)
                if tbl.schema.has(column) and tbl.row_count:
                    self._bounds[(table, column)] = tbl.numeric_stats(column)

    # -- featurization -------------------------------------------------------------

    def featurize(self, plan: LogicalPlan, catalog: Catalog) -> np.ndarray:
        """Feature vector for ``plan``, from one walk of the tree."""
        joined = False
        scanned: Set[str] = set()
        # (predicate, tables scanned below it) per Filter, in stack order.
        filters: List[Tuple[Predicate, Set[str]]] = []
        stack = [(plan, ())]  # (node, table sets of the Filters above it)
        while stack:
            node, above = stack.pop()
            if isinstance(node, Scan):
                scanned.add(node.table_name)
                for tables in above:
                    tables.add(node.table_name)
            elif isinstance(node, Join):
                joined = True
            elif isinstance(node, Filter):
                tables = set()
                filters.append((node.predicate, tables))
                above = (*above, tables)
            stack.extend((child, above) for child in node.children())
        sizes = sorted(
            (float(catalog.row_count(t)) for t in scanned if t in catalog), reverse=True
        )
        features = [
            1.0,  # bias
            float(joined),
            np.log1p(sizes[0]) if sizes else 0.0,
            np.log1p(sizes[1]) if len(sizes) > 1 else 0.0,
        ]
        ranges = self._fold_ranges(filters)
        for key in self.tracked_columns:
            lo_n, hi_n = 0.0, 1.0
            bound = self._bounds.get(key)
            if key in ranges and bound and bound[1] > bound[0]:
                lo, hi = ranges[key]
                # An open end takes the column bound.
                lo = lo if math.isfinite(lo) else bound[0]
                hi = hi if math.isfinite(hi) else bound[1]
                span = bound[1] - bound[0]
                lo_n = _clip_unit(float((lo - bound[0]) / span))
                hi_n = _clip_unit(float((hi - bound[0]) / span))
            features += (lo_n, hi_n, max(0.0, hi_n - lo_n))
        return np.array(features, dtype=np.float64)

    def _fold_ranges(
        self, filters: List[Tuple[Predicate, Set[str]]]
    ) -> Dict[Tuple[str, str], Tuple[float, float]]:
        """Range bounds per tracked column implied by the plan's filters."""
        ranges: Dict[Tuple[str, str], Tuple[float, float]] = {}
        tracked = set(self.tracked_columns)
        for predicate, tables in filters:
            for column, op, value in predicate.selectivity_features():
                for table in tables:
                    key = (table, column)
                    if key not in tracked:
                        continue
                    lo, hi = ranges.get(key, (-np.inf, np.inf))
                    if op in (">", ">="):
                        lo = max(lo, value)
                    elif op in ("<", "<="):
                        hi = min(hi, value)
                    elif op == "=":
                        lo, hi = value, value
                    ranges[key] = (lo, hi)
        return ranges

    # -- training -----------------------------------------------------------------

    def observe(
        self, plan: LogicalPlan, true_cardinality: float, catalog: Catalog
    ) -> None:
        """Consume one ground-truth label; take a normalized-LMS step.

        The step is normalized by the feature norm (NLMS), which keeps the
        online update stable regardless of feature scale.
        """
        features = self.featurize(plan, catalog)
        target = float(np.log1p(max(0.0, true_cardinality)))
        prediction = float(self._weights @ features)
        error = prediction - target
        norm = float(features @ features) + 1e-9
        self._weights -= self.learning_rate * (error / norm) * features
        self._weights -= self.learning_rate * self.l2 * self._weights
        self._trained_examples += 1
        self.label_collection_rows += int(true_cardinality)

    def train_batch(self, plans: List[LogicalPlan], cards: List[float], catalog: Catalog) -> float:
        """Batch-train on labeled plans; returns final mean abs log error.

        Uses the closed-form ridge solution (the model is linear, so one
        solve dominates any number of gradient epochs).
        """
        examples = [
            _TrainingExample(self.featurize(p, catalog), float(np.log1p(max(0.0, c))))
            for p, c in zip(plans, cards)
        ]
        if not examples:
            return 0.0
        X = np.stack([e.features for e in examples])
        y = np.asarray([e.log_card for e in examples])
        gram = X.T @ X + self.l2 * len(examples) * np.eye(self._dim)
        self._weights = np.linalg.solve(gram, X.T @ y)
        self._trained_examples += len(examples)
        self.label_collection_rows += int(sum(cards))
        final = np.abs(X @ self._weights - y).mean()
        return float(final)

    # -- CardinalityEstimator protocol ----------------------------------------------

    def estimate(self, plan: LogicalPlan, catalog: Catalog) -> float:
        """Predicted cardinality (>= 0)."""
        if self._trained_examples == 0:
            raise NotTrainedError(
                "LearnedCardinalityEstimator.estimate before any training"
            )
        features = self.featurize(plan, catalog)
        log_card = float(self._weights @ features)
        return float(max(0.0, np.expm1(min(max(log_card, 0.0), 30.0))))

    def q_error(self, plan: LogicalPlan, true_cardinality: float, catalog: Catalog) -> float:
        """Q-error of the model on one labeled plan (>= 1)."""
        est = max(1.0, self.estimate(plan, catalog))
        true = max(1.0, float(true_cardinality))
        return float(max(est / true, true / est))


class TrueCardinalityOracle:
    """Exact cardinalities by executing the plan (ablation upper bound).

    Every estimate executes the plan, so the accounted cost
    (:attr:`rows_executed`) grows quickly — the point the paper makes
    about ground-truth collection being expensive.
    """

    def __init__(self, catalog: Catalog) -> None:
        """Build an executor over ``catalog``; no rows executed yet."""
        self._executor = Executor(catalog)
        self.rows_executed = 0

    def estimate(self, plan: LogicalPlan, catalog: Catalog) -> float:
        """True output cardinality of ``plan`` (via execution)."""
        result = self._executor.execute(plan)
        self.rows_executed += int(result.work)
        return float(result.table.row_count)
