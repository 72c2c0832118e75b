"""Cost-based query optimization with a pluggable cardinality estimator.

The traditional optimizer baseline: estimate every candidate physical
plan's cost from cardinality estimates and pick the cheapest. Candidate
plans vary join method (hash vs nested loops) and two-way join order.
The quality of its decisions is exactly as good as its cardinality
estimates — which is the hook the learned-cardinality experiments use:
plugging a better estimator into the *same* optimizer yields better
plans, and the benchmark's virtual-time charge reflects the resulting
work difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Protocol, Tuple

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
from repro.errors import PlanError


class CardinalityEstimator(Protocol):
    """Anything that can guess how many rows a plan node emits.

    An estimate is a function of the logical sub-plan: the optimizer asks
    once per decision for all physical variants that differ only in join
    method, or in the order of join operands that scan disjoint tables.
    """

    def estimate(self, plan: LogicalPlan, catalog: Catalog) -> float:
        """Estimated output cardinality of ``plan``."""
        ...


#: (estimated work, estimated rows, logical signature, scanned tables).
_Costed = Tuple[float, float, Hashable, FrozenSet[str]]


@dataclass(frozen=True)
class PlanCost:
    """A costed physical plan candidate.

    Attributes:
        plan: The physical plan (all join methods fixed).
        cost: Estimated abstract work units.
        estimated_rows: Estimated output cardinality.
    """

    plan: LogicalPlan
    cost: float
    estimated_rows: float


class CostBasedOptimizer:
    """Chooses join methods/order to minimize estimated work.

    Args:
        estimator: Cardinality estimator consulted for every node.
    """

    def __init__(self, estimator: CardinalityEstimator) -> None:
        self.estimator = estimator

    def optimize(self, plan: LogicalPlan, catalog: Catalog) -> PlanCost:
        """Return the cheapest physical alternative for ``plan``."""
        candidates = self.enumerate_candidates(plan)
        if not candidates:
            raise PlanError("no candidate plans generated")
        # Candidates share subtree objects, and nothing an estimate depends
        # on changes inside one call: cost each distinct node once, and
        # estimate each logical sub-plan once (see ``_cost``).
        memo: Dict[int, _Costed] = {}
        estimates: Dict[Hashable, float] = {}
        best: Optional[PlanCost] = None
        for candidate in candidates:
            cost, rows, _, _ = self._cost(candidate, catalog, memo, estimates)
            if best is None or cost < best.cost:
                best = PlanCost(plan=candidate, cost=cost, estimated_rows=rows)
        assert best is not None
        return best

    # -- candidate enumeration ---------------------------------------------------

    def enumerate_candidates(self, plan: LogicalPlan) -> List[LogicalPlan]:
        """All physical variants of ``plan`` (join methods × join swaps)."""
        if isinstance(plan, Scan):
            return [plan]
        if isinstance(plan, Filter):
            return [Filter(c, plan.predicate) for c in self.enumerate_candidates(plan.child)]
        if isinstance(plan, Project):
            return [Project(c, plan.columns) for c in self.enumerate_candidates(plan.child)]
        if isinstance(plan, Aggregate):
            return [
                Aggregate(c, plan.agg, plan.column)
                for c in self.enumerate_candidates(plan.child)
            ]
        if isinstance(plan, Sort):
            return [
                Sort(c, plan.column) for c in self.enumerate_candidates(plan.child)
            ]
        if isinstance(plan, Join):
            lefts = self.enumerate_candidates(plan.left)
            rights = self.enumerate_candidates(plan.right)
            # A join whose method is already fixed (an optimizer hint,
            # e.g. from learned steering) is not re-opened.
            methods = (plan.method,) if plan.method else ("hash", "nl")
            out: List[LogicalPlan] = []
            for left in lefts:
                for right in rights:
                    for method in methods:
                        out.append(
                            Join(left, right, plan.left_col, plan.right_col, method)
                        )
                        # Swapped operand order (matters for nested loops).
                        out.append(
                            Join(right, left, plan.right_col, plan.left_col, method)
                        )
            return out
        raise PlanError(f"unknown plan node {type(plan).__name__}")

    # -- costing ---------------------------------------------------------------------

    def _cost(
        self,
        plan: LogicalPlan,
        catalog: Catalog,
        memo: Dict[int, _Costed],
        estimates: Dict[Hashable, float],
    ) -> _Costed:
        """(estimated work, estimated rows, logical signature, scanned tables).

        ``memo`` maps ``id(node)`` to its result; the caller keeps every
        node alive for as long as it keeps the memo. ``estimates`` maps a
        logical signature to its rows: no join method, and a join's operands
        unordered only when they scan disjoint tables (swapping those moves
        no two filters on one table, so no estimator's features move).
        """
        known = memo.get(id(plan))
        if known is not None:
            return known
        kids = [self._cost(child, catalog, memo, estimates) for child in plan.children()]
        if isinstance(plan, Scan):
            key: Hashable = plan.label()
            tables = frozenset((plan.table_name,))
        elif isinstance(plan, Join):
            (_, _, left_key, left_tables), (_, _, right_key, right_tables) = kids
            sides = ((left_key, plan.left_col), (right_key, plan.right_col))
            key = frozenset(sides) if left_tables.isdisjoint(right_tables) else sides
            tables = left_tables | right_tables
        else:
            # A Filter's label carries no constants: key on its predicate object.
            own = plan.predicate if isinstance(plan, Filter) else plan.label()
            key, tables = (own, kids[0][2]), kids[0][3]
        rows = estimates.get(key)
        if rows is None:
            rows = estimates[key] = max(0.0, self.estimator.estimate(plan, catalog))
        if isinstance(plan, Scan):
            cost = float(catalog.row_count(plan.table_name))
        elif isinstance(plan, Join):
            (left_cost, left_rows, _, _), (right_cost, right_rows, _, _) = kids
            if plan.method == "nl":
                join_work = left_rows * max(1.0, right_rows)
            else:
                join_work = left_rows + right_rows + rows
            cost = left_cost + right_cost + join_work
        else:
            child_cost, child_rows = kids[0][:2]
            if isinstance(plan, (Filter, Aggregate)):
                cost = child_cost + child_rows
            elif isinstance(plan, Sort):
                cost = child_cost + child_rows * max(1.0, np.log2(max(2.0, child_rows)))
            elif isinstance(plan, Project):
                cost = child_cost + 0.1 * child_rows
            else:
                raise PlanError(f"unknown plan node {type(plan).__name__}")
        memo[id(plan)] = known = (cost, rows, key, tables)
        return known
