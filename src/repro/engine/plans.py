"""Logical query plans.

Plans are immutable trees of relational operators: a node is never
changed after construction, so it computes its canonical string once.
Two uses:

* Execution — :class:`~repro.engine.executor.Executor` walks the tree.
* Similarity — :func:`plan_subtrees` enumerates every subtree as a
  canonical string, the ingredient for the paper's Jaccard workload
  similarity ("the sets of all subtrees of the query tree for all
  queries in the workload").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, List, Optional, Sequence

from repro.engine.expressions import Predicate
from repro.errors import PlanError


class LogicalPlan(ABC):
    """A node in a logical query plan tree."""

    @abstractmethod
    def children(self) -> List["LogicalPlan"]:
        """Child plans (empty for leaves)."""

    @abstractmethod
    def label(self) -> str:
        """Canonical single-node label (operator + own parameters)."""

    def tables(self) -> List[str]:
        """All base-table names in the subtree, sorted."""
        out = set()
        stack: List[LogicalPlan] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                out.add(node.table_name)
            stack.extend(node.children())
        return sorted(out)

    _canonical: Optional[str] = None

    def canonical(self) -> str:
        """Canonical string for the whole subtree (built once per node)."""
        if self._canonical is None:
            kids = ",".join(c.canonical() for c in self.children())
            self._canonical = f"{self.label()}({kids})" if kids else self.label()
        return self._canonical

    def __repr__(self) -> str:
        return self.canonical()


class Scan(LogicalPlan):
    """Full scan of a base table."""

    def __init__(self, table_name: str) -> None:
        self.table_name = table_name

    def children(self) -> List[LogicalPlan]:
        return []

    def label(self) -> str:
        return f"Scan[{self.table_name}]"


class Filter(LogicalPlan):
    """Predicate filter over a child plan."""

    def __init__(self, child: LogicalPlan, predicate: Predicate) -> None:
        self.child = child
        self.predicate = predicate

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def label(self) -> str:
        sig = sorted(map(str, self.predicate.signature()))
        return f"Filter[{';'.join(sig)}]"


class Project(LogicalPlan):
    """Column projection."""

    def __init__(self, child: LogicalPlan, columns: Sequence[str]) -> None:
        if not columns:
            raise PlanError("projection needs at least one column")
        self.child = child
        self.columns = list(columns)

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def label(self) -> str:
        return f"Project[{','.join(self.columns)}]"


class Join(LogicalPlan):
    """Equi-join of two child plans on ``left_col = right_col``.

    ``method`` may be ``"hash"``, ``"nl"`` (nested loops), or ``None``
    (optimizer decides).
    """

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        left_col: str,
        right_col: str,
        method: Optional[str] = None,
    ) -> None:
        if method not in (None, "hash", "nl"):
            raise PlanError(f"unknown join method {method!r}")
        self.left = left
        self.right = right
        self.left_col = left_col
        self.right_col = right_col
        self.method = method

    def children(self) -> List[LogicalPlan]:
        return [self.left, self.right]

    def label(self) -> str:
        method = self.method or "?"
        return f"Join[{self.left_col}={self.right_col};{method}]"

    def with_method(self, method: str) -> "Join":
        """Copy of this join with a fixed physical method."""
        return Join(self.left, self.right, self.left_col, self.right_col, method)


class Aggregate(LogicalPlan):
    """Aggregate over a child plan.

    ``agg`` is one of ``count | sum | avg | min | max``; ``column`` is
    required for all but ``count``.
    """

    _AGGS = ("count", "sum", "avg", "min", "max")

    def __init__(
        self, child: LogicalPlan, agg: str, column: Optional[str] = None
    ) -> None:
        if agg not in self._AGGS:
            raise PlanError(f"unknown aggregate {agg!r}; expected one of {self._AGGS}")
        if agg != "count" and column is None:
            raise PlanError(f"aggregate {agg!r} requires a column")
        self.child = child
        self.agg = agg
        self.column = column

    def children(self) -> List[LogicalPlan]:
        return [self.child]

    def label(self) -> str:
        return f"Agg[{self.agg}:{self.column or '*'}]"


class Sort(LogicalPlan):
    """Sort the child's rows by a numeric column (ascending).

    The executor may run this with a comparison sort or a learned CDF
    sort (§II's learned-sorting component); the choice is a physical
    property of the executor, not of the plan.
    """

    def __init__(self, child: LogicalPlan, column: str) -> None:
        self.child = child
        self.column = column

    def children(self) -> List["LogicalPlan"]:
        return [self.child]

    def label(self) -> str:
        return f"Sort[{self.column}]"


def plan_subtrees(plan: LogicalPlan) -> FrozenSet[str]:
    """The set of canonical strings of every subtree of ``plan``.

    This is the feature set over which
    :func:`repro.metrics.similarity.jaccard_similarity` compares
    workloads, exactly as §V-D proposes. Node labels are included on
    their own as well, so two plans sharing operators but not shapes
    still overlap partially.
    """
    out = set()
    stack: List[LogicalPlan] = [plan]
    while stack:
        node = stack.pop()
        out.add(node.canonical())
        out.add(node.label())
        stack.extend(node.children())
    return frozenset(out)


def workload_subtrees(plans: Sequence[LogicalPlan]) -> FrozenSet[str]:
    """Union of subtree sets across all queries in a workload."""
    out: set = set()
    for plan in plans:
        out |= plan_subtrees(plan)
    return frozenset(out)
