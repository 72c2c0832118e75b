"""Plan subtree enumeration and the cost-based optimizer."""

from __future__ import annotations

import pytest

from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.optimizer_base import CostBasedOptimizer
from repro.engine.plans import (
    Aggregate,
    Filter,
    Join,
    Scan,
    plan_subtrees,
    workload_subtrees,
)
from repro.learned.cardinality import HistogramEstimator
from repro.metrics.similarity import jaccard_similarity


class TestSubtrees:
    def test_leaf_has_one_subtree(self):
        subtrees = plan_subtrees(Scan("t"))
        assert "Scan[t]" in subtrees

    def test_nested_plan_enumerates_all(self):
        plan = Aggregate(Filter(Scan("t"), col("x") > 1.0), "count")
        subtrees = plan_subtrees(plan)
        assert any(s.startswith("Agg") and "Filter" in s for s in subtrees)
        assert "Scan[t]" in subtrees

    def test_workload_union(self):
        a = Filter(Scan("t"), col("x") > 1.0)
        b = Filter(Scan("u"), col("x") > 1.0)
        union = workload_subtrees([a, b])
        assert "Scan[t]" in union and "Scan[u]" in union

    def test_jaccard_over_subtrees_orders_similarity(self):
        base = Filter(Scan("t"), col("x") > 1.0)
        same_shape = Filter(Scan("t"), col("x") > 9.0)  # same signature
        different = Join(Scan("t"), Scan("u"), "a", "b")
        sim_same = jaccard_similarity(plan_subtrees(base), plan_subtrees(same_shape))
        sim_diff = jaccard_similarity(plan_subtrees(base), plan_subtrees(different))
        assert sim_same > sim_diff

    def test_tables_helper(self):
        plan = Join(Scan("b"), Filter(Scan("a"), col("x") > 0), "k", "k")
        assert plan.tables() == ["a", "b"]


@pytest.fixture
def histograms(orders_catalog):
    estimator = HistogramEstimator()
    estimator.analyze(orders_catalog, "orders")
    estimator.analyze(orders_catalog, "customers")
    return estimator


class TestOptimizer:
    @pytest.fixture
    def optimizer(self, histograms):
        return CostBasedOptimizer(histograms)

    def test_prefers_hash_join_on_large_inputs(self, optimizer, orders_catalog):
        plan = Join(Scan("orders"), Scan("customers"), "cid", "cid")
        best = optimizer.optimize(plan, orders_catalog)
        assert "hash" in best.plan.canonical()

    def test_chosen_plan_executes_correctly(self, optimizer, orders_catalog):
        plan = Join(
            Filter(Scan("orders"), col("amount") > 100.0),
            Scan("customers"),
            "cid",
            "cid",
        )
        best = optimizer.optimize(plan, orders_catalog)
        result = Executor(orders_catalog).execute(best.plan)
        reference = Executor(orders_catalog).execute(plan.with_method("hash"))
        assert result.table.row_count == reference.table.row_count

    def test_candidates_include_both_methods(self, optimizer):
        plan = Join(Scan("orders"), Scan("customers"), "cid", "cid")
        candidates = optimizer.enumerate_candidates(plan)
        methods = {c.method for c in candidates}
        assert methods == {"hash", "nl"}
        assert len(candidates) == 4  # 2 methods x 2 operand orders

    def test_cost_positive(self, optimizer, orders_catalog):
        best = optimizer.optimize(Scan("orders"), orders_catalog)
        assert best.cost > 0

    def test_better_estimates_never_hurt_chosen_cost(
        self, orders_catalog
    ):
        """An optimizer with exact cardinalities picks a plan whose true
        work is no worse than the histogram optimizer's choice."""
        from repro.learned.cardinality import TrueCardinalityOracle

        hist = HistogramEstimator()
        hist.analyze(orders_catalog, "orders")
        hist.analyze(orders_catalog, "customers")
        plan = Join(
            Filter(Scan("orders"), col("amount") > 400.0),
            Scan("customers"),
            "cid",
            "cid",
        )
        executor = Executor(orders_catalog)
        hist_choice = CostBasedOptimizer(hist).optimize(plan, orders_catalog)
        oracle_choice = CostBasedOptimizer(
            TrueCardinalityOracle(orders_catalog)
        ).optimize(plan, orders_catalog)
        hist_work = executor.execute(hist_choice.plan).work
        oracle_work = executor.execute(oracle_choice.plan).work
        assert oracle_work <= hist_work * 1.05


class _CountingEstimator:
    """Delegates to ``inner`` and keeps every node it was asked about."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.asked = []  # the nodes themselves: alive, so ids stay distinct

    def estimate(self, plan, catalog):
        self.asked.append(plan)
        return self.inner.estimate(plan, catalog)


class _NoReuseOptimizer(CostBasedOptimizer):
    """Reference: costs every candidate from scratch."""

    def _cost(self, plan, catalog, memo):
        return super()._cost(plan, catalog, {})


class TestCostReuse:
    @pytest.fixture
    def plan(self):
        # Two open joins: 4 x 4 = 16 candidates over shared subtrees.
        inner = Join(
            Filter(Scan("orders"), col("amount") > 400.0), Scan("customers"), "cid", "cid"
        )
        return Aggregate(Join(inner, Scan("customers"), "cid", "cid"), "count")

    def test_each_subtree_object_estimated_once(self, histograms, plan, orders_catalog):
        counting = _CountingEstimator(histograms)
        optimizer = CostBasedOptimizer(counting)
        optimizer.optimize(plan, orders_catalog)
        distinct = {id(node) for node in counting.asked}
        assert len(counting.asked) == len(distinct)
        # ... and sharing is real: from-scratch costing asks far more often.
        unshared = _CountingEstimator(histograms)
        _NoReuseOptimizer(unshared).optimize(plan, orders_catalog)
        assert {n.canonical() for n in unshared.asked} == {
            n.canonical() for n in counting.asked
        }
        assert len(unshared.asked) > 2 * len(counting.asked)

    def test_choice_equal_with_and_without_reuse(self, histograms, plan, orders_catalog):
        shared = CostBasedOptimizer(histograms).optimize(plan, orders_catalog)
        unshared = _NoReuseOptimizer(histograms).optimize(plan, orders_catalog)
        assert shared.plan.canonical() == unshared.plan.canonical()
        assert shared.cost == unshared.cost
        assert shared.estimated_rows == unshared.estimated_rows
