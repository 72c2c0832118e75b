"""Plan subtree enumeration and the cost-based optimizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.executor import Executor
from repro.engine.expressions import And, Between, CompareOp, Comparison, col
from repro.engine.optimizer_base import CostBasedOptimizer
from repro.engine.plans import (
    Aggregate,
    Filter,
    Join,
    Project,
    Scan,
    Sort,
    plan_subtrees,
    workload_subtrees,
)
from repro.learned.cardinality import HistogramEstimator, LearnedCardinalityEstimator
from repro.learned.optimizer import _ScaledEstimator
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
    """Reference: costs and estimates every candidate node from scratch."""

    def _cost(self, plan, catalog, memo, estimates):
        return super()._cost(plan, catalog, {}, {})


def _logical(node) -> str:
    """Test-side logical signature: ``canonical()`` without join methods,
    with a join's operands sorted when they scan disjoint tables."""
    if isinstance(node, Join):
        sides = [f"{_logical(node.left)}.{node.left_col}",
                 f"{_logical(node.right)}.{node.right_col}"]
        if set(node.left.tables()).isdisjoint(node.right.tables()):
            sides.sort()
        return f"Join({','.join(sides)})"
    return f"{node.label()}({','.join(map(_logical, node.children()))})"


class TestCostReuse:
    @pytest.fixture
    def plan(self):
        # Two open joins: 4 x 4 = 16 candidates over shared subtrees.
        inner = Join(
            Filter(Scan("orders"), col("amount") > 400.0), Scan("customers"), "cid", "cid"
        )
        return Aggregate(Join(inner, Scan("customers"), "cid", "cid"), "count")

    def test_each_logical_signature_estimated_once(self, histograms, plan, orders_catalog):
        counting = _CountingEstimator(histograms)
        CostBasedOptimizer(counting).optimize(plan, orders_catalog)
        asked = [_logical(node) for node in counting.asked]
        assert len(asked) == len(set(asked))
        # Two scans and the filter; the inner join, whose sides are disjoint;
        # both orientations of the outer join (customers on both sides) and
        # of the aggregate above it: 8.
        assert len(asked) == 8
        # ... and reuse is real: from-scratch costing asks the same
        # signatures far more often.
        unshared = _CountingEstimator(histograms)
        _NoReuseOptimizer(unshared).optimize(plan, orders_catalog)
        assert {_logical(n) for n in unshared.asked} == set(asked)
        assert len(unshared.asked) > 10 * len(asked)

    def test_an_open_join_decision_estimates_five_sub_plans_not_eleven(self, orders_catalog):
        """The analytic ``join`` template: 4 physical joins and 4 aggregates
        over one filter and two scans are 11 nodes, and 5 logical sub-plans."""
        counting = _CountingEstimator(_trained_learned(orders_catalog))
        plan = Aggregate(
            Join(Filter(Scan("orders"), col("amount").between(20.0, 100.0)),
                 Scan("customers"), "cid", "cid"),
            "count",
        )
        CostBasedOptimizer(counting).optimize(plan, orders_catalog)
        assert len(counting.asked) == 5
        nodes = set()
        for candidate in CostBasedOptimizer(counting).enumerate_candidates(plan):
            stack = [candidate]
            while stack:
                node = stack.pop()
                nodes.add(id(node))
                stack.extend(node.children())
        assert len(nodes) == 11

    def test_choice_equal_with_and_without_reuse(self, histograms, plan, orders_catalog):
        shared = CostBasedOptimizer(histograms).optimize(plan, orders_catalog)
        unshared = _NoReuseOptimizer(histograms).optimize(plan, orders_catalog)
        assert shared.plan.canonical() == unshared.plan.canonical()
        assert shared.cost == unshared.cost
        assert shared.estimated_rows == unshared.estimated_rows


def _trained_learned(catalog) -> LearnedCardinalityEstimator:
    """A learned estimator fitted to filter and join labels of ``catalog``."""
    model = LearnedCardinalityEstimator([("orders", "amount"), ("customers", "region")])
    model.bind_statistics(catalog)
    executor = Executor(catalog)
    plans = []
    for low in np.linspace(0.0, 400.0, 12):
        amount = Filter(Scan("orders"), col("amount").between(low, low + 60.0))
        plans += [amount, Join(amount, Scan("customers"), "cid", "cid")]
    plans.append(Join(Scan("orders"), Filter(Scan("customers"), col("region") < 4), "cid", "cid"))
    cards = [float(executor.execute(p).table.row_count) for p in plans]
    model.train_batch(plans, cards, catalog)
    return model


_COLUMNS = {"orders": ("amount", "oid"), "customers": ("region", "cid")}
_VALUES = st.sampled_from([-0.0, 0.0, 4.0, 10.0, 50.0, 120.0, 400.0, 1e9])
_OPS = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])


@st.composite
def _predicates(draw, table):
    """A comparison, a ``BETWEEN`` or a conjunction of two on ``table``'s columns."""
    column = st.sampled_from(_COLUMNS[table])
    leaf = st.one_of(
        st.builds(lambda c, op, v: Comparison(c, CompareOp(op), v), column, _OPS, _VALUES),
        st.builds(Between, column, _VALUES, _VALUES),
    )
    return draw(st.one_of(leaf, st.builds(And, leaf, leaf)))


@st.composite
def _relations(draw):
    table = draw(st.sampled_from(sorted(_COLUMNS)))
    scan = Scan(table)
    return Filter(scan, draw(_predicates(table))) if draw(st.booleans()) else scan


def _joins(children):
    return st.builds(
        Join, children, children,
        st.sampled_from(["cid", "oid"]), st.sampled_from(["cid", "oid"]),
        st.sampled_from([None, None, "hash", "nl"]),
    )


def _wrapped(children):
    return st.one_of(
        children,
        st.builds(lambda c: Aggregate(c, "count"), children),
        st.builds(lambda c: Aggregate(c, "avg", "amount"), children),
        st.builds(lambda c: Project(c, ["cid"]), children),
        st.builds(lambda c: Sort(c, "amount"), children),
        st.builds(lambda c: Filter(c, Comparison("amount", CompareOp.GT, 50.0)), children),
    )


# Up to three joins (64 candidates): self-joins and joins of joins included.
_PLANS = _wrapped(st.recursive(_relations(), lambda kids: _wrapped(_joins(kids)), max_leaves=4))
_SELF_JOIN = Join(
    Filter(Scan("orders"), col("amount") == 50.0),
    Filter(Scan("orders"), col("amount") < 10.0),
    "cid",
    "cid",
)


class TestLogicalMemoOracle:
    """Estimating each logical sub-plan once chooses what estimating every
    candidate node from scratch chooses, bit for bit."""

    @pytest.fixture(scope="class")
    def estimators(self):
        from repro.suts.analytic import build_analytic_catalog

        catalog = build_analytic_catalog(n_orders=800, n_customers=80, seed=5)
        histograms = HistogramEstimator()
        for name in catalog.names():
            histograms.analyze(catalog, name)
        learned = _trained_learned(catalog)
        return catalog, {
            "histogram": histograms,
            "learned": learned,
            "scaled-learned": _ScaledEstimator(learned, 10.0),
        }

    def test_self_join_features_depend_on_orientation(self, estimators):
        catalog, models = estimators
        swapped = Join(_SELF_JOIN.right, _SELF_JOIN.left, "cid", "cid")
        learned = models["learned"]
        assert not np.array_equal(
            learned.featurize(_SELF_JOIN, catalog), learned.featurize(swapped, catalog)
        )

    @pytest.mark.parametrize("name", ["histogram", "learned", "scaled-learned"])
    @settings(max_examples=60, deadline=None)
    @given(plan=_PLANS)
    @example(plan=_SELF_JOIN)
    @example(plan=Aggregate(_SELF_JOIN, "count"))
    def test_memoised_optimize_is_the_no_reuse_optimize(self, estimators, name, plan):
        catalog, models = estimators
        got = CostBasedOptimizer(models[name]).optimize(plan, catalog)
        want = _NoReuseOptimizer(models[name]).optimize(plan, catalog)
        assert got.plan.canonical() == want.plan.canonical()
        assert np.float64(got.cost).tobytes() == np.float64(want.cost).tobytes()
        assert (np.float64(got.estimated_rows).tobytes()
                == np.float64(want.estimated_rows).tobytes())
