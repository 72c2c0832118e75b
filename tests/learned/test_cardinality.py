"""Cardinality estimators: histograms, learned regression, oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import Executor
from repro.engine.expressions import And, Between, CompareOp, Comparison, col
from repro.engine.plans import Aggregate, Filter, Join, Project, Scan, Sort
from repro.errors import NotTrainedError
from repro.learned.cardinality import (
    HistogramEstimator,
    LearnedCardinalityEstimator,
    TrueCardinalityOracle,
    _clip_unit,
)
from repro.suts.analytic import build_analytic_catalog


@pytest.fixture
def analyzed(orders_catalog):
    estimator = HistogramEstimator()
    estimator.analyze(orders_catalog, "orders")
    estimator.analyze(orders_catalog, "customers")
    return estimator


class TestHistogram:
    def test_scan_estimate_exact(self, analyzed, orders_catalog):
        assert analyzed.estimate(Scan("orders"), orders_catalog) == float(
            orders_catalog.row_count("orders")
        )

    def test_range_estimate_close(self, analyzed, orders_catalog):
        amounts = np.asarray(orders_catalog.get("orders").column("amount"))
        for threshold in (50.0, 150.0, 400.0):
            plan = Filter(Scan("orders"), col("amount") > threshold)
            estimate = analyzed.estimate(plan, orders_catalog)
            truth = float((amounts > threshold).sum())
            assert estimate == pytest.approx(truth, rel=0.25, abs=20)

    def test_join_estimate_order_of_magnitude(self, analyzed, orders_catalog):
        plan = Join(Scan("orders"), Scan("customers"), "cid", "cid")
        estimate = analyzed.estimate(plan, orders_catalog)
        truth = orders_catalog.row_count("orders")
        assert truth / 5 <= estimate <= truth * 5

    def test_unanalyzed_column_falls_back(self, orders_catalog):
        fresh = HistogramEstimator()
        plan = Filter(Scan("orders"), col("amount") > 100.0)
        estimate = fresh.estimate(plan, orders_catalog)
        expected = orders_catalog.row_count("orders") * HistogramEstimator.DEFAULT_SELECTIVITY
        assert estimate == pytest.approx(expected)

    def test_aggregate_estimates_one(self, analyzed, orders_catalog):
        plan = Aggregate(Scan("orders"), "count")
        assert analyzed.estimate(plan, orders_catalog) == 1.0

    def test_stale_statistics_drift(self, analyzed, orders_catalog):
        """Data changes after ANALYZE -> estimates go wrong (the classic
        failure learned estimators address)."""
        orders = orders_catalog.get("orders")
        rows = [
            {"oid": 10_000 + i, "cid": 0, "amount": 5000.0} for i in range(2000)
        ]
        orders.append_rows(rows)
        plan = Filter(Scan("orders"), col("amount") > 4000.0)
        estimate = analyzed.estimate(plan, orders_catalog)
        truth = float(
            (np.asarray(orders.column("amount")) > 4000.0).sum()
        )
        assert truth >= 2000
        assert estimate < truth / 3  # badly underestimates the new regime


class TestLearned:
    def _training_set(self, catalog):
        executor = Executor(catalog)
        plans, cards = [], []
        for threshold in np.linspace(10, 500, 30):
            plan = Filter(Scan("orders"), col("amount") > float(threshold))
            plans.append(plan)
            cards.append(float(executor.execute(plan).table.row_count))
        return plans, cards

    def test_estimate_before_training_raises(self, orders_catalog):
        model = LearnedCardinalityEstimator([("orders", "amount")])
        with pytest.raises(NotTrainedError):
            model.estimate(Scan("orders"), orders_catalog)

    def test_batch_training_low_q_error(self, orders_catalog):
        model = LearnedCardinalityEstimator([("orders", "amount")])
        model.bind_statistics(orders_catalog)
        plans, cards = self._training_set(orders_catalog)
        model.train_batch(plans, cards, orders_catalog)
        executor = Executor(orders_catalog)
        test_plan = Filter(Scan("orders"), col("amount") > 275.0)
        truth = executor.execute(test_plan).table.row_count
        assert model.q_error(test_plan, truth, orders_catalog) < 2.0

    def test_online_training_converges(self, orders_catalog):
        model = LearnedCardinalityEstimator([("orders", "amount")])
        model.bind_statistics(orders_catalog)
        plans, cards = self._training_set(orders_catalog)
        for _ in range(30):
            for plan, card in zip(plans, cards):
                model.observe(plan, card, orders_catalog)
        test_plan = Filter(Scan("orders"), col("amount") > 275.0)
        truth = Executor(orders_catalog).execute(test_plan).table.row_count
        assert model.q_error(test_plan, truth, orders_catalog) < 3.0

    def test_label_cost_accounted(self, orders_catalog):
        model = LearnedCardinalityEstimator([("orders", "amount")])
        model.bind_statistics(orders_catalog)
        plans, cards = self._training_set(orders_catalog)
        model.train_batch(plans, cards, orders_catalog)
        assert model.label_collection_rows == int(sum(cards))
        assert model.trained_examples == len(plans)

    def test_adapts_to_new_regime_online(self, orders_catalog):
        """After data drift, continued observation repairs the model."""
        model = LearnedCardinalityEstimator([("orders", "amount")])
        model.bind_statistics(orders_catalog)
        plans, cards = self._training_set(orders_catalog)
        model.train_batch(plans, cards, orders_catalog)
        # Drift: shift all cardinalities up by 3x (simulated new regime).
        drifted = [c * 3.0 for c in cards]
        test_plan, test_card = plans[15], drifted[15]
        q_before = model.q_error(test_plan, test_card, orders_catalog)
        for _ in range(60):
            for plan, card in zip(plans, drifted):
                model.observe(plan, card, orders_catalog)
        q_after = model.q_error(test_plan, test_card, orders_catalog)
        assert q_after < q_before


class TestClipUnit:
    @pytest.mark.parametrize(
        "x",
        [float("nan"), -0.0, 0.0, -1.0, 5e-324, 0.3, 1.0, 1.0 + 2**-52, 2.0,
         float("inf"), float("-inf")],
    )
    def test_bit_equal_to_np_clip(self, x):
        assert repr(_clip_unit(x)) == repr(float(np.clip(x, 0.0, 1.0)))


class TestOracle:
    def test_exact_and_costed(self, orders_catalog):
        oracle = TrueCardinalityOracle(orders_catalog)
        plan = Filter(Scan("orders"), col("amount") > 100.0)
        truth = Executor(orders_catalog).execute(plan).table.row_count
        assert oracle.estimate(plan, orders_catalog) == float(truth)
        assert oracle.rows_executed > 0


def _three_walk_featurize(model, plan, catalog):
    """The reference ``featurize``: joins, tables and filters each walked on
    their own, every filter's tables walked again, numpy on scalars."""
    features = np.zeros(model._dim, dtype=np.float64)
    features[0] = 1.0
    joins, filters, stack = [], [], [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            joins.append(node)
        stack.extend(node.children())
    features[1] = float(len(joins) > 0)
    tables = plan.tables()
    sizes = sorted(
        (float(catalog.row_count(t)) for t in tables if t in catalog), reverse=True
    )
    features[2] = np.log1p(sizes[0]) if sizes else 0.0
    features[3] = np.log1p(sizes[1]) if len(sizes) > 1 else 0.0
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Filter):
            filters.append(node)
        stack.extend(node.children())
    tracked = set(model.tracked_columns)
    folded = {}
    for filt in filters:
        for column, op, value in filt.predicate.selectivity_features():
            for table in filt.tables():
                key = (table, column)
                if key not in tracked:
                    continue
                lo, hi = folded.get(key, (-np.inf, np.inf))
                if op in (">", ">="):
                    lo = max(lo, value)
                elif op in ("<", "<="):
                    hi = min(hi, value)
                elif op == "=":
                    lo, hi = value, value
                folded[key] = (lo, hi)
    ranges = {}
    for key, (lo, hi) in folded.items():
        bound = model._bounds.get(key, (0.0, 1.0))
        ranges[key] = (
            bound[0] if not np.isfinite(lo) else lo,
            bound[1] if not np.isfinite(hi) else hi,
        )
    for i, key in enumerate(model.tracked_columns):
        lo_n, hi_n = 0.0, 1.0
        if key in ranges:
            lo, hi = ranges[key]
            bound = model._bounds.get(key)
            if bound and bound[1] > bound[0]:
                span = bound[1] - bound[0]
                lo_n = float(np.clip((lo - bound[0]) / span, 0.0, 1.0))
                hi_n = float(np.clip((hi - bound[0]) / span, 0.0, 1.0))
        features[4 + 3 * i: 7 + 3 * i] = (lo_n, hi_n, max(0.0, hi_n - lo_n))
    return features


def _reference_estimate(model, features):
    log_card = float(model._weights @ features)
    return float(max(0.0, np.expm1(np.clip(log_card, 0.0, 30.0))))


#: ``ghost`` is tracked but missing from the catalog; ``oid`` is never tracked.
TRACKED = [("orders", "amount"), ("customers", "cid"), ("customers", "region"),
           ("ghost", "amount")]
THRESHOLDS = st.one_of(
    st.floats(-50.0, 1500.0), st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
)
COLUMNS = st.sampled_from(["amount", "amount", "cid", "region", "oid"])
PREDICATES = st.recursive(
    st.one_of(
        st.builds(Comparison, COLUMNS, st.sampled_from(list(CompareOp)), THRESHOLDS),
        st.builds(Between, COLUMNS, THRESHOLDS, THRESHOLDS),
    ),
    lambda inner: st.builds(And, inner, inner),
    max_leaves=4,
)
WRAPPERS = [lambda c: Project(c, ["cid"]), lambda c: Sort(c, "amount"),
            lambda c: Aggregate(c, "count")]


@st.composite
def plan_trees(draw, depth=0):
    """Plan trees up to five levels deep, filters twice as likely as a join."""
    kind = draw(st.sampled_from(["filter", "filter", "join", "wrap", "scan"]))
    if kind == "scan" or depth == 4:
        return Scan(draw(st.sampled_from(["orders", "orders", "customers", "ghost"])))
    if kind == "join":
        return Join(draw(plan_trees(depth + 1)), draw(plan_trees(depth + 1)), "cid", "cid")
    child = draw(plan_trees(depth + 1))
    if kind == "filter":
        return Filter(child, draw(PREDICATES))
    return draw(st.sampled_from(WRAPPERS))(child)


def _bound_model(catalog, weights):
    model = LearnedCardinalityEstimator(TRACKED)
    model.bind_statistics(catalog)
    model.observe(Scan("orders"), 10.0, catalog)
    model._weights = np.asarray(weights)
    return model


class TestSingleWalkFeaturize:
    @given(
        plans=st.lists(plan_trees(), min_size=1, max_size=4),
        weights=st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_three_walks(self, plans, weights):
        catalog = build_analytic_catalog(n_orders=300, n_customers=30, seed=5)
        model = _bound_model(catalog, weights)
        for _ in range(2):
            for plan in plans:
                want = _three_walk_featurize(model, plan, catalog)
                assert model.featurize(plan, catalog).tobytes() == want.tobytes()
                got = model.estimate(plan, catalog)
                assert np.float64(got).tobytes() == np.float64(
                    _reference_estimate(model, want)
                ).tobytes()
            # A bulk load moves row counts and, once re-bound, the column bounds.
            catalog.get("orders").append_rows(
                [{"oid": 1000 + i, "cid": i % 30, "amount": 900.0 + i} for i in range(150)]
            )
            model.bind_statistics(catalog)

    @given(plans=st.lists(plan_trees(), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_repeated_estimates_are_stable(self, plans):
        """The stability rule for learned estimators: same value every call,
        weights and counters untouched."""
        catalog = build_analytic_catalog(n_orders=300, n_customers=30, seed=5)
        model = _bound_model(catalog, np.linspace(-1.0, 3.0, 16))
        weights = model._weights.tobytes()
        counters = (model.trained_examples, model.label_collection_rows)
        first = [model.estimate(plan, catalog) for plan in plans]
        for _ in range(3):
            assert [model.estimate(plan, catalog) for plan in plans] == first
        assert model._weights.tobytes() == weights
        assert (model.trained_examples, model.label_collection_rows) == counters
