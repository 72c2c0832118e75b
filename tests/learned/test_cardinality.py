"""Cardinality estimators: histograms, learned regression, oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.plans import Aggregate, Filter, Join, Scan
from repro.errors import NotTrainedError
from repro.learned.cardinality import (
    HistogramEstimator,
    LearnedCardinalityEstimator,
    TrueCardinalityOracle,
    _clip_unit,
)


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
