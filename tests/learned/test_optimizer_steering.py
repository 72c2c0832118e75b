"""Bandit plan steering (Bao-style)."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.plans import Aggregate, Filter, Join, Project, Scan, Sort
from repro.learned.cardinality import HistogramEstimator
from repro.learned.optimizer import BanditPlanSteering, _BayesianLinearArm
from repro.suts.analytic import AnalyticWorkload, build_analytic_catalog
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import AbruptDrift


@pytest.fixture
def setup(orders_catalog):
    estimator = HistogramEstimator()
    estimator.analyze(orders_catalog, "orders")
    estimator.analyze(orders_catalog, "customers")
    steering = BanditPlanSteering(estimator, seed=3)
    plan = Join(
        Filter(Scan("orders"), col("amount") > 150.0),
        Scan("customers"),
        "cid",
        "cid",
    )
    return steering, plan, orders_catalog


class TestChoose:
    def test_choice_is_executable(self, setup):
        steering, plan, catalog = setup
        choice = steering.choose(plan, catalog)
        result = Executor(catalog).execute(choice.plan_cost.plan)
        assert result.table.row_count >= 0

    def test_choices_compare_and_hash_without_their_context(self, setup):
        steering, plan, catalog = setup
        choice = steering.choose(plan, catalog)
        same = dataclasses.replace(choice, context=choice.context + 1.0)
        assert choice == same
        assert hash(choice) == hash(same)

    def test_force_hash_arm_forces_method(self, setup):
        steering, plan, catalog = setup
        optimizer = steering._optimizer_for_arm(1)  # force-hash
        restricted = steering._restrict(plan, "hash")
        best = optimizer.optimize(restricted, catalog)
        assert "nl" not in best.plan.canonical()

    def test_restrict_rebuilds_every_node_and_leaves_the_plan_alone(self, setup):
        steering, plan, catalog = setup
        wrapped = Sort(Project(Aggregate(plan, "sum", "amount"), ["value"]), "value")
        before = wrapped.canonical()  # cached on every node of ``wrapped``
        restricted = steering._restrict(wrapped, "nl")
        assert restricted.canonical() == before.replace(";?]", ";nl]")
        assert ";nl]" in restricted.canonical()
        assert wrapped.canonical() == before
        assert plan.canonical().startswith("Join[cid=cid;?](")

    def test_decisions_counted(self, setup):
        steering, plan, catalog = setup
        for _ in range(5):
            steering.choose(plan, catalog)
        assert steering.decisions == 5
        assert sum(steering.arm_counts) == 5


class TestLearning:
    def test_converges_away_from_bad_arm(self, setup):
        """After feedback, the chronically slow arm loses share."""
        steering, plan, catalog = setup
        executor = Executor(catalog)
        for _ in range(60):
            choice = steering.choose(plan, catalog)
            result = executor.execute(choice.plan_cost.plan)
            steering.learn(choice, result.work)
        counts = steering.arm_counts
        nl_share = counts[2] / sum(counts)  # force-nl is terrible here
        assert nl_share < 0.3

    def test_reset_learning_restores_exploration(self, setup):
        steering, plan, catalog = setup
        executor = Executor(catalog)
        for _ in range(30):
            choice = steering.choose(plan, catalog)
            steering.learn(choice, executor.execute(choice.plan_cost.plan).work)
        steering.reset_learning()
        # After reset, arms are symmetric again; choosing still works.
        choice = steering.choose(plan, catalog)
        assert choice.arm in range(len(steering.ARMS))

    def test_reset_learning_keeps_exploration_noise(self):
        steering = BanditPlanSteering(HistogramEstimator(), exploration_noise=3.0)
        assert {arm._noise for arm in steering._arms} == {3.0}
        steering.reset_learning()
        assert {arm._noise for arm in steering._arms} == {3.0}

    def test_deterministic_with_seed(self, orders_catalog):
        estimator = HistogramEstimator()
        estimator.analyze(orders_catalog, "orders")
        plan = Filter(Scan("orders"), col("amount") > 100.0)
        a = BanditPlanSteering(estimator, seed=7).choose(plan, orders_catalog)
        b = BanditPlanSteering(estimator, seed=7).choose(plan, orders_catalog)
        assert a.arm == b.arm


class _RecomputingArm(_BayesianLinearArm):
    """Reference arm: inverts ``A`` on every sample, keeps nothing."""

    def sample_prediction(self, x, rng):
        cov = np.linalg.inv(self._A)
        mean = cov @ self._b
        theta = rng.multivariate_normal(mean, self._noise * cov)
        return float(theta @ x)


class TestPosteriorReuse:
    ROUNDS = 200

    def _drive(self, recompute: bool):
        """``ROUNDS`` choose/learn rounds on the stale-statistics schedule:
        ANALYZE once, bulk-load an unseen value region half way, and move
        the predicates there."""
        catalog = build_analytic_catalog(n_orders=600, n_customers=60, seed=9)
        estimator = HistogramEstimator()
        for name in catalog.names():
            estimator.analyze(catalog, name)
        steering = BanditPlanSteering(estimator, seed=5)
        if recompute:
            steering._arms = [
                _RecomputingArm(steering._FEATURE_DIM) for _ in steering.ARMS
            ]
        half = self.ROUNDS // 2
        drift = AbruptDrift(
            [UniformDistribution(0.0, 150.0), UniformDistribution(1000.0, 1120.0)],
            [float(half)],
        )
        workload = AnalyticWorkload(drift, window=80.0, join_fraction=0.8, seed=3)
        executor = Executor(catalog)
        load_rng = np.random.default_rng(29)
        chosen = []
        for i in range(self.ROUNDS):
            if i == half:
                catalog.get("orders").append_rows(
                    [
                        {
                            "oid": 100_000 + j,
                            "cid": int(load_rng.integers(0, 60)),
                            "amount": float(load_rng.uniform(1000.0, 1200.0)),
                        }
                        for j in range(200)
                    ]
                )
            plan = workload.next_query(float(i)).plan
            choice = steering.choose(plan, catalog)
            result = executor.execute(choice.plan_cost.plan)
            steering.learn(choice, result.work)
            chosen.append(
                (choice.arm, choice.plan_cost.plan.canonical(), choice.plan_cost.cost)
            )
        return steering.arm_counts, chosen

    def test_kept_posterior_chooses_what_recomputing_chooses(self):
        counts, chosen = self._drive(recompute=False)
        ref_counts, ref_chosen = self._drive(recompute=True)
        assert sum(counts) == self.ROUNDS
        assert len({arm for arm, _, _ in chosen}) > 1  # it did explore
        assert counts == ref_counts
        assert chosen == ref_chosen


def _draw_and_warnings(draw):
    """``draw()`` plus the (category, message) of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = draw()
    return value, [(w.category, str(w.message)) for w in caught]


class TestDrawEquivalence:
    """A draw from the kept factor is ``multivariate_normal``'s, bit for bit."""

    UPDATES = st.lists(
        st.tuples(
            st.lists(st.floats(0.0, 1e4), min_size=4, max_size=4),
            st.floats(-30.0, 0.0),
        ),
        max_size=60,
    )

    @given(updates=UPDATES, noise=st.sampled_from([0.5, 1.0, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_draw_is_multivariate_normal(self, updates, noise, seed):
        arm = _BayesianLinearArm(5, noise=noise)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)

        def check(x):
            cov = np.linalg.inv(arm._A)
            want, want_warned = _draw_and_warnings(
                lambda: float(ref_rng.multivariate_normal(cov @ arm._b, noise * cov) @ x)
            )
            got, warned = _draw_and_warnings(lambda: arm.sample_prediction(x, rng))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert warned == want_warned
            assert rng.bit_generator.state == ref_rng.bit_generator.state

        check(np.ones(5))
        for features, reward in updates:
            x = np.asarray([1.0, *features])
            arm.update(x, reward)
            check(x)
            check(x)  # a second draw from the same kept posterior

    @pytest.mark.parametrize("eigen", [-1.0, -1e7, -1e9], ids=["-1", "-1e-7", "-1e-9"])
    def test_non_psd_verdict_is_numpys_on_every_draw(self, eigen):
        """``_A`` inverts to a covariance with eigenvalue ``1 / eigen``: numpy
        warns on -1 and -1e-7 (outside its 1e-8 tolerance), not on -1e-9."""
        arm = _BayesianLinearArm(5)
        arm._A = np.diag([1.0, eigen, 1.0, 1.0, 1.0])
        cov = np.linalg.inv(arm._A)
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        x = np.arange(1.0, 6.0)
        for _ in range(3):
            got, warned = _draw_and_warnings(lambda: arm.sample_prediction(x, rng))
            want, want_warned = _draw_and_warnings(
                lambda: float(ref_rng.multivariate_normal(cov @ arm._b, cov) @ x)
            )
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert warned == want_warned
            assert warned == [
                (RuntimeWarning, "covariance is not symmetric positive-semidefinite.")
            ] * (eigen != -1e9)
