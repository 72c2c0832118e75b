"""Analytic SUTs: workload generation, drivers, learned vs traditional."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, ScenarioError
from repro.faults import CrashFault, FaultPlan, LatencyFault, StallFault
from repro.suts.analytic import (
    AnalyticDriver,
    AnalyticWorkload,
    LearnedOptimizerSUT,
    TraditionalOptimizerSUT,
    build_analytic_catalog,
)
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import AbruptDrift, NoDrift


@pytest.fixture
def catalog():
    return build_analytic_catalog(n_orders=1500, n_customers=150, seed=4)


@pytest.fixture
def workload():
    return AnalyticWorkload(
        threshold_drift=NoDrift(UniformDistribution(0.0, 300.0)),
        window=50.0,
        join_fraction=0.5,
        seed=9,
    )


class TestWorkload:
    def test_queries_have_plans(self, workload):
        query = workload.next_query(0.0)
        assert query.kind in ("filter", "join")
        assert query.plan.tables()

    def test_join_fraction_respected(self):
        workload = AnalyticWorkload(
            threshold_drift=NoDrift(UniformDistribution(0, 100)),
            join_fraction=1.0,
            seed=1,
        )
        kinds = {workload.next_query(0.0).kind for _ in range(10)}
        assert kinds == {"join"}

    def test_drifting_thresholds(self):
        drift = AbruptDrift(
            [UniformDistribution(0, 10), UniformDistribution(500, 510)], [50.0]
        )
        workload = AnalyticWorkload(threshold_drift=drift, seed=1, join_fraction=0.0)
        early = workload.next_query(0.0)
        late = workload.next_query(100.0)
        early_lo = early.plan.children()[0].predicate.low
        late_lo = late.plan.children()[0].predicate.low
        assert early_lo < 10 and late_lo >= 500


class TestSUTs:
    def test_traditional_executes(self, catalog, workload):
        sut = TraditionalOptimizerSUT(catalog)
        sut.setup()
        service = sut.execute(workload.next_query(0.0), 0.0)
        assert service > 0

    def test_learned_executes_and_learns(self, catalog, workload):
        sut = LearnedOptimizerSUT(catalog, seed=2, warmup_queries=5)
        sut.setup()
        for i in range(12):
            sut.execute(workload.next_query(float(i)), float(i))
        assert sut.steering.decisions == 12
        assert sut.learned_cards.trained_examples > 0

    def test_learned_without_cardinality_model(self, catalog, workload):
        sut = LearnedOptimizerSUT(catalog, use_learned_cardinality=False)
        sut.setup()
        for i in range(5):
            sut.execute(workload.next_query(float(i)), float(i))
        assert sut.learned_cards.trained_examples == 0


class TestAnalyticDriver:
    def test_run_produces_result(self, catalog, workload):
        sut = TraditionalOptimizerSUT(catalog)
        driver = AnalyticDriver(seed=1)
        result = driver.run(sut, [("seg", workload, 5.0, 10.0)])
        assert result.num_queries == 50
        assert result.segments == [("seg", 0.0, 5.0)]
        cols = result.columns
        assert (cols.arrivals <= cols.starts).all()
        assert (cols.starts < cols.completions).all()

    def test_multi_segment(self, catalog, workload):
        sut = TraditionalOptimizerSUT(catalog)
        result = AnalyticDriver(seed=1).run(
            sut, [("a", workload, 3.0, 10.0), ("b", workload, 3.0, 10.0)]
        )
        assert set(result.columns.segment_names()) == {"a", "b"}

    def test_learned_improves_over_run(self, catalog):
        """Later queries should be no slower on average than early ones
        (the bandit converges to good arms)."""
        workload = AnalyticWorkload(
            threshold_drift=NoDrift(UniformDistribution(0.0, 300.0)),
            join_fraction=1.0,
            seed=3,
        )
        sut = LearnedOptimizerSUT(catalog, seed=5, warmup_queries=20)
        result = AnalyticDriver(seed=2).run(sut, [("seg", workload, 20.0, 8.0)])
        cols = result.columns
        services = cols.service_times[np.argsort(cols.arrivals, kind="stable")]
        early = np.mean(services[:40])
        late = np.mean(services[-40:])
        assert late <= early * 1.5


    def test_schedule_validated_before_anything_runs(self, catalog, workload):
        """A bad later segment must not let earlier hooks mutate state."""
        fired = []
        hooks = {"a": lambda: fired.append("a")}
        for bad, error in [
            (("b", workload, 0.0, 10.0), ScenarioError),
            (("b", workload, 3.0, -1.0), ConfigurationError),
        ]:
            with pytest.raises(error):
                AnalyticDriver(seed=1).run(
                    TraditionalOptimizerSUT(catalog),
                    [("a", workload, 3.0, 10.0), bad],
                    segment_hooks=hooks,
                )
        assert fired == []


class TestAnalyticDriverStreaming:
    @pytest.mark.parametrize(
        "plan",
        [
            None,
            FaultPlan(
                [
                    LatencyFault(start=0.5, end=2.0, multiplier=4.0),
                    StallFault(at=2.5, duration=0.4),
                    CrashFault(at=4.0, recovery_seconds=0.5),
                ]
            ),
        ],
        ids=["fault-free", "faulted"],
    )
    def test_streaming_matches_in_memory(self, catalog, tmp_path, plan):
        from repro.core.streaming import load_spilled_columns

        def schedule():
            # The workload draws from its own RNG, so each run needs a
            # fresh instance for the two paths to see identical streams.
            workload = AnalyticWorkload(
                threshold_drift=NoDrift(UniformDistribution(0.0, 300.0)),
                window=50.0,
                join_fraction=0.5,
                seed=9,
            )
            return [("a", workload, 3.0, 10.0), ("b", workload, 3.0, 10.0)]

        reference = AnalyticDriver(seed=1, fault_plan=plan).run(
            TraditionalOptimizerSUT(catalog), schedule()
        )
        summary = AnalyticDriver(seed=1, fault_plan=plan).run_streaming(
            TraditionalOptimizerSUT(catalog),
            schedule(),
            sla=0.5,
            spill_dir=str(tmp_path / "spill"),
        )
        cols = reference.columns
        assert summary.num_queries == cols.size
        assert summary.mean_throughput() == reference.mean_throughput()
        assert {"throughput", "adaptability", "latency", "sla"} <= set(
            summary.metrics
        )
        spilled = load_spilled_columns(summary.spill["directory"])
        for name in ("arrivals", "starts", "completions", "op_codes"):
            assert np.array_equal(getattr(spilled, name), getattr(cols, name))
        assert spilled.segment_vocab == cols.segment_vocab


def test_the_repo_benchmark_analytic_op_decides_once_per_logical_sub_plan(tmp_path):
    """One ``analytic_plans`` op of ``perf/`` at seed 1 (600 plans, 480 of
    them joins, the learned estimator switched in after 50): estimating
    each logical sub-plan once, and featurizing each query once, simulates
    exactly what estimating each physical candidate node did."""
    from perf.checks import digest
    from perf.tracing import NoTracing
    from perf.workloads import WORKLOADS

    import repro.learned.optimizer as steering_module
    from repro.engine.optimizer_base import CostBasedOptimizer
    from repro.learned.cardinality import LearnedCardinalityEstimator
    from repro.learned.optimizer import BanditPlanSteering

    class PerNodeOptimizer(CostBasedOptimizer):
        """Reference: one estimate per distinct candidate node."""

        def _cost(self, plan, catalog, memo, estimates):
            return super()._cost(plan, catalog, memo, {})

    def run_op(optimizer_class):
        calls = {"estimate": 0, "featurize": 0, "context": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        workload = WORKLOADS["analytic_plans"](1, 1.0, tmp_path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(steering_module, "CostBasedOptimizer", optimizer_class)
            for cls, attr, name in (
                (LearnedCardinalityEstimator, "estimate", "estimate"),
                (LearnedCardinalityEstimator, "featurize", "featurize"),
                (BanditPlanSteering, "_featurize", "context"),
            ):
                patch.setattr(cls, attr, counted(name, getattr(cls, attr)))
            outcome = workload.run_op(workload.prepare(), NoTracing())
        return digest(outcome.evidence), calls

    got_digest, got = run_op(CostBasedOptimizer)
    want_digest, per_node = run_op(PerNodeOptimizer)
    assert got_digest == want_digest
    assert (got["estimate"], per_node["estimate"]) == (2532, 4526)
    assert got["context"] == per_node["context"] == 600  # ``learn`` reuses it
    # 1,082 observed labels featurize on both sides.
    labels = got["featurize"] - got["estimate"]
    assert labels == per_node["featurize"] - per_node["estimate"] == 1082
    # Featurize calls that decide: logical estimates plus one context, against
    # per-node estimates plus a context in both ``choose`` and ``learn``.
    assert got["estimate"] + 600 <= 0.6 * (per_node["estimate"] + 2 * 600)
