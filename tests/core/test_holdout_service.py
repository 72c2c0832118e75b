"""Sealed hold-outs and benchmark-as-a-service."""

from __future__ import annotations

import pytest

from repro.core.benchmark import Benchmark
from repro.core.holdout import HoldoutRegistry
from repro.core.scenario import Scenario, Segment
from repro.core.service import BenchmarkService
from repro.core.sut import SystemUnderTest
from repro.errors import HoldoutViolationError, ReproError, ScenarioError
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


def _scenario(name="holdout-1", rate=10.0):
    return Scenario(
        name=name,
        segments=[
            Segment(
                spec=simple_spec("w", UniformDistribution(0, 100), rate=rate),
                duration=3.0,
            )
        ],
        seed=2,
    )


class TinySUT(SystemUnderTest):
    def __init__(self, name="tiny"):
        super().__init__(name)

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        return 0.001


class TestHoldoutRegistry:
    def test_register_returns_fingerprint(self):
        registry = HoldoutRegistry()
        fp = registry.register(_scenario())
        assert fp == _scenario().fingerprint()

    def test_reregister_same_content_ok(self):
        registry = HoldoutRegistry()
        registry.register(_scenario())
        registry.register(_scenario())  # idempotent
        assert registry.names() == ["holdout-1"]

    def test_reregister_different_content_rejected(self):
        registry = HoldoutRegistry()
        registry.register(_scenario(rate=10.0))
        with pytest.raises(ScenarioError):
            registry.register(_scenario(rate=20.0))

    def test_single_shot_per_sut(self):
        registry = HoldoutRegistry()
        registry.register(_scenario())
        registry.checkout("holdout-1", "sut-a")
        with pytest.raises(HoldoutViolationError):
            registry.checkout("holdout-1", "sut-a")

    def test_different_suts_independent(self):
        registry = HoldoutRegistry()
        registry.register(_scenario())
        registry.checkout("holdout-1", "sut-a")
        registry.checkout("holdout-1", "sut-b")  # fine
        assert registry.has_run("holdout-1", "sut-a")
        assert not registry.has_run("holdout-1", "sut-c")

    def test_unknown_holdout(self):
        registry = HoldoutRegistry()
        with pytest.raises(ScenarioError):
            registry.checkout("nope", "sut")


class TestBenchmarkService:
    def test_submit_runs_all_holdouts(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.publish_holdout(_scenario("h2"))
        reports = service.submit(lambda: TinySUT())
        assert [r.holdout_name for r in reports] == ["h1", "h2"]
        assert all(r.query_count > 0 for r in reports)
        assert all(r.mean_throughput > 0 for r in reports)

    def test_second_submission_blocked(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.submit(lambda: TinySUT())
        with pytest.raises(HoldoutViolationError):
            service.submit(lambda: TinySUT())

    def test_different_sut_name_allowed(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.submit(lambda: TinySUT("a"))
        reports = service.submit(lambda: TinySUT("b"))
        assert len(reports) == 1

    def test_raw_result_operator_access(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.submit(lambda: TinySUT("a"))
        result = service.raw_result("h1", "a")
        assert result.num_queries > 0
        with pytest.raises(ReproError):
            service.raw_result("h1", "nobody")

    def test_report_fingerprint_verifiable(self):
        service = BenchmarkService()
        fp = service.publish_holdout(_scenario("h1"))
        reports = service.submit(lambda: TinySUT())
        assert reports[0].fingerprint == fp


class AngrySUT(SystemUnderTest):
    """Raises on the first executed query — a failing submission."""

    def __init__(self, name="angry"):
        super().__init__(name)

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        raise RuntimeError("db on fire")


class TestServiceFailureAccounting:
    def test_failed_run_reports_error_and_refunds_budget(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        reports = service.submit(lambda: AngrySUT("fixable"))
        assert len(reports) == 1
        assert reports[0].error is not None
        assert "db on fire" in reports[0].error
        assert reports[0].query_count == 0
        # The failed run never leaked the hold-out, so the budget
        # survives and a fixed SUT under the same name may resubmit.
        assert not service.registry.has_run("h1", "fixable")
        retry = service.submit(lambda: TinySUT("fixable"))
        assert retry[0].error is None
        assert retry[0].query_count > 0

    def test_one_bad_run_does_not_burn_other_holdouts(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.publish_holdout(_scenario("h2"))
        reports = service.submit(lambda: AngrySUT("a"))
        assert [r.holdout_name for r in reports] == ["h1", "h2"]
        assert all(r.error is not None for r in reports)
        assert not service.registry.has_run("h1", "a")
        assert not service.registry.has_run("h2", "a")

    def test_mid_submission_violation_rolls_back_checkouts(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.publish_holdout(_scenario("h2"))
        # Consume only h2 for this SUT name, out of band: the next
        # submission survives h1's checkout, then hits the violation.
        service.registry.checkout("h2", "a")
        with pytest.raises(HoldoutViolationError):
            service.submit(lambda: TinySUT("a"))
        # h1's checkout from the doomed call was rolled back.
        assert not service.registry.has_run("h1", "a")

    def test_successful_report_has_no_error(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        reports = service.submit(lambda: TinySUT())
        assert reports[0].error is None

    def test_raw_result_error_names_available_holdouts(self):
        service = BenchmarkService()
        service.publish_holdout(_scenario("h1"))
        service.submit(lambda: TinySUT("a"))
        with pytest.raises(ReproError) as excinfo:
            service.raw_result("h1", "nobody")
        message = str(excinfo.value)
        assert "registered hold-outs" in message
        assert "h1" in message


class TestBenchmarkCompare:
    def test_compare_runs_fresh_instances(self):
        bench = Benchmark()
        scn = _scenario("cmp")
        results = bench.compare([lambda: TinySUT("a"), lambda: TinySUT("b")], scn)
        assert set(results.keys()) == {"a", "b"}
        assert all(r.num_queries > 0 for r in results.values())
