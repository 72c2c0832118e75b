"""The sealed hold-out registry and ``Benchmark.compare``.

The server-side vault (refunds, sealed reports) is pinned in
``tests/core/test_tenancy.py::TestHoldoutVault``.
"""

from __future__ import annotations

import pytest

from repro.core.benchmark import Benchmark
from repro.core.holdout import HoldoutRegistry
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.errors import HoldoutViolationError, ScenarioError
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


class TestBenchmarkCompare:
    def test_compare_runs_fresh_instances(self):
        bench = Benchmark()
        scn = _scenario("cmp")
        results = bench.compare([lambda: TinySUT("a"), lambda: TinySUT("b")], scn)
        assert set(results.keys()) == {"a", "b"}
        assert all(r.num_queries > 0 for r in results.values())
