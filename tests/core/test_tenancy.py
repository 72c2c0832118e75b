"""Multi-tenant serving (`repro.core.tenancy`).

Pins the serve contract: deterministic per-tenant results at fixed
seeds regardless of concurrency, replayable token-bucket admission,
hold-out single-shot enforcement, refunds and sealed reports through
the service API, tenant failure isolation, and the ledger
reconciliation the smoke benchmark gates on.
"""

import json
from functools import partial

import numpy as np
import pytest

from repro.core import sharded
from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.scenario import Scenario, Segment
from repro.core.streaming import load_spilled_columns
from repro.core.sut import SystemUnderTest
from repro.core.tenancy import (
    AdmissionPolicy,
    BenchmarkServer,
    ServiceReport,
    TenantSpec,
    TokenBucket,
    sla_accounting,
)
from repro.errors import ConfigurationError, TenancyError
from repro.metrics import streaming_accumulators
from repro.observability import Tracer
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec

# As in test_workers.py: whatever a serve leaves open now lives as long
# as its resident workers.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def _scenario(name="serve-1", rate=20.0, duration=2.0, seed=3):
    return Scenario(
        name=name,
        segments=[
            Segment(
                spec=simple_spec("w", UniformDistribution(0, 100), rate=rate),
                duration=duration,
            )
        ],
        seed=seed,
    )


class TinySUT(SystemUnderTest):
    def __init__(self, name="tiny"):
        super().__init__(name)

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        return 0.001


class AngrySUT(SystemUnderTest):
    """Raises on the first executed query — a doomed tenant."""

    def __init__(self, name="angry"):
        super().__init__(name)

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        raise RuntimeError("db on fire")


def _tenants(n, shards=1, seed_base=10, arrival_spacing=0.0):
    return [
        TenantSpec(
            name=f"t{i}",
            sut_factory=(lambda i=i: TinySUT(f"sut-{i}")),
            scenario=_scenario(),
            seed=seed_base + i,
            shards=shards,
            arrival_time=i * arrival_spacing,
        )
        for i in range(n)
    ]


def _holdout_tenant(name, holdout, sut_factory):
    return TenantSpec(name=name, sut_factory=sut_factory, holdout=holdout)


def _probe_tenant(name, sut_factory):
    """A two-shard tenant whose second shard starts on a drift boundary."""
    wide, hot = UniformDistribution(0, 1000), UniformDistribution(600, 650)
    scenario = Scenario(
        name=name,
        segments=[
            Segment(spec=simple_spec(label, dist, rate=300.0), duration=4.0)
            for label, dist in (("a", wide), ("b", hot), ("c", wide), ("d", hot))
        ],
        seed=7,
        initial_keys=np.linspace(0.0, 1000.0, 2000),
    )
    return TenantSpec(name=name, sut_factory=sut_factory, scenario=scenario, shards=2)


class TestTokenBucket:
    def test_burst_must_be_positive(self):
        with pytest.raises(TenancyError):
            TokenBucket(AdmissionPolicy(burst=0))

    def test_refill_must_be_non_negative(self):
        with pytest.raises(TenancyError):
            TokenBucket(AdmissionPolicy(refill_rate=-1.0))

    def test_burst_then_empty(self):
        bucket = TokenBucket(AdmissionPolicy(burst=2, refill_rate=0.0))
        assert [bucket.admit(0.0) for _ in range(3)] == [True, True, False]

    def test_refill_over_virtual_time(self):
        bucket = TokenBucket(AdmissionPolicy(burst=1, refill_rate=1.0))
        assert bucket.admit(0.0)
        assert not bucket.admit(0.5)
        assert bucket.admit(2.0)  # 1.5 virtual seconds refilled

    def test_arrival_times_must_be_monotonic(self):
        bucket = TokenBucket(AdmissionPolicy())
        bucket.admit(5.0)
        with pytest.raises(TenancyError):
            bucket.admit(4.0)


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(TenancyError):
            BenchmarkServer(workers=0)

    def test_duplicate_tenant_names(self):
        server = BenchmarkServer(workers=1)
        spec = TenantSpec(name="t", sut_factory=TinySUT, scenario=_scenario())
        with pytest.raises(TenancyError, match="duplicate"):
            server.serve([spec, spec])

    def test_exactly_one_of_scenario_and_holdout(self):
        server = BenchmarkServer(workers=1)
        with pytest.raises(TenancyError, match="exactly one"):
            server.serve([TenantSpec(name="t", sut_factory=TinySUT)])

    def test_unknown_holdout_named(self):
        server = BenchmarkServer(workers=1)
        with pytest.raises(TenancyError, match="unknown hold-out"):
            server.serve(
                [TenantSpec(name="t", sut_factory=TinySUT, holdout="nope")]
            )

    def test_holdout_seed_override_forbidden(self):
        server = BenchmarkServer(workers=1)
        server.publish_holdout(_scenario("sealed"))
        with pytest.raises(TenancyError, match="seed"):
            server.serve(
                [
                    TenantSpec(
                        name="t",
                        sut_factory=TinySUT,
                        holdout="sealed",
                        seed=9,
                    )
                ]
            )

    def test_shards_must_be_positive(self):
        server = BenchmarkServer(workers=1)
        with pytest.raises(TenancyError, match="shards"):
            server.serve(
                [
                    TenantSpec(
                        name="t",
                        sut_factory=TinySUT,
                        scenario=_scenario(),
                        shards=0,
                    )
                ]
            )

    def test_arrival_time_must_be_non_negative(self):
        server = BenchmarkServer(workers=1)
        with pytest.raises(TenancyError, match="arrival_time"):
            server.serve(
                [
                    TenantSpec(
                        name="t",
                        sut_factory=TinySUT,
                        scenario=_scenario(),
                        arrival_time=-1.0,
                    )
                ]
            )


class TestServeDeterminism:
    def test_concurrent_matches_serial(self):
        # The acceptance contract: per-tenant summaries depend only on
        # (scenario, seed, config), never on the concurrency level.
        serial = BenchmarkServer(workers=1).serve(
            _tenants(4, shards=2), sla=0.01
        )
        concurrent = BenchmarkServer(workers=4).serve(
            _tenants(4, shards=2), sla=0.01
        )
        assert serial.completed == concurrent.completed == 4
        for a, b in zip(serial.tenants, concurrent.tenants):
            assert a.summary.to_dict() == b.summary.to_dict()
            assert a.sla_report == b.sla_report

    def test_repeat_serve_is_identical(self):
        first = BenchmarkServer(workers=2).serve(_tenants(3), sla=0.01)
        second = BenchmarkServer(workers=2).serve(_tenants(3), sla=0.01)
        for a, b in zip(first.tenants, second.tenants):
            assert a.summary.to_dict() == b.summary.to_dict()

    def test_traced_serve_counts_the_pool_and_changes_no_summary(self):
        tracer = Tracer()
        traced = BenchmarkServer(workers=2, tracer=tracer).serve(
            _tenants(3, shards=2), sla=0.01
        )
        plain = BenchmarkServer(workers=2).serve(_tenants(3, shards=2), sla=0.01)
        assert tracer.counters["pool.forks"] == 2
        assert tracer.counters["pool.attempts.ok"] == 6
        for a, b in zip(traced.tenants, plain.tenants):
            assert a.summary.to_dict() == b.summary.to_dict()

    def test_shard_payloads_do_not_depend_on_worker_position(self, monkeypatch):
        # Resident workers run shard after shard in one interpreter, so
        # a shard's payload must not depend on what its worker ran
        # before: first task or twelfth, alone on the pool or not. The
        # adaptive learned store covers tick/retrain state.
        probes = [
            _probe_tenant("probe-btree", TraditionalKVStore),
            _probe_tenant(
                "probe-learned",
                partial(LearnedKVStore, retrain_cooldown=1.0, drift_window=128),
            ),
        ]
        fillers = _tenants(4, shards=2)
        seen = {}

        def spy(scenario, plan, payloads, *rest):
            fields = [
                repr((p["states"], p["op_counts"], p["training_events"]))
                for p in payloads
            ]
            seen.setdefault(scenario.name, []).append(fields)
            return merge(scenario, plan, payloads, *rest)

        merge = sharded.merge_shard_payloads
        monkeypatch.setattr(sharded, "merge_shard_payloads", spy)
        for workers in (1, 2, 4):
            for window in (probes + fillers, fillers + probes[::-1]):
                tracer = Tracer()
                # A deadline forces process mode even at one worker.
                report = BenchmarkServer(
                    workers=workers, tenant_timeout=120.0, tracer=tracer
                ).serve(window, sla=0.01)
                assert report.completed == len(window)
                # 12 tasks on `workers` resident processes: at pool size
                # 1 the last probe shard is its worker's twelfth task.
                assert tracer.counters["pool.forks"] == workers
                assert tracer.counters["pool.dispatches"] == 12
        for probe in probes:
            runs = seen[probe.name]
            assert len(runs) == 6 and len(runs[0]) == 2
            assert all(run == runs[0] for run in runs[1:])
        assert "TrainingEvent" in seen["probe-learned"][0][1]

    def test_distinct_seeds_distinct_streams(self):
        report = BenchmarkServer(workers=1).serve(_tenants(2))
        a, b = report.tenants
        assert a.seed != b.seed
        assert a.summary.to_dict() != b.summary.to_dict()


class TestAdmission:
    def test_burst_limits_admissions(self):
        server = BenchmarkServer(
            workers=1, admission=AdmissionPolicy(burst=2, refill_rate=0.0)
        )
        report = server.serve(_tenants(5))
        assert report.offered == 5
        assert report.admitted == 2
        assert report.rejected == 3
        assert report.completed == 2
        assert report.dropped == 0
        rejected = [t for t in report.tenants if t.status == "rejected"]
        assert len(rejected) == 3
        assert all(t.summary is None for t in rejected)
        assert all("token bucket empty" in t.error for t in rejected)

    def test_refill_admits_spaced_arrivals(self):
        server = BenchmarkServer(
            workers=1, admission=AdmissionPolicy(burst=1, refill_rate=1.0)
        )
        report = server.serve(_tenants(3, arrival_spacing=2.0))
        assert report.admitted == 3
        assert report.rejected == 0

    def test_no_admission_policy_admits_everyone(self):
        report = BenchmarkServer(workers=1).serve(_tenants(4))
        assert report.admitted == 4 and report.rejected == 0


class TestHoldoutVault:
    def test_single_shot_through_service_api(self):
        server = BenchmarkServer(workers=1)
        fingerprint = server.publish_holdout(_scenario("sealed"))
        first = server.serve(
            [
                TenantSpec(
                    name="t1",
                    sut_factory=lambda: TinySUT("same"),
                    holdout="sealed",
                )
            ]
        )
        assert first.tenant("t1").ok
        assert first.tenant("t1").fingerprint == fingerprint
        second = server.serve(
            [
                TenantSpec(
                    name="t2",
                    sut_factory=lambda: TinySUT("same"),
                    holdout="sealed",
                )
            ]
        )
        violation = second.tenant("t2")
        assert violation.status == "violation"
        assert "exactly once" in violation.error
        assert violation.fingerprint == fingerprint
        assert second.violations == 1 and second.dropped == 0

    def test_other_suts_unaffected_by_violation(self):
        server = BenchmarkServer(workers=1)
        server.publish_holdout(_scenario("sealed"))
        report = server.serve(
            [
                TenantSpec(
                    name="t1",
                    sut_factory=lambda: TinySUT("a"),
                    holdout="sealed",
                ),
                TenantSpec(
                    name="t2",
                    sut_factory=lambda: TinySUT("a"),
                    holdout="sealed",
                ),
                TenantSpec(
                    name="t3",
                    sut_factory=lambda: TinySUT("b"),
                    holdout="sealed",
                ),
            ]
        )
        assert report.tenant("t1").ok
        assert report.tenant("t2").status == "violation"
        assert report.tenant("t3").ok
        assert report.completed == 2 and report.violations == 1

    def test_failed_holdout_tenant_is_refunded(self):
        server = BenchmarkServer(workers=1, retry_backoff=0.0)
        server.publish_holdout(_scenario("sealed"))
        failed = server.serve(
            [_holdout_tenant("t1", "sealed", lambda: AngrySUT("fixable"))]
        ).tenant("t1")
        assert failed.status == "failed"
        assert "db on fire" in failed.error
        assert not server.registry.has_run("sealed", "fixable")
        retry = server.serve(
            [_holdout_tenant("t2", "sealed", lambda: TinySUT("fixable"))]
        ).tenant("t2")
        assert retry.ok and retry.summary.num_queries > 0
        assert server.registry.has_run("sealed", "fixable")

    def test_failing_sut_burns_no_holdout(self):
        server = BenchmarkServer(workers=1, retry_backoff=0.0)
        server.publish_holdout(_scenario("h1"))
        server.publish_holdout(_scenario("h2"))
        report = server.serve(
            [
                _holdout_tenant(name, name, lambda: AngrySUT("a"))
                for name in ("h1", "h2")
            ]
        )
        assert report.failed == 2
        assert not server.registry.has_run("h1", "a")
        assert not server.registry.has_run("h2", "a")

    def test_raising_serve_refunds_every_checkout(self):
        class Opaque:
            name = "opaque"  # no state_dict(): cannot merge across shards

        def accumulators(scenario):
            if scenario.name == "h2":
                return [Opaque()]
            return streaming_accumulators(scenario)

        server = BenchmarkServer(workers=1)
        server.publish_holdout(_scenario("h1"))
        server.publish_holdout(_scenario("h2"))
        tenants = [
            _holdout_tenant(name, name, lambda: TinySUT("a"))
            for name in ("h1", "h2")
        ]
        with pytest.raises(ConfigurationError, match="opaque"):
            server.serve(tenants, accumulator_factory=accumulators)
        assert not server.registry.has_run("h1", "a")
        assert not server.registry.has_run("h2", "a")

    def test_holdout_report_is_sealed(self):
        sealed = _scenario("sealed", seed=918273645)
        key_drift = json.dumps(sealed.segments[0].spec.describe()["key_drift"])
        server = BenchmarkServer(workers=1, retry_backoff=0.0)
        fingerprint = server.publish_holdout(sealed)
        report = server.serve(
            [
                _holdout_tenant("good", "sealed", lambda: TinySUT("good")),
                _holdout_tenant("bad", "sealed", lambda: AngrySUT("bad")),
            ]
        )
        assert report.tenant("good").ok
        assert report.tenant("bad").status == "failed"
        payload = json.dumps(report.to_dict())
        assert key_drift not in payload and '"key_drift"' not in payload
        assert "918273645" not in payload
        for tenant in report.tenants:
            assert tenant.seed is None and tenant.fingerprint == fingerprint
        assert report.tenant("good").summary.scenario_description == {
            "name": "sealed",
            "fingerprint": fingerprint,
        }
        restored = ServiceReport.from_dict(json.loads(payload))
        assert restored.to_dict() == report.to_dict()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_holdout_report_hides_the_spill_path(self, tmp_path, shards):
        """The operator reads the columns; the report names no directory."""
        sealed = Scenario(
            name="sealed",
            segments=[
                Segment(
                    spec=simple_spec(label, UniformDistribution(0, 1000), rate=200.0),
                    duration=2.0,
                )
                for label in ("a", "b")
            ],
            seed=5,
            initial_keys=np.linspace(0.0, 1000.0, 500),
        )
        server = BenchmarkServer(workers=1)
        server.publish_holdout(sealed)
        tenant = TenantSpec(
            name="t", sut_factory=TraditionalKVStore, holdout="sealed", shards=shards
        )
        report = server.serve([tenant], spill_dir=tmp_path)
        sealed_report = report.tenant("t")
        assert sealed_report.ok and sealed_report.summary.spill is None
        assert str(tmp_path) not in json.dumps(report.to_dict())
        columns = load_spilled_columns(tmp_path / "t")
        assert columns.arrivals.size == sealed_report.summary.num_queries > 0


class TestFailureIsolation:
    def test_failed_tenant_does_not_abort_others(self):
        server = BenchmarkServer(workers=1, retry_backoff=0.0)
        tenants = [
            TenantSpec(
                name="good",
                sut_factory=lambda: TinySUT("good"),
                scenario=_scenario(),
            ),
            TenantSpec(
                name="bad",
                sut_factory=lambda: AngrySUT("bad"),
                scenario=_scenario(),
            ),
        ]
        report = server.serve(tenants)
        assert report.tenant("good").ok
        bad = report.tenant("bad")
        assert bad.status == "failed"
        assert "failed after 2 attempts" in bad.error
        assert "db on fire" in bad.error
        assert report.completed == 1
        assert report.failed == 1
        assert report.dropped == 0

    def test_raising_factory_fails_only_its_tenant(self):
        def broken():
            raise ValueError("no such store")

        tenants = [
            TenantSpec(name="broken", sut_factory=broken, scenario=_scenario()),
            TenantSpec(
                name="good",
                sut_factory=lambda: TinySUT("good"),
                scenario=_scenario(),
            ),
        ]
        report = BenchmarkServer(workers=1).serve(tenants)
        assert [t.status for t in report.tenants] == ["failed", "completed"]
        assert report.tenants[0].error.startswith("ValueError: no such store")
        assert report.offered == report.admitted + report.rejected
        assert report.dropped == 0

    def test_failed_tenant_isolated_across_processes(self):
        server = BenchmarkServer(workers=2, retry_backoff=0.0)
        tenants = [
            TenantSpec(
                name="good",
                sut_factory=lambda: TinySUT("good"),
                scenario=_scenario(),
            ),
            TenantSpec(
                name="bad",
                sut_factory=lambda: AngrySUT("bad"),
                scenario=_scenario(),
            ),
        ]
        report = server.serve(tenants)
        assert report.tenant("good").ok
        assert report.tenant("bad").status == "failed"
        assert report.dropped == 0


class TestSlaReports:
    def test_per_tenant_sla_report(self):
        report = BenchmarkServer(workers=1).serve(_tenants(2), sla=0.01)
        for tenant in report.tenants:
            sla = tenant.sla_report
            assert sla["sla"] == 0.01
            assert sla["queries"] == tenant.summary.num_queries
            assert sla["mean_throughput"] > 0
            assert sla["within_sla"] + sla["violated_sla"] == sla["queries"]
            assert sla["meets_sla"] is (sla["violated_sla"] == 0)

    def test_tenant_sla_overrides_serve_sla(self):
        tenants = _tenants(1)
        tenants[0].sla = 0.5
        report = BenchmarkServer(workers=1).serve(tenants, sla=0.001)
        assert report.tenants[0].sla_report["sla"] == 0.5

    def test_sla_accounting_without_sla(self):
        report = BenchmarkServer(workers=1).serve(_tenants(1))
        sla = report.tenants[0].sla_report
        assert sla["sla"] is None
        assert "within_sla" not in sla
        assert sla["latency_mean"] > 0

    def test_sla_accounting_is_pure(self):
        report = BenchmarkServer(workers=1).serve(_tenants(1), sla=0.01)
        tenant = report.tenants[0]
        assert sla_accounting(tenant.summary, 0.01) == tenant.sla_report


class TestReports:
    def test_service_report_round_trip(self):
        server = BenchmarkServer(
            workers=1, admission=AdmissionPolicy(burst=2, refill_rate=0.0)
        )
        report = server.serve(_tenants(3), sla=0.01)
        payload = json.loads(json.dumps(report.to_dict()))
        assert ServiceReport.from_dict(payload).to_dict() == report.to_dict()

    def test_tenant_accessor(self):
        report = BenchmarkServer(workers=1).serve(_tenants(2))
        assert report.tenant("t1").tenant == "t1"
        with pytest.raises(TenancyError):
            report.tenant("nope")

    def test_empty_window(self):
        report = BenchmarkServer(workers=1).serve([])
        assert report.offered == 0
        assert report.tenants == []


class TestSpill:
    def test_tenant_columns_spill_and_reload(self, tmp_path):
        report = BenchmarkServer(workers=1).serve(
            _tenants(2, shards=2), spill_dir=tmp_path
        )
        for tenant in report.tenants:
            columns = load_spilled_columns(tmp_path / tenant.tenant)
            assert columns.arrivals.size == tenant.summary.num_queries


class TestBenchmarkFacade:
    def test_serve_passthrough(self):
        report = Benchmark(BenchmarkConfig()).serve(_tenants(2), workers=1)
        assert report.completed == 2
