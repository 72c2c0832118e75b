"""Golden end-to-end regression suite.

One fixed-seed KV matrix (learned + traditional stores through the full
MatrixRunner pipeline) and one fixed-seed analytic run produce a metric
payload — throughput series, SLA bands, adaptability summary, cost
breakdown — that is compared *exactly* against a checked-in golden JSON.

Virtual-clock timestamps are deterministic arithmetic over dyadic/seeded
inputs and JSON float round-trips are exact (shortest-repr), so the
comparison uses ``==`` on every float: any behavioral change to the
driver, the SUTs, the queueing kernel, or the metric kernels — even a
one-ULP drift — fails loudly (demonstrated by the perturbation test).

Regenerate after an *intentional* behavior change with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_run.py
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.phases import TrainingPhase
from repro.core.runner import MatrixRunner, matrix_jobs
from repro.core.scenario import Scenario, Segment
from repro.metrics.adaptability import adaptability_report
from repro.metrics.cost import cost_breakdown
from repro.metrics.sla import latency_bands
from repro.suts.analytic import (
    AnalyticDriver,
    AnalyticWorkload,
    LearnedOptimizerSUT,
    build_analytic_catalog,
)
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution, ZipfDistribution
from repro.workloads.drift import AbruptDrift, NoDrift
from repro.workloads.generators import (
    KVOperation,
    OperationMix,
    WorkloadSpec,
    simple_spec,
)
from repro.workloads.patterns import ConstantArrivals

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_run.json"

#: Fixed SLA for the golden latency bands (2 ms).
SLA_SECONDS = 0.002


def _kv_scenario() -> Scenario:
    """Two-segment drifting KV scenario with an offline training phase."""
    mix = OperationMix(
        {
            KVOperation.READ: 0.7,
            KVOperation.INSERT: 0.15,
            KVOperation.SCAN: 0.1,
            KVOperation.UPDATE: 0.05,
        }
    )
    spec_reads = simple_spec("steady", UniformDistribution(0, 1000), rate=300.0)
    spec_mixed = WorkloadSpec(
        name="drifted",
        mix=mix,
        key_drift=AbruptDrift(
            [UniformDistribution(0, 1000), ZipfDistribution(0, 1000, theta=1.2)],
            [1.0],
        ),
        arrivals=ConstantArrivals(300.0),
        scan_length_mean=16,
    )
    return Scenario(
        name="golden-kv",
        segments=[
            Segment(spec=spec_reads, duration=2.0),
            Segment(spec=spec_mixed, duration=2.0),
        ],
        seed=11,
        initial_keys=np.linspace(0, 1000, 2000),
        initial_training=TrainingPhase(budget_seconds=5.0),
    )


def _kv_factories():
    return {
        "learned-kv": lambda: LearnedKVStore(
            max_fanout=96, retrain_cooldown=1.0, drift_window=256
        ),
        "btree-kv": TraditionalKVStore,
    }


def _analytic_result():
    """Small fixed-seed analytic run: bandit steering over a real engine."""
    catalog = build_analytic_catalog(n_orders=800, n_customers=80, seed=2)
    steady = AnalyticWorkload(
        NoDrift(UniformDistribution(0.0, 200.0)),
        window=40.0,
        join_fraction=0.5,
        seed=5,
    )
    shifted = AnalyticWorkload(
        NoDrift(UniformDistribution(150.0, 400.0)),
        window=40.0,
        join_fraction=0.5,
        seed=6,
    )
    sut = LearnedOptimizerSUT(catalog, seed=4, warmup_queries=20)
    driver = AnalyticDriver(seed=9)
    return driver.run(
        sut,
        [("steady", steady, 2.0, 30.0), ("shifted", shifted, 2.0, 30.0)],
        scenario_name="golden-analytic",
    )


def _metrics_payload(result) -> dict:
    """The pinned metric surface for one run (all JSON scalars/lists)."""
    times, counts = result.throughput_series(interval=1.0)
    bands = latency_bands(result, SLA_SECONDS, interval=1.0)
    adapt = adaptability_report(result)
    cost = cost_breakdown(result)
    return {
        "num_queries": result.num_queries,
        "mean_throughput": result.mean_throughput(),
        "throughput_series": {
            "times": times.tolist(),
            "counts": counts.tolist(),
        },
        "latency_bands": [[b.start, b.within_sla, b.violated] for b in bands],
        "adaptability": {
            "area_vs_ideal": adapt.area_vs_ideal,
            "recovery_seconds": adapt.recovery_seconds,
            "throughput_cv": adapt.throughput_cv,
        },
        "cost": {
            "training": cost.training_cost,
            "execution": cost.execution_cost,
            "per_kquery": cost.cost_per_kquery,
        },
        "training_events": [
            [e.start, e.duration, e.nominal_seconds, e.cost, e.online]
            for e in result.training_events
        ],
    }


def build_golden_payload() -> dict:
    """Run the fixed-seed KV matrix + analytic run; emit the payload."""
    outcome = MatrixRunner(workers=1).run(
        matrix_jobs(_kv_factories(), [_kv_scenario()])
    )
    outcome.raise_on_failure()
    payload = {"kv": {}, "analytic": {}}
    for record, result in zip(outcome.manifest.jobs, outcome.results):
        payload["kv"][record.label] = _metrics_payload(result)
    analytic = _analytic_result()
    payload["analytic"][analytic.sut_name] = _metrics_payload(analytic)
    return payload


def _assert_payload_equal(golden, fresh, path="$"):
    """Exact recursive equality; floats compared with ``==`` (no tolerance)."""
    assert type(golden) is type(fresh) or (
        isinstance(golden, (int, float))
        and isinstance(fresh, (int, float))
        and not isinstance(golden, bool)
        and not isinstance(fresh, bool)
    ), f"{path}: type {type(golden).__name__} != {type(fresh).__name__}"
    if isinstance(golden, dict):
        assert sorted(golden) == sorted(fresh), f"{path}: keys differ"
        for key in golden:
            _assert_payload_equal(golden[key], fresh[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(golden) == len(fresh), f"{path}: length differs"
        for i, (a, b) in enumerate(zip(golden, fresh)):
            _assert_payload_equal(a, b, f"{path}[{i}]")
    else:
        assert golden == fresh, f"{path}: {golden!r} != {fresh!r}"


@pytest.fixture(scope="module")
def fresh_payload():
    return build_golden_payload()


class TestGoldenRun:
    def test_matches_checked_in_golden(self, fresh_payload):
        if os.environ.get("UPDATE_GOLDENS") == "1":
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            with open(GOLDEN_PATH, "w") as handle:
                json.dump(fresh_payload, handle, indent=2, sort_keys=True)
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        assert GOLDEN_PATH.exists(), (
            f"golden file missing; regenerate with UPDATE_GOLDENS=1 "
            f"({GOLDEN_PATH})"
        )
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        _assert_payload_equal(golden, fresh_payload)

    def test_payload_json_round_trip_is_exact(self, fresh_payload):
        """JSON round-trips floats exactly, so ``==`` pinning is sound."""
        rebuilt = json.loads(json.dumps(fresh_payload))
        _assert_payload_equal(fresh_payload, rebuilt)

    def test_payload_covers_both_suts_and_analytic(self, fresh_payload):
        assert set(fresh_payload["kv"]) == {
            "learned-kv×golden-kv",
            "btree-kv×golden-kv",
        }
        assert set(fresh_payload["analytic"]) == {"learned-optimizer"}
        learned = fresh_payload["kv"]["learned-kv×golden-kv"]
        assert learned["num_queries"] > 1000
        assert learned["training_events"], "offline phase must be recorded"


class TestComparatorSensitivity:
    """The comparator must catch even a one-ULP metric drift."""

    @staticmethod
    def _perturb_first_float(node, path="$"):
        """Nudge the first nonzero float leaf by one ULP; return its path."""
        if isinstance(node, dict):
            for key in sorted(node):
                hit = TestComparatorSensitivity._perturb_first_float(
                    node[key], f"{path}.{key}"
                )
                if hit is None and isinstance(node[key], float) and node[key]:
                    node[key] = float(np.nextafter(node[key], np.inf))
                    return f"{path}.{key}"
                if hit:
                    return hit
        elif isinstance(node, list):
            for i, item in enumerate(node):
                if isinstance(item, float) and item:
                    node[i] = float(np.nextafter(item, np.inf))
                    return f"{path}[{i}]"
                hit = TestComparatorSensitivity._perturb_first_float(
                    item, f"{path}[{i}]"
                )
                if hit:
                    return hit
        return None

    def test_one_ulp_perturbation_fails(self, fresh_payload):
        mutated = copy.deepcopy(fresh_payload)
        where = self._perturb_first_float(mutated)
        assert where is not None, "payload must contain a nonzero float"
        with pytest.raises(AssertionError):
            _assert_payload_equal(fresh_payload, mutated)

    def test_dropped_band_fails(self, fresh_payload):
        mutated = copy.deepcopy(fresh_payload)
        key = next(iter(mutated["kv"]))
        assert mutated["kv"][key]["latency_bands"], "bands must be non-empty"
        mutated["kv"][key]["latency_bands"].pop()
        with pytest.raises(AssertionError):
            _assert_payload_equal(fresh_payload, mutated)

    def test_int_float_type_confusion_fails(self, fresh_payload):
        mutated = copy.deepcopy(fresh_payload)
        key = next(iter(mutated["kv"]))
        mutated["kv"][key]["num_queries"] += 1
        with pytest.raises(AssertionError):
            _assert_payload_equal(fresh_payload, mutated)
