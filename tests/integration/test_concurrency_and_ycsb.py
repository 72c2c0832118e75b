"""Additional end-to-end shapes: concurrency scaling and chained YCSB."""

from __future__ import annotations

import numpy as np
import pytest

# Slowest lane of the suite: CI runs these separately (-m smoke).
pytestmark = pytest.mark.smoke

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.scenarios import default_dataset, hotspot
from repro.suts.kv_learned import StaticLearnedKVStore
from repro.suts.kv_traditional import HashKVStore, TraditionalKVStore
from repro.workloads.generators import simple_spec
from repro.workloads.ycsb import ycsb_workload


@pytest.fixture(scope="module")
def dataset():
    return default_dataset(n=10_000, seed=3)


class TestConcurrencyScaling:
    """More servers raise sustainable throughput for the same SUT."""

    def _scenario(self, dataset, rate):
        return Scenario(
            name="load",
            segments=[
                Segment(
                    spec=simple_spec("w", hotspot(dataset, 0.1), rate=rate,
                                     read_fraction=1.0),
                    duration=10.0,
                )
            ],
            initial_keys=dataset.keys,
            seed=9,
        )

    def test_btree_saturation_lifts_with_servers(self, dataset):
        # Offered rate ~2x a single btree worker's capacity.
        rate = 5000.0
        scenario = self._scenario(dataset, rate)
        single = Benchmark(BenchmarkConfig(servers=1)).run(
            TraditionalKVStore(), scenario
        )
        quad = Benchmark(BenchmarkConfig(servers=4)).run(
            TraditionalKVStore(), scenario
        )
        horizon = scenario.total_duration
        eff_single = (single.completions() <= horizon).sum() / horizon
        eff_quad = (quad.completions() <= horizon).sum() / horizon
        assert eff_single < 0.8 * rate  # saturated alone
        assert eff_quad > 0.95 * rate  # keeps up with 4 slots
        assert np.percentile(quad.latencies(), 99) < np.percentile(
            single.latencies(), 99
        )


def _median_latency(result, label):
    return np.median(result.columns.latencies[result.segment_mask(label)])


class TestChainedYCSB:
    """YCSB C→A→E in one run: the structural-mismatch story, asserted."""

    @pytest.fixture(scope="class")
    def results(self, dataset):
        segments = [
            Segment(
                spec=ycsb_workload(letter, low=dataset.low, high=dataset.high,
                                   rate=300.0),
                duration=8.0,
            )
            for letter in ("C", "A", "E")
        ]
        scenario = Scenario(
            name="ycsb-chain",
            segments=segments,
            initial_training=TrainingPhase(budget_seconds=1e9),
            initial_keys=dataset.keys,
            seed=21,
        )
        bench = Benchmark()
        return {
            sut.name: bench.run(sut, scenario)
            for sut in (TraditionalKVStore(), HashKVStore())
        }

    def test_hash_wins_point_phase(self, results):
        hash_c = _median_latency(results["hash-kv"], "ycsb-c")
        btree_c = _median_latency(results["btree-kv"], "ycsb-c")
        assert hash_c < btree_c

    def test_hash_collapses_on_scans(self, results):
        hash_e = _median_latency(results["hash-kv"], "ycsb-e")
        btree_e = _median_latency(results["btree-kv"], "ycsb-e")
        assert hash_e > 10 * btree_e

    def test_single_run_covers_all_phases(self, results):
        for result in results.values():
            assert set(result.columns.segment_names()) == {
                "ycsb-c", "ycsb-a", "ycsb-e",
            }


class TestHoldoutCatchesOverfit:
    """The Lesson-1 mechanism end to end at small scale."""

    def test_out_of_sample_worse_than_in_sample(self, dataset, tmp_path):
        from repro.core.streaming import load_spilled_columns
        from repro.core.tenancy import BenchmarkServer, TenantSpec
        from repro.scenarios import expected_access_sample

        def scenario(position, name):
            return Scenario(
                name=name,
                segments=[
                    Segment(
                        spec=simple_spec(name, hotspot(dataset, position),
                                         rate=1500.0, read_fraction=1.0),
                        duration=8.0,
                    )
                ],
                initial_training=TrainingPhase(budget_seconds=1e9),
                initial_keys=dataset.keys,
                seed=5,
            )

        published = scenario(0.1, "published")
        sample = expected_access_sample(published)

        def factory():
            return StaticLearnedKVStore(max_fanout=48,
                                        expected_access_sample=sample)

        in_sample = Benchmark().run(factory(), published)
        server = BenchmarkServer(workers=1)
        server.publish_holdout(scenario(0.9, "sealed"))
        server.serve(
            [TenantSpec(name="vendor", sut_factory=factory, holdout="sealed")],
            spill_dir=tmp_path,
        )
        columns = load_spilled_columns(tmp_path / "vendor")
        out_p99 = float(np.percentile(columns.latencies, 99))
        in_p99 = float(np.percentile(in_sample.latencies(), 99))
        assert out_p99 > in_p99 * 2
