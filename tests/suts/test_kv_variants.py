"""ALEX- and PGM-backed KV stores."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.benchmark import Benchmark
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.suts.kv_traditional import TraditionalKVStore
from repro.suts.kv_variants import AlexKVStore, PGMKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import KVOperation, KVQuery, simple_spec


@pytest.fixture
def pairs(tiny_dataset):
    return tiny_dataset.pairs()


def _query(op, key, scan_length=0):
    return KVQuery(op=op, key=key, scan_length=scan_length)


class TestAlexStore:
    def test_basic_operations(self, pairs):
        store = AlexKVStore()
        store.setup(pairs)
        assert store.execute(_query(KVOperation.READ, pairs[10][0]), 0.0) > 0
        store.execute(_query(KVOperation.INSERT, 1e12), 0.0)
        assert store.stored_keys == len(pairs) + 1

    def test_no_scheduled_training(self, pairs):
        store = AlexKVStore()
        store.setup(pairs)
        assert store.offline_train(100.0) == 0.0
        assert store.on_tick(1.0) is None

    def test_insert_heavy_stream_stays_fast(self, pairs, tiny_dataset):
        """ALEX absorbs inserts without bulk-retrain stalls."""
        store = AlexKVStore()
        store.setup(pairs)
        rng = np.random.default_rng(2)
        times = []
        for key in rng.uniform(tiny_dataset.low, tiny_dataset.high, 1000):
            times.append(store.execute(_query(KVOperation.INSERT, float(key)), 0.0))
        # No single insert should cost a full rebuild.
        assert max(times) < 0.05

    def test_reads_after_inserts_correct_cost(self, pairs):
        store = AlexKVStore()
        store.setup(pairs)
        service = store.execute(_query(KVOperation.READ, pairs[100][0]), 0.0)
        assert 0 < service < 0.01


class TestPGMStore:
    def test_basic_operations(self, pairs):
        store = PGMKVStore()
        store.setup(pairs)
        assert store.execute(_query(KVOperation.READ, pairs[10][0]), 0.0) > 0

    def test_offline_train_merges_delta(self, pairs):
        store = PGMKVStore(max_delta=100_000)
        store.setup(pairs)
        for i in range(50):
            store.execute(_query(KVOperation.INSERT, 1e9 + i), 0.0)
        need = store.cost_model.full_retrain_seconds(store.stored_keys)
        used = store.offline_train(need * 2)
        assert used == pytest.approx(need)
        assert store.index.delta_size == 0

    def test_insufficient_budget_no_train(self, pairs):
        store = PGMKVStore()
        store.setup(pairs)
        assert store.offline_train(1e-9) == 0.0

    def test_bounded_lookup_cost_across_datasets(self):
        """PGM's per-lookup cost is ε-bounded regardless of data shape."""
        from repro.data.datasets import build_dataset

        costs = {}
        for name in ("uniform", "adversarial"):
            ds = build_dataset(name, n=10_000, seed=5)
            store = PGMKVStore(epsilon=32)
            store.setup(ds.pairs())
            rng = np.random.default_rng(1)
            total = sum(
                store.execute(_query(KVOperation.READ, float(k)), 0.0)
                for k in rng.choice(ds.keys, 100)
            )
            costs[name] = total
        ratio = costs["adversarial"] / costs["uniform"]
        assert 0.5 < ratio < 2.0


class TestVariantComparison:
    def test_all_variants_run_a_scenario(self, tiny_dataset):
        scenario = Scenario(
            name="variants",
            segments=[
                Segment(
                    spec=simple_spec(
                        "w",
                        UniformDistribution(tiny_dataset.low, tiny_dataset.high),
                        rate=150.0,
                        read_fraction=0.8,
                    ),
                    duration=4.0,
                )
            ],
            initial_training=TrainingPhase(budget_seconds=1e9),
            initial_keys=tiny_dataset.keys,
            seed=6,
        )
        bench = Benchmark()
        for factory in (AlexKVStore, PGMKVStore, TraditionalKVStore):
            result = bench.run(factory(), scenario)
            assert result.num_queries > 500
            assert result.mean_throughput() > 0
