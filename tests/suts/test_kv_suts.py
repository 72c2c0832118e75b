"""Key-value systems under test: snapping, dispatch, training, adaptation."""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.reference_driver import ScalarReferenceDriver

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.scenario import Scenario, Segment
from repro.errors import ConfigurationError
from repro.indexes.keybuffer import SortedKeyBuffer
from repro.observability import Tracer
from repro.suts.kv_learned import LearnedKVStore, StaticLearnedKVStore
from repro.suts.kv_traditional import HashKVStore, TraditionalKVStore
from repro.workloads.distributions import HotspotDistribution
from repro.workloads.generators import KVOperation, KVQuery, simple_spec


@pytest.fixture
def pairs(tiny_dataset):
    return tiny_dataset.pairs()


def _query(op, key, scan_length=0):
    return KVQuery(op=op, key=key, scan_length=scan_length)


class TestKVBase:
    def test_read_snaps_to_nearest(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        service = sut.execute(_query(KVOperation.READ, pairs[50][0] + 1e-7), 0.0)
        assert service > 0

    def test_read_on_empty_store(self):
        sut = TraditionalKVStore()
        sut.setup([])
        assert sut.execute(_query(KVOperation.READ, 1.0), 0.0) > 0

    def test_insert_grows_store(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        before = sut.stored_keys
        sut.execute(_query(KVOperation.INSERT, 1e12), 0.0)
        assert sut.stored_keys == before + 1

    def test_update_does_not_grow(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        before = sut.stored_keys
        sut.execute(_query(KVOperation.UPDATE, pairs[10][0]), 0.0)
        assert sut.stored_keys == before

    def test_scan_charges_per_item(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        short = sut.execute(_query(KVOperation.SCAN, pairs[10][0], scan_length=2), 0.0)
        long = sut.execute(_query(KVOperation.SCAN, pairs[10][0], scan_length=500), 0.0)
        assert long > short

    def test_rmw_costs_more_than_read(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        read = sut.execute(_query(KVOperation.READ, pairs[20][0]), 0.0)
        rmw = sut.execute(_query(KVOperation.READ_MODIFY_WRITE, pairs[20][0]), 0.0)
        assert rmw > read

    def test_inject_adds_keys_without_time(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        sut.inject([(1e9, None), (2e9, None)])
        assert sut.stored_keys == len(pairs) + 2

    def test_duplicate_keys_are_stored_once(self):
        """The snapped key set is the index's: a re-inserted key overwrites."""
        sut = TraditionalKVStore()
        sut.setup([(float(k), None) for k in range(10)] + [(7.0, "again")])
        assert sut.stored_keys == len(sut.index) == 10
        for _ in range(2):
            sut.execute(_query(KVOperation.INSERT, 3.0), 0.0)
        assert sut.stored_keys == len(sut.index) == 10
        sut.inject([(3.0, None), (4.0, None), (10.5, None), (10.5, None)])
        assert sut.stored_keys == len(sut.index) == 11
        # Scan bounds step over distinct stored keys, not over duplicates.
        assert sut._scan_bounds(3.0, 3) == (3.0, 5.0)

    @given(stored=st.lists(st.integers(0, 50), max_size=30),
           injected=st.lists(st.integers(-10, 60), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_inject_merges_like_a_loop_of_adds(self, stored, injected):
        """The index's key buffer after an inject is what a per-key
        ``add`` loop leaves: into an empty store too, with repeats and
        keys already stored."""
        sut = TraditionalKVStore()
        sut.setup([(float(k), None) for k in stored])
        model = SortedKeyBuffer(sut.index.key_buffer().view.copy())
        for k in injected:
            model.add(float(k))
        sut.inject([(float(k), None) for k in injected])
        assert sut.index.key_buffer().view.tolist() == model.view.tolist()
        assert sut.index.key_buffer().view.tolist() == [k for k, _ in sut.index.items()]

    def test_inject_keeps_the_first_of_equal_keys(self):
        sut = TraditionalKVStore()
        sut.setup([])
        sut.inject([(-0.0, None), (0.0, None), (1.0, None)])
        assert np.signbit(sut.index.key_buffer().view).tolist() == [True, False]


class TestSnapBatch:
    """``_snap_batch`` is ``_snap`` per key, plus where each snap and each
    key sits."""

    # Whole-number stored keys and needles on a quarter grid reaching past
    # both ends: exact hits, exact ties at the halves, and repeats are common.
    STORED = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30)
    NEEDLES = st.lists(st.integers(min_value=-12, max_value=172), min_size=1, max_size=80)

    @staticmethod
    def _store(keys):
        sut = TraditionalKVStore()
        sut.setup([(float(k), None) for k in keys])
        return sut

    def _check(self, sut, needles):
        needles = np.asarray(needles, dtype=np.float64)
        snapped, ranks, gaps = sut._snap_batch(needles)
        assert snapped.tolist() == [sut._snap(float(k)) for k in needles]
        assert snapped.dtype == np.float64 and ranks.dtype == gaps.dtype == np.intp
        stored = sut.index.key_buffer().view
        assert stored[ranks].tolist() == snapped.tolist()
        assert ranks.tolist() == np.searchsorted(stored, snapped).tolist()
        assert gaps.tolist() == np.searchsorted(stored, needles).tolist()

    @given(stored=STORED, needles=NEEDLES)
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_snap(self, stored, needles):
        self._check(self._store(stored), [k / 4.0 for k in needles])

    def test_ties_ends_and_a_one_key_store(self):
        sut = self._store([10, 20, 30])
        # Ties go to the lower neighbour; both ends clamp; duplicates repeat.
        needles = [15.0, 25.0, 15.0, -1e300, 1e300, 10.0, 30.0, 5.0, 35.0, 15.0]
        self._check(sut, needles)
        snapped, ranks, _ = sut._snap_batch(np.asarray(needles))
        assert snapped.tolist() == [10.0, 20.0, 10.0, 10.0, 30.0, 10.0, 30.0, 10.0, 30.0, 10.0]
        assert ranks.tolist() == [0, 1, 0, 0, 2, 0, 2, 0, 2, 0]
        lone = self._store([7])
        self._check(lone, [-3.0, 7.0, 7.0, 99.0])
        self._check(lone, [7.0])

    def test_follows_writes(self):
        sut = self._store(range(0, 40, 4))
        for k in (1.0, 39.0, -5.0, 18.0):
            sut.execute(_query(KVOperation.INSERT, k), 0.0)
        self._check(sut, np.arange(-8.0, 48.0, 0.5))

    # 200 stored keys: a call of 25 needles or more reads the directory.
    EVEN = range(0, 400, 2)

    def test_a_call_of_an_eighth_of_the_store_reads_the_directory(self):
        sut = self._store(self.EVEN)
        self._check(sut, np.arange(-3.0, 403.0, 0.75)[::17])
        assert sut.index.key_buffer()._directory.table is not None

    def test_a_smaller_call_on_a_dropped_directory_takes_the_general_path(self):
        sut = self._store(self.EVEN)
        self._check(sut, np.arange(-3.0, 403.0, 0.75))
        sut.execute(_query(KVOperation.INSERT, 101.0), 0.0)
        assert sut.index.key_buffer()._directory is None
        self._check(sut, [100.5, 101.0, 101.5, 100.0, 102.0, -3.0, 999.0])
        assert sut.index.key_buffer()._directory is None
        self._check(sut, np.arange(99.0, 103.0, 0.125))
        assert sut.index.key_buffer()._directory is not None

    def test_non_finite_needles_leak_no_warning(self):
        sut = self._store(self.EVEN)
        needles = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 399.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (needles, needles * 4):  # below and above n / 8
                self._check(sut, call)


class TestTraditional:
    def test_tuning_speeds_up(self, pairs):
        slow = TraditionalKVStore(tuning_level=0)
        fast = TraditionalKVStore(tuning_level=3)
        slow.setup(pairs)
        fast.setup(pairs)
        q = _query(KVOperation.READ, pairs[100][0])
        assert fast.execute(q, 0.0) < slow.execute(q, 0.0)

    def test_tune_monotone(self, pairs):
        sut = TraditionalKVStore(tuning_level=2)
        sut.tune(1)
        assert sut.tuning_level == 2
        sut.tune(3)
        assert sut.tuning_level == 3

    def test_invalid_level_rejected(self):
        with pytest.raises(ConfigurationError):
            TraditionalKVStore(tuning_level=99)

    def test_no_training(self, pairs):
        sut = TraditionalKVStore()
        sut.setup(pairs)
        assert sut.offline_train(100.0) == 0.0
        assert sut.on_tick(1.0) is None


class TestHashSUT:
    def test_scans_catastrophic(self, pairs):
        hash_sut = HashKVStore()
        btree_sut = TraditionalKVStore()
        hash_sut.setup(pairs)
        btree_sut.setup(pairs)
        q = _query(KVOperation.SCAN, pairs[10][0], scan_length=10)
        assert hash_sut.execute(q, 0.0) > 10 * btree_sut.execute(q, 0.0)

    def test_points_fast(self, pairs):
        hash_sut = HashKVStore()
        btree_sut = TraditionalKVStore()
        hash_sut.setup(pairs)
        btree_sut.setup(pairs)
        q = _query(KVOperation.READ, pairs[10][0])
        assert hash_sut.execute(q, 0.0) < btree_sut.execute(q, 0.0)


class TestLearnedKV:
    def test_offline_budget_buys_fanout(self, pairs):
        sut = LearnedKVStore(max_fanout=64)
        sut.setup(pairs)
        full = sut.cost_model.full_retrain_seconds(len(pairs))
        used = sut.offline_train(full / 2)
        assert used == pytest.approx(full / 2, rel=0.1)
        assert sut.trained_fanout == pytest.approx(32, abs=2)

    def test_full_budget_full_fanout(self, pairs):
        sut = LearnedKVStore(max_fanout=64)
        sut.setup(pairs)
        sut.offline_train(1e9)
        assert sut.trained_fanout == 64

    def test_zero_budget_no_training(self, pairs):
        sut = LearnedKVStore()
        sut.setup(pairs)
        assert sut.offline_train(0.0) == 0.0

    def test_more_training_faster_lookups(self, pairs):
        starved = LearnedKVStore(max_fanout=256)
        funded = LearnedKVStore(max_fanout=256)
        starved.setup(pairs)
        funded.setup(pairs)
        full = funded.cost_model.full_retrain_seconds(len(pairs))
        starved.offline_train(full * 0.02)
        funded.offline_train(full)
        rng = np.random.default_rng(0)
        sample = rng.choice([k for k, _ in pairs], 200)
        t_starved = sum(
            starved.execute(_query(KVOperation.READ, float(k)), 0.0) for k in sample
        )
        t_funded = sum(
            funded.execute(_query(KVOperation.READ, float(k)), 0.0) for k in sample
        )
        assert t_funded < t_starved

    def test_drift_triggers_online_retrain(self, pairs, tiny_dataset):
        sut = LearnedKVStore(drift_window=128, retrain_cooldown=0.0)
        sut.setup(pairs)
        sut.offline_train(1e9)
        span = tiny_dataset.high - tiny_dataset.low
        rng = np.random.default_rng(1)
        # Phase 1: hot at the bottom of the key space.
        for k in rng.uniform(tiny_dataset.low, tiny_dataset.low + span * 0.05, 400):
            sut.execute(_query(KVOperation.READ, float(k)), 0.0)
        assert sut.on_tick(1.0) is None  # stable: no retrain requested
        # Phase 2: hot at the top.
        for k in rng.uniform(tiny_dataset.high - span * 0.05, tiny_dataset.high, 400):
            sut.execute(_query(KVOperation.READ, float(k)), 1.5)
        nominal = sut.on_tick(2.0)
        assert nominal is not None and nominal > 0
        assert sut.training.sessions >= 2

    def test_static_variant_never_adapts(self, pairs, tiny_dataset):
        sut = StaticLearnedKVStore()
        sut.setup(pairs)
        sut.offline_train(1e9)
        span = tiny_dataset.high - tiny_dataset.low
        rng = np.random.default_rng(1)
        for k in rng.uniform(tiny_dataset.high - span * 0.05, tiny_dataset.high, 1500):
            sut.execute(_query(KVOperation.READ, float(k)), 0.0)
        assert sut.on_tick(5.0) is None

    def test_retrain_cooldown_respected(self, pairs):
        sut = LearnedKVStore(retrain_cooldown=10.0)
        sut.setup(pairs)
        sut.offline_train(1e9)
        sut._retrain_requested = True
        assert sut.on_tick(0.0) is not None
        sut._retrain_requested = True
        assert sut.on_tick(5.0) is None  # within cooldown
        assert sut.on_tick(20.0) is not None

    def test_describe_reports_state(self, pairs):
        sut = LearnedKVStore()
        sut.setup(pairs)
        sut.offline_train(1e9)
        info = sut.describe()
        assert info["trained_fanout"] == sut.trained_fanout
        assert info["adapt"] is True


def _two_hotspot_keys(n, seed=7):
    """Accesses that jump between two narrow hot ranges every 300 keys."""
    rng = np.random.default_rng(seed)
    centres = np.repeat(rng.choice([100.0, 800.0], 1 + n // 300), 300)[:n]
    return centres + rng.uniform(0.0, 40.0, n)


def _two_hotspot_scenario():
    segments = [
        Segment(
            spec=simple_spec(
                f"hot-{i}",
                HotspotDistribution(0.0, 1000.0, hot_start=start, hot_width=40.0),
                rate=3000.0,
            ),
            duration=0.5,
        )
        for i, start in enumerate([100.0, 800.0, 100.0, 800.0])
    ]
    return Scenario(
        name="two-hotspots",
        segments=segments,
        seed=3,
        initial_keys=np.sort(np.random.default_rng(2).uniform(0.0, 1000.0, 3000)),
        tick_interval=0.1,
    )


class TestLearnedObserverIsExact:
    """The vectorized observer ends where the per-query hooks end."""

    def _store(self, pairs):
        sut = LearnedKVStore(drift_window=64, access_sample_size=500)
        sut.setup(pairs)
        sut.offline_train(1e9)
        return sut

    @pytest.mark.parametrize("cuts", [[0, 5000], [0, 1, 63, 64, 700, 2999, 5000]])
    def test_slice_hook_equals_query_hooks(self, pairs, cuts):
        keys = _two_hotspot_keys(5000)
        sliced, looped = self._store(pairs), self._store(pairs)
        batch = SimpleNamespace(keys=keys)
        for a, b in zip(cuts[:-1], cuts[1:]):
            sliced._after_execute_slice(batch, a, b)
            for key in keys[a:b]:
                looped._after_execute(_query(KVOperation.READ, float(key)), 0.0)
        assert sliced._retrain_requested is looped._retrain_requested is True
        assert list(sliced._recent_accesses) == list(looped._recent_accesses)
        assert len(sliced._recent_accesses) == 500
        got, want = sliced._detector, looped._detector
        assert got.describe() == want.describe()
        assert got.last_window().tobytes() == want.last_window().tobytes()
        assert got._reference.tobytes() == want._reference.tobytes()

    def test_run_equals_the_scalar_oracle(self):
        scenario = _two_hotspot_scenario()
        ran_tracer, oracle_tracer = Tracer(), Tracer()
        ran = Benchmark(tracer=ran_tracer).run(
            LearnedKVStore(max_fanout=64, retrain_cooldown=0.2), scenario
        )
        oracle = ScalarReferenceDriver(
            BenchmarkConfig().driver_config(), tracer=oracle_tracer
        ).run(LearnedKVStore(max_fanout=64, retrain_cooldown=0.2), scenario)
        for name in ("arrivals", "starts", "completions", "op_codes", "segment_codes"):
            got, want = getattr(ran.columns, name), getattr(oracle.columns, name)
            assert got.tobytes() == want.tobytes(), name
        assert ran.sut_description == oracle.sut_description
        events = [(e.start, e.end, e.online) for e in ran.training_events]
        assert events == [(e.start, e.end, e.online) for e in oracle.training_events]
        assert sum(online for _, _, online in events) >= 2
        counters = ran_tracer.counters
        for name in ("kv.retrains", "drift.checks", "drift.drifts_detected"):
            assert counters[name] == oracle_tracer.counters[name], name
