"""The flat key view is maintained across writes, never rebuilt per write.

The B+ tree's leaf level *is* a flat view: one sorted key buffer with leaf
boundaries, which every write patches in place. The textbook node-object
tree in ``tests/indexes/reference_btree.py`` is its oracle, and its walk
(``_build_bulk_cache()``) the definition of the arrays. These tests drive
random write / read interleavings and demand, after *every* write, that
the B+ tree's arrays equal the oracle's walk and that bulk reads count
exactly what the oracle's scalar ``get`` sequence counts; the sorted
array's key buffer must stay strictly ascending and equal the test's
own model of the key set. The KV-level tests do the same for ``execute_batch``
against the ``execute`` loop, and the last test counts full builds so
per-write O(n) work cannot return unnoticed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tests.indexes.reference_btree import BPlusTree as TextbookBPlusTree
from tests.indexes.test_btree_oracle import _assert_same_leaf_level, _assert_same_tree
from tests.reference_driver import ScalarReferenceDriver

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.scenario import Scenario, Segment
from repro.indexes.base import strictly_ascending
from repro.indexes.btree import BPlusTree
from repro.indexes.sorted_array import SortedArrayIndex
from repro.observability import Tracer
from repro.suts import kv_base
from repro.suts.kv_base import KVStoreBase
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.suts.kv_variants import AlexKVStore, PGMKVStore
from repro.workloads.distributions import NormalDistribution, UniformDistribution
from repro.workloads.drift import NoDrift
from repro.workloads.generators import (
    KV_OP_CODES,
    KVOperation,
    OperationMix,
    QueryBatch,
    WorkloadSpec,
)
from repro.workloads.patterns import ConstantArrivals

ORDERS = (3, 4, 8, 64)  # small orders force leaf, inner and root splits

# ("insert", k): new key or overwrite, whichever k turns out to be;
# ("delete", i) / ("overwrite", i): the i-th stored key (mod size);
# ("lookup", i): bulk-read a stride of the stored keys starting at i.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "overwrite", "delete", "lookup"]),
        st.integers(min_value=0, max_value=400),
    ),
    min_size=10,
    max_size=150,
)
INITIAL = st.lists(st.integers(min_value=0, max_value=400), max_size=150)
SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _assert_buffer_is_fresh(index: SortedArrayIndex, twin, stored) -> None:
    view = index._keys.view
    assert strictly_ascending(view)
    np.testing.assert_array_equal(view, np.asarray(stored, dtype=np.float64))


def _scalar_rows(index, probe):
    """Per-key (comparisons, node_accesses, model_evals) via scalar gets."""
    rows = []
    for key in probe:
        before = index.stats.snapshot()
        index.get(float(key))
        diff = index.stats.diff(before)
        rows.append((diff.comparisons, diff.node_accesses, diff.model_evaluations))
    return rows


def _drive(make_index, make_twin, assert_fresh, initial, ops):
    """Apply ``ops`` to a bulk-read index and its scalar-read twin.

    ``assert_fresh(bulk, scalar, stored)`` runs after every write;
    ``stored`` is the test's own model of the key set, ascending.
    """
    bulk, scalar = make_index(), make_twin()
    pairs = [(float(k), i) for i, k in enumerate(initial)]
    bulk.bulk_load(pairs)
    scalar.bulk_load(pairs)
    stored = sorted({float(k) for k in initial})
    assert_fresh(bulk, scalar, stored)
    for step, (op, arg) in enumerate(ops):
        if op == "insert":
            key = float(arg) + 0.5 * (step % 2)
        elif stored:
            key = stored[arg % len(stored)]
        else:
            continue
        if op in ("insert", "overwrite"):
            bulk.insert(key, step)
            scalar.insert(key, step)
            if key not in stored:
                stored.append(key)
                stored.sort()
        elif op == "delete":
            bulk.delete(key)
            scalar.delete(key)
            stored.remove(key)
        if op != "lookup":
            assert_fresh(bulk, scalar, stored)
            continue
        probe = np.asarray(stored[arg % len(stored) :: 3], dtype=np.float64)
        out = bulk.bulk_lookup(probe)
        assert out is not None
        rows = list(zip(*(col.tolist() for col in out)))
        assert rows == _scalar_rows(scalar, probe)
        assert bulk.stats == scalar.stats
        assert_fresh(bulk, scalar, stored)
    assert len(bulk) == len(stored)
    if stored:
        everything = np.asarray(stored, dtype=np.float64)
        out = bulk.bulk_lookup(everything)
        assert out is not None
        assert list(zip(*(col.tolist() for col in out))) == _scalar_rows(
            scalar, everything
        )
    assert bulk.stats == scalar.stats


@pytest.mark.parametrize("order", ORDERS)
@given(initial=INITIAL, ops=OPS)
@SETTINGS
def test_btree_view_tracks_every_write(order, initial, ops):
    _drive(
        lambda: BPlusTree(order=order),
        lambda: TextbookBPlusTree(order=order),
        lambda tree, oracle, stored: _assert_same_leaf_level(tree, oracle),
        initial,
        ops,
    )


@given(initial=INITIAL, ops=OPS)
@SETTINGS
def test_sorted_array_view_tracks_every_write(initial, ops):
    _drive(SortedArrayIndex, SortedArrayIndex, _assert_buffer_is_fresh, initial, ops)


@pytest.mark.parametrize("order", ORDERS)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), st.integers()), max_size=150
    )
)
@SETTINGS
def test_bulk_load_of_shuffled_duplicated_pairs(order, pairs):
    """Array-built load == the sort-and-dedupe loop it replaced: same
    contents, same counters, and the textbook tree's shape."""
    pairs = [(float(k), v) for k, v in pairs]
    reference = {}
    for k, v in pairs:
        reference[k] = v  # last value wins
    tree, clean = BPlusTree(order=order), BPlusTree(order=order)
    oracle = TextbookBPlusTree(order=order)
    tree.bulk_load(pairs)
    clean.bulk_load(sorted(reference.items()))
    oracle.bulk_load(pairs)
    assert list(tree.items()) == sorted(reference.items())
    assert len(tree) == len(reference)
    assert tree.stats == clean.stats
    assert tree.stats.inserts == len(reference)
    assert tree.height == clean.height
    _assert_same_tree(tree, oracle)
    if reference:
        probe = np.asarray(sorted(reference), dtype=np.float64)
        out = tree.bulk_lookup(probe, np.arange(probe.size))
        assert list(zip(*(col.tolist() for col in out))) == _scalar_rows(clean, probe)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 33, 64, 65, 500, 2311])
def test_bulk_load_builds_the_walked_view(order, n):
    """Covers the folded trailing child and every tree height up to 2311 keys."""
    tree, oracle = BPlusTree(order=order), TextbookBPlusTree(order=order)
    pairs = [(float(k), k) for k in range(n)]
    tree.bulk_load(pairs)
    oracle.bulk_load(pairs)
    _assert_same_tree(tree, oracle)


@pytest.mark.parametrize("order", ORDERS)
def test_non_split_inserts_patch_instead_of_rebuilding(order, monkeypatch):
    """``bulk_load`` leaves every leaf half full: one more key fits
    everywhere. Such inserts shift leaf ends in place: nothing is built
    again, no boundary is added, and the arrays stay the textbook tree's."""
    tree, oracle = BPlusTree(order=order), TextbookBPlusTree(order=order)
    pairs = [(float(k), k) for k in range(0, 2000, 2)]
    tree.bulk_load(pairs)
    oracle.bulk_load(pairs)
    leaves = tree._ends.size
    for name in ("_build", "_split"):
        monkeypatch.setattr(BPlusTree, name, lambda *args: pytest.fail("rebuilt or split"))
    for k in range(1, 2000, 8):
        for key, value in ((float(k), "new"), (float(k - 1), "overwritten")):
            tree.insert(key, value)
            oracle.insert(key, value)
        probe = np.asarray([float(k), float(k - 1)])
        assert tree.bulk_lookup(probe) is not None
        assert oracle.bulk_lookup(probe) is not None
    assert tree._ends.size == leaves
    _assert_same_tree(tree, oracle)


# -- KV level: execute_batch == execute loop -------------------------------------

WRITE_MIX = {KVOperation.READ: 0.5, KVOperation.UPDATE: 0.3, KVOperation.INSERT: 0.2}
SCAN_MIX = {
    KVOperation.READ: 0.7,
    KVOperation.INSERT: 0.15,
    KVOperation.SCAN: 0.1,
    KVOperation.UPDATE: 0.05,
}
INSERT_MIX = {
    KVOperation.READ: 0.4,
    KVOperation.UPDATE: 0.2,
    KVOperation.INSERT: 0.35,
    KVOperation.READ_MODIFY_WRITE: 0.05,
}


class _LoggedKV(TraditionalKVStore):
    """A B+ tree store whose ``_after_execute`` hook logs every call."""

    def __init__(self) -> None:
        super().__init__(order=8)
        self.log = []

    def _after_execute(self, query, now):
        self.log.append((query.op, query.key, now))


STORES = {
    "btree": lambda: TraditionalKVStore(order=8),
    "btree-logged": _LoggedKV,
    "sorted-array": lambda: KVStoreBase("sorted-kv", SortedArrayIndex()),
    "rmi-delta": lambda: LearnedKVStore(max_fanout=16, delta_threshold=64),
    "pgm": lambda: PGMKVStore(epsilon=8, max_delta=32),
    "alex": lambda: AlexKVStore(node_capacity=16),
}
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
FEW = settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _spec(mix, rate):
    return WorkloadSpec(
        name="mix",
        mix=OperationMix(mix),
        key_drift=NoDrift(UniformDistribution(0.0, 1000.0)),
        arrivals=ConstantArrivals(rate),
        scan_length_mean=8,
    )


def _assert_batch_on_twins(make, pairs, batch, tracer=None):
    """One ``execute_batch`` against the ``execute`` loop on a twin store:
    services, counters, key counts, stored values, the key buffer and
    hook calls."""
    batched, looped = make(), make()
    if tracer is not None:
        batched.attach_tracer(tracer)
    batched.setup(pairs)
    looped.setup(pairs)
    services = batched.execute_batch(batch, 0.0)
    expected = [
        looped.execute(batch.query(i), float(batch.arrivals[i]))
        for i in range(len(batch))
    ]
    assert services.tolist() == expected
    assert batched.index.stats == looped.index.stats
    assert batched.stored_keys == looped.stored_keys == len(batched.index)
    assert list(batched.index.items()) == list(looped.index.items())
    assert batched.index.key_buffer().view.tolist() == looped.index.key_buffer().view.tolist()
    assert getattr(batched, "log", None) == getattr(looped, "log", None)
    return looped


def _assert_batch_equals_loop(store, mix, seed, tracer=None):
    rng = np.random.default_rng(seed)
    pairs = [(float(k), None) for k in np.unique(rng.uniform(0.0, 1000.0, 300))]
    batch = _spec(mix, 400.0).build_workload(seed).next_batch(
        np.sort(rng.uniform(0.0, 1.0, 400))
    )
    _assert_batch_on_twins(STORES[store], pairs, batch, tracer)


@pytest.mark.parametrize(
    "mix", [WRITE_MIX, SCAN_MIX, INSERT_MIX], ids=["50r30u20i", "70r15i10s5u", "40r20u35i5rmw"]
)
@pytest.mark.parametrize("store", sorted(STORES))
@given(seed=SEEDS)
@FEW
def test_execute_batch_equals_execute_loop(store, mix, seed):
    _assert_batch_equals_loop(store, mix, seed)


@pytest.mark.parametrize("declines", ["bulk_lookup", "bulk_apply"])
@given(seed=SEEDS)
@FEW
def test_declined_bulk_call_falls_back_to_the_loop(declines, seed):
    """Either bulk call returning ``None`` serves the rest of its span as
    if INSERTs never joined runs: each INSERT a scalar barrier, the runs
    between them in bulk, and a declined run without one scalar. Only a
    READ-only run calls ``bulk_lookup``: the scans' mix has such runs."""
    mix = SCAN_MIX if declines == "bulk_lookup" else WRITE_MIX
    tracer = Tracer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BPlusTree, declines, lambda self, *args: None)
        _assert_batch_equals_loop("btree-logged", mix, seed, tracer)
    assert tracer.finish().counter("kv.bulk_fallback_runs") > 0


def _write_mix_scenario(rate=600.0, duration=1.0, seed=5):
    return Scenario(
        name="write-mix",
        segments=[Segment(spec=_spec(WRITE_MIX, rate), duration=duration)],
        seed=seed,
        initial_keys=np.linspace(0.0, 1000.0, 2000),
    )


def _assert_run_equals_the_oracle(make, scenario):
    """``Benchmark.run`` against the per-query reference driver, byte for
    byte on every column, with the same stats and pairs left in the index.
    Returns the run's store and its tracer's counters."""
    tracer = Tracer()
    ran_sut, oracle_sut = make(), make()
    ran = Benchmark(tracer=tracer).run(ran_sut, scenario)
    oracle = ScalarReferenceDriver(BenchmarkConfig().driver_config()).run(oracle_sut, scenario)
    for name in ("arrivals", "starts", "completions", "op_codes", "segment_codes"):
        got, want = getattr(ran.columns, name), getattr(oracle.columns, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert ran.columns.op_vocab == oracle.columns.op_vocab
    assert ran.sut_description == oracle.sut_description
    assert ran_sut.index.stats == oracle_sut.index.stats
    assert list(ran_sut.index.items()) == list(oracle_sut.index.items())
    return ran_sut, ran, tracer.finish()


@pytest.mark.parametrize("order", [3, 64])
def test_write_mix_run_equals_the_scalar_oracle(order):
    """Bulk READ/UPDATE/INSERT runs: order 3 declines nearly every run that
    adds a key (a split), order 64 almost none."""
    _assert_run_equals_the_oracle(
        lambda: TraditionalKVStore(order=order), _write_mix_scenario()
    )


@pytest.mark.parametrize("scale", [1e5, 1e9], ids=["1e5", "1e9"])
def test_clipped_write_mix_equals_the_scalar_oracle(scale):
    """50r/30u/20i over a normal centred on the top of ``[0, scale]``, with
    the top key stored: about half the keys clip to it. At 1e5 (the repo
    benchmark's domain) every INSERT key is new; at 1e9 float64 absorbs
    the generator's ``counter * 1e-9`` offsets, so INSERTs repeat each
    other and the stored top key, and a run must overwrite exactly as the
    scalar path does."""
    spec = _spec(WRITE_MIX, 800.0)
    spec.key_drift = NoDrift(NormalDistribution(0.0, scale, mean=scale, std=scale / 10))
    scenario = Scenario(
        name="clipped-write-mix",
        segments=[Segment(spec=spec, duration=1.0)],
        seed=3,
        initial_keys=np.linspace(0.0, scale, 2000),
    )
    sut, result, trace = _assert_run_equals_the_oracle(TraditionalKVStore, scenario)
    inserts = result.columns.op_vocab.index("insert")
    added = len(sut.index) - 2000
    if scale == 1e9:
        assert added < int(np.count_nonzero(result.columns.op_codes == inserts))
    else:
        assert added == int(np.count_nonzero(result.columns.op_codes == inserts))
    assert trace.counter("kv.bulk_insert_queries") > 0


@pytest.mark.parametrize(
    "make, writes_in_bulk",
    [(TraditionalKVStore, True), (STORES["rmi-delta"], False)],
    ids=["btree-kv", "rmi-delta"],
)
def test_bulk_counters_on_a_write_mix(make, writes_in_bulk):
    """``kv.bulk_hit_queries`` stays a count of READs; UPDATEs and INSERTs
    served in bulk count in ``kv.bulk_update_queries`` and
    ``kv.bulk_insert_queries`` — on an index that opts in."""
    tracer = Tracer()
    result = Benchmark(tracer=tracer).run(make(), _write_mix_scenario())
    trace = tracer.finish()
    vocab = result.columns.op_vocab
    ops = [vocab[code] for code in result.columns.op_codes.tolist()]
    assert ops.count("update") > 0 and ops.count("insert") > 0
    if writes_in_bulk:
        assert trace.counter("kv.bulk_fallback_queries") == 0
        assert trace.counter("kv.bulk_hit_queries") == ops.count("read")
        assert trace.counter("kv.bulk_update_queries") == ops.count("update")
        assert trace.counter("kv.bulk_insert_queries") == ops.count("insert")
    else:
        assert trace.counter("kv.bulk_hit_queries") <= ops.count("read")
        assert trace.counter("kv.bulk_update_queries") == 0
        assert trace.counter("kv.bulk_insert_queries") == 0


def test_the_repo_benchmark_write_mix_op_is_one_bulk_run(tmp_path):
    """One ``write_mix`` op of ``perf/`` at seed 1 (753 READs, 432
    UPDATEs, 315 INSERTs over 50k keys): one bulk run, its snap conflicts
    snapped again in place, every INSERT in it and no scalar ``execute``
    at all."""
    from perf.workloads import WORKLOADS

    workload = WORKLOADS["write_mix"](1, 1.0, tmp_path)
    tracer = Tracer()
    sut = TraditionalKVStore()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(KVStoreBase, "execute", lambda *args: pytest.fail("scalar execute"))
        Benchmark(workload.config, tracer=tracer).run(sut, workload.scenario)
    trace = tracer.finish()
    assert trace.counter("kv.bulk_hit_runs") == trace.counter("kv.read_runs") == 1
    assert trace.counter("kv.bulk_hit_queries") == 753
    assert trace.counter("kv.bulk_update_queries") == 432
    assert trace.counter("kv.bulk_insert_queries") == 315
    assert trace.counter("kv.bulk_fallback_runs") == 0


# -- snap conflicts: an INSERT in a later READ's or UPDATE's gap ------------------

READ, UPDATE, INSERT = (
    KV_OP_CODES[op] for op in (KVOperation.READ, KVOperation.UPDATE, KVOperation.INSERT)
)
TENS = [(float(k), f"load-{k}") for k in range(10, 110, 10)]  # order 8: leaves of 4, 4, 2


def _batch(rows):
    ops, keys = zip(*rows)
    n = len(rows)
    return QueryBatch(
        ops=np.asarray(ops, dtype=np.int8),
        keys=np.asarray(keys, dtype=np.float64),
        scan_lengths=np.zeros(n, dtype=np.int64),
        arrivals=np.arange(1.0, n + 1.0),
    )


@pytest.mark.parametrize("op", [READ, UPDATE], ids=["read", "update"])
@pytest.mark.parametrize(
    "inserted, probe",
    [(89.0, 88.0), (5.0, 6.0), (105.0, 104.0), (50.0, 48.0)],
    ids=["middle", "position-0", "position-n", "stored-key"],
)
def test_a_snap_conflict_cuts_the_run(op, inserted, probe):
    """Before the INSERT, ``probe`` snaps to a neighbour of its gap; after
    it, to the inserted key (the middle case moves it to another leaf, the
    UPDATE to another key). The conflict no longer cuts the run:
    ``probe`` is snapped again over its gap's stored keys and the
    inserted one, in one run, with the loop's result. An INSERT of a
    stored key (an overwrite) adds no key to snap to."""
    rows = [
        (READ, 33.0), (UPDATE, 71.0), (INSERT, inserted), (READ, 12.0),
        (op, probe), (READ, 47.0), (INSERT, 61.5), (UPDATE, 95.0),
    ]
    tracer = Tracer()
    _assert_batch_on_twins(_LoggedKV, TENS, _batch(rows), tracer)
    trace = tracer.finish()
    assert trace.counter("kv.bulk_hit_runs") == trace.counter("kv.read_runs") == 1
    assert trace.counter("kv.bulk_insert_queries") == 2
    assert trace.counter("kv.bulk_fallback_runs") == 0


def test_inserts_in_other_gaps_do_not_cut():
    """Reads and updates around INSERTs into other gaps, and an INSERT
    repeating an earlier one: one run."""
    rows = [
        (INSERT, 15.0), (READ, 26.0), (INSERT, 15.0), (UPDATE, 44.0),
        (INSERT, 101.0), (READ, 99.0), (INSERT, 0.0), (UPDATE, 31.0),
    ]
    tracer = Tracer()
    sut = TraditionalKVStore(order=8)
    sut.attach_tracer(tracer)
    sut.setup(TENS)
    sut.execute_batch(_batch(rows), 0.0)
    trace = tracer.finish()
    assert trace.counter("kv.bulk_hit_runs") == trace.counter("kv.read_runs") == 1
    assert sut.index.key_buffer().view.tolist() == sorted([k for k, _ in TENS] + [0.0, 15.0, 101.0])
    assert sut.index.get(15.0) == 3.0  # the repeat's arrival


def test_a_span_cut_many_times_is_snapped_a_bounded_number_of_times(monkeypatch):
    """Hot keys make a snap conflict every few rows. The span is snapped
    once (the bound is one) and served as one run; the conflicting rows
    are snapped again in place, and many of them move to a key an earlier
    INSERT added."""
    spec = _spec(WRITE_MIX, 400.0)
    spec.key_drift = NoDrift(NormalDistribution(0.0, 1000.0, mean=500.0, std=10.0))
    batch = spec.build_workload(7).next_batch(np.arange(400) / 400.0)
    pairs = [(float(k), None) for k in np.linspace(0.0, 1000.0, 2000)]
    snapped, moved = [], []
    real_snap, real_resnap = KVStoreBase._snap_batch, kv_base._resnap
    monkeypatch.setattr(
        KVStoreBase,
        "_snap_batch",
        lambda self, keys: snapped.append(keys.size) or real_snap(self, keys),
    )

    def counted_resnap(view, keys, gaps, inserts, targets, ranks):
        before = targets.copy()
        real_resnap(view, keys, gaps, inserts, targets, ranks)
        moved.append(int(np.count_nonzero(targets != before)))

    monkeypatch.setattr(kv_base, "_resnap", counted_resnap)
    tracer = Tracer()
    # Leaves of 128 keys: the ~80 new hot keys fit without a split.
    _assert_batch_on_twins(lambda: TraditionalKVStore(order=256), pairs, batch, tracer)
    trace = tracer.finish()
    assert snapped == [len(batch)]
    assert sum(moved) >= 10
    assert trace.counter("kv.bulk_hit_runs") == trace.counter("kv.read_runs") == 1
    assert trace.counter("kv.bulk_fallback_runs") == 0


# Stored keys on a whole grid (``±0.0`` among them as ``0.0``), needles on a
# quarter grid around it: many in one gap, at both ends, on stored keys and
# halfway between two keys (equal-distance ties), INSERTs repeating each
# other and stored keys. Infinite keys and ``-0.0`` are drawn as such.
GRID_KEY = st.one_of(
    st.integers(-12, 12).map(lambda k: k / 4),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
)
GRID_ROWS = st.lists(
    st.tuples(st.sampled_from([READ, UPDATE, INSERT, INSERT]), GRID_KEY), min_size=1, max_size=60
)


@pytest.mark.parametrize("order", ORDERS)
@given(
    stored=st.lists(st.integers(-2, 2), min_size=1, max_size=5, unique=True),
    rows=GRID_ROWS,
    nan_read=st.one_of(st.none(), st.integers(0, 59)),
)
@SETTINGS
def test_dense_same_gap_inserts_are_one_run_equal_to_the_loop(order, stored, rows, nan_read):
    """``execute_batch`` == the ``execute`` loop on spans crowded with
    INSERTs into the gaps later READs and UPDATEs snap in, and a READ of
    NaN. A span is one bulk run, and the rows after a split the rest of
    it: a second pass only where the loop splits a leaf."""
    if nan_read is not None:
        rows[nan_read % len(rows)] = (READ, np.nan)
    pairs = [(float(k), f"load-{k}") for k in stored]
    tracer = Tracer()
    looped = _assert_batch_on_twins(
        lambda: TraditionalKVStore(order=order), pairs, _batch(rows), tracer
    )
    fresh = TraditionalKVStore(order=order)
    fresh.setup(pairs)
    trace = tracer.finish()
    assert trace.counter("kv.read_runs") >= 1
    if looped.index._ends.size == fresh.index._ends.size:  # the loop split no leaf
        assert trace.counter("kv.bulk_hit_runs") == trace.counter("kv.read_runs") == 1
        assert trace.counter("kv.bulk_fallback_runs") == 0
    else:
        assert trace.counter("kv.bulk_fallback_runs") == 1


# -- no clock needed: count the full rebuilds ------------------------------------


@pytest.mark.parametrize("order", [64, 3])
def test_write_mix_rebuilds_only_after_splits(order, monkeypatch):
    """50r/30u/20i over 2k keys, ~600 queries: the tree is built once, by
    the load, and never again, however many leaves split."""
    counts = {"builds": 0, "splits": 0}

    def counted(name, key):
        real = getattr(BPlusTree, name)

        def wrapper(self, *args):
            counts[key] += 1
            return real(self, *args)

        monkeypatch.setattr(BPlusTree, name, wrapper)

    sut = TraditionalKVStore(order=order)
    counted("_build", "builds")
    counted("_split", "splits")
    result = Benchmark().run(sut, _write_mix_scenario())
    assert result.num_queries >= 500
    assert counts["builds"] == 1
    if order == 3:
        assert counts["splits"] > 0  # the bound was exercised, not vacuous
