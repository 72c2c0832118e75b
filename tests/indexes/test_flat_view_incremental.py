"""The flat key view is maintained across writes, never rebuilt per write.

``BPlusTree._build_bulk_cache()`` (a full tree walk) is the definition of
the view ``bulk_lookup`` searches. ``bulk_load`` and non-splitting inserts
maintain the same arrays incrementally; these tests drive random write /
read interleavings and demand, after *every* write, that the maintained
view equals a fresh walk array for array, and that bulk reads still count
exactly what the scalar ``get`` sequence counts. The KV-level tests do the
same for ``execute_batch`` against the ``execute`` loop, and the last test
counts full rebuilds so per-write O(n) work cannot return unnoticed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tests.reference_driver import ScalarReferenceDriver

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.scenario import Scenario, Segment
from repro.indexes.btree import BPlusTree
from repro.indexes.sorted_array import SortedArrayIndex
from repro.observability import Tracer
from repro.suts.kv_base import KVStoreBase
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.suts.kv_variants import AlexKVStore, PGMKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import NoDrift
from repro.workloads.generators import KVOperation, OperationMix, WorkloadSpec
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


def _view_arrays(view):
    """The view's arrays, with both buffers unwrapped to their live arrays."""
    return (
        view.seps, view.keys.view, view.leaf_of.view, view.ends, view.leaf_comps, view.leaf_na
    )


def _assert_view_is_fresh(tree: BPlusTree) -> None:
    kept = tree._bulk_cache
    if kept is None:  # dropped by a split or delete; the next read re-walks
        return
    fresh = tree._build_bulk_cache()
    assert kept is not False and fresh is not False
    for got, want in zip(_view_arrays(kept), _view_arrays(fresh)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # The in-order leaves, by identity: bulk overwrites write through them.
    assert [id(leaf) for leaf in kept.leaves] == [id(leaf) for leaf in fresh.leaves]


def _assert_flat_is_fresh(index: SortedArrayIndex) -> None:
    np.testing.assert_array_equal(
        index._flat.view, np.asarray(index._keys, dtype=np.float64)
    )


def _scalar_rows(index, probe):
    """Per-key (comparisons, node_accesses, model_evals) via scalar gets."""
    rows = []
    for key in probe:
        before = index.stats.snapshot()
        index.get(float(key))
        diff = index.stats.diff(before)
        rows.append((diff.comparisons, diff.node_accesses, diff.model_evaluations))
    return rows


def _drive(make_index, assert_fresh, initial, ops):
    """Apply ``ops`` to a bulk-read index and its scalar-read twin."""
    bulk, scalar = make_index(), make_index()
    pairs = [(float(k), i) for i, k in enumerate(initial)]
    bulk.bulk_load(pairs)
    scalar.bulk_load(pairs)
    assert_fresh(bulk)
    stored = sorted({float(k) for k in initial})
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
            assert_fresh(bulk)
            continue
        probe = np.asarray(stored[arg % len(stored) :: 3], dtype=np.float64)
        out = bulk.bulk_lookup(probe)
        assert out is not None
        assert_fresh(bulk)
        rows = list(zip(*(col.tolist() for col in out)))
        assert rows == _scalar_rows(scalar, probe)
        assert bulk.stats == scalar.stats
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
    _drive(lambda: BPlusTree(order=order), _assert_view_is_fresh, initial, ops)


@given(initial=INITIAL, ops=OPS)
@SETTINGS
def test_sorted_array_view_tracks_every_write(initial, ops):
    _drive(SortedArrayIndex, _assert_flat_is_fresh, initial, ops)


def _hint_variants(ranks, n):
    """The true ranks, then ways of getting them wrong."""
    return {
        "correct": ranks,
        "off by one up": ranks + 1,
        "off by one down": ranks - 1,
        "negative": -ranks - 1,
        "past the end": ranks + n,
        "wrong length": ranks[:-1],
        "float dtype": ranks.astype(np.float64),
        "another key set": ranks[::-1].copy(),
    }


@pytest.mark.parametrize("order", ORDERS)
@given(initial=INITIAL, ops=OPS)
@SETTINGS
def test_btree_rank_hint_after_every_kind_of_write(order, initial, ops):
    """Non-splitting inserts patch the leaf map, splits and deletes drop
    it: wherever the view came from, a hinted bulk read returns and counts
    what the unhinted one and the scalar ``get`` loop do — for true ranks
    and for wrong ones, and ``None`` with nothing counted on a miss."""
    tree, scalar = BPlusTree(order=order), BPlusTree(order=order)
    pairs = [(float(k), i) for i, k in enumerate(initial)]
    tree.bulk_load(pairs)
    scalar.bulk_load(pairs)
    stored = sorted({float(k) for k in initial})
    for step, (op, arg) in enumerate(ops):
        if op == "insert":
            key = float(arg) + 0.5 * (step % 2)
        elif stored:
            key = stored[arg % len(stored)]
        else:
            continue
        if op in ("insert", "overwrite"):
            tree.insert(key, step)
            scalar.insert(key, step)
            if key not in stored:
                stored.append(key)
                stored.sort()
            continue
        if op == "delete":
            tree.delete(key)
            scalar.delete(key)
            stored.remove(key)
            continue
        ranks = np.arange(arg % len(stored), len(stored), 3, dtype=np.intp)
        probe = np.asarray(stored, dtype=np.float64)[ranks]
        before = scalar.stats.snapshot()
        want = _scalar_rows(scalar, probe)
        want_delta = scalar.stats.diff(before)
        hints = _hint_variants(ranks, len(stored))
        for label, hint in [("none", None), *hints.items()]:
            before = tree.stats.snapshot()
            out = tree.bulk_lookup(probe, hint)
            assert out is not None, label
            assert list(zip(*(col.tolist() for col in out))) == want, label
            assert tree.stats.diff(before) == want_delta, label
            _assert_view_is_fresh(tree)
        probe[-1] += 0.25  # no stored key ends in .25 or .75
        before = tree.stats.snapshot()
        for label, hint in [("none", None), *hints.items()]:
            assert tree.bulk_lookup(probe, hint) is None, label
            assert tree.stats == before, label


@pytest.mark.parametrize("order", ORDERS)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), st.integers()), max_size=150
    )
)
@SETTINGS
def test_bulk_load_of_shuffled_duplicated_pairs(order, pairs):
    """Array-built load == the sort-and-dedupe loop it replaced: same
    contents, same counters, and a view that equals a fresh walk."""
    pairs = [(float(k), v) for k, v in pairs]
    reference = {}
    for k, v in pairs:
        reference[k] = v  # last value wins
    tree, clean = BPlusTree(order=order), BPlusTree(order=order)
    tree.bulk_load(pairs)
    clean.bulk_load(sorted(reference.items()))
    assert list(tree.items()) == sorted(reference.items())
    assert len(tree) == len(reference)
    assert tree.stats == clean.stats
    assert tree.stats.inserts == len(reference)
    assert tree.height == clean.height
    _assert_view_is_fresh(tree)
    if reference:
        probe = np.asarray(sorted(reference), dtype=np.float64)
        out = tree.bulk_lookup(probe, np.arange(probe.size))
        assert list(zip(*(col.tolist() for col in out))) == _scalar_rows(clean, probe)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [0, 1, 2, 5, 33, 64, 65, 500, 2311])
def test_bulk_load_builds_the_walked_view(order, n):
    """Covers the folded trailing child and every tree height up to 2311 keys."""
    tree = BPlusTree(order=order)
    tree.bulk_load([(float(k), k) for k in range(n)])
    if n == 0:
        assert tree._bulk_cache is None
        return
    assert tree._bulk_cache is not None
    _assert_view_is_fresh(tree)


@pytest.mark.parametrize("order", ORDERS)
def test_non_split_inserts_patch_instead_of_rebuilding(order, monkeypatch):
    tree = BPlusTree(order=order)
    tree.bulk_load([(float(k), k) for k in range(0, 2000, 2)])
    walks = []
    real = BPlusTree._build_bulk_cache
    monkeypatch.setattr(
        BPlusTree, "_build_bulk_cache", lambda self: walks.append(1) or real(self)
    )
    # bulk_load leaves every leaf half full: one more key fits everywhere.
    for k in range(1, 2000, 8):
        tree.insert(float(k), "new")
        tree.insert(float(k - 1), "overwritten")
        assert tree.bulk_lookup(np.asarray([float(k), float(k - 1)])) is not None
    assert walks == []
    monkeypatch.undo()
    _assert_view_is_fresh(tree)


def test_unsupported_shape_is_reevaluated_on_structural_change():
    """``False`` must not outlive the shape that caused it."""
    probe = np.asarray([2.0, 4.0])

    def unsupported_tree():
        tree = BPlusTree(order=4)
        tree.bulk_load([(float(k), k) for k in range(0, 40, 2)])
        tree._bulk_cache = False  # as left by a walk over an unsupported shape
        assert tree.bulk_lookup(probe) is None
        tree.insert(2.0, "overwrite")
        tree.insert(1.0, "fits in its leaf")
        assert tree.bulk_lookup(probe) is None  # nothing structural happened
        return tree

    tree = unsupported_tree()
    height = tree.height
    key = 100.0
    while tree.height == height:  # append until leaf, inner and root split
        tree.insert(key, None)
        key += 1.0
    assert tree.bulk_lookup(probe) is not None

    tree = unsupported_tree()
    tree.delete(6.0)
    assert tree.bulk_lookup(probe) is not None

    tree = unsupported_tree()
    tree.bulk_load([(2.0, "a"), (4.0, "b")])
    assert tree.bulk_lookup(probe) is not None


def test_view_refuses_separators_that_disagree_with_positions():
    """Reads route by position, the descent by separators: the walk checks
    once that the two agree and otherwise declares the shape unsupported."""
    tree = BPlusTree(order=4)
    tree.bulk_load([(float(k), k) for k in range(20)])  # leaves of two keys
    node = tree._root
    while not node.children[0].leaf:
        node = node.children[0]
    assert node.keys[0] == 2.0
    node.keys[0] = 0.5  # the descent now looks for 1.0 in the second leaf
    assert tree._build_bulk_cache() is False
    tree._bulk_cache = None
    before = tree.stats.snapshot()
    assert tree.bulk_lookup(np.asarray([0.0, 7.0]), np.asarray([0, 7])) is None
    assert tree.stats == before
    assert tree.get(0.0) == 0  # the scalar path still serves what it can reach


# -- KV level: execute_batch == execute loop -------------------------------------

WRITE_MIX = {KVOperation.READ: 0.5, KVOperation.UPDATE: 0.3, KVOperation.INSERT: 0.2}
SCAN_MIX = {
    KVOperation.READ: 0.7,
    KVOperation.INSERT: 0.15,
    KVOperation.SCAN: 0.1,
    KVOperation.UPDATE: 0.05,
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


def _assert_batch_equals_loop(store, mix, seed, tracer=None):
    """One ``execute_batch`` against the ``execute`` loop on a twin store:
    services, counters, key counts, stored values and hook calls."""
    rng = np.random.default_rng(seed)
    pairs = [(float(k), None) for k in np.unique(rng.uniform(0.0, 1000.0, 300))]
    batch = _spec(mix, 400.0).build_workload(seed).next_batch(
        np.sort(rng.uniform(0.0, 1.0, 400))
    )
    batched, looped = STORES[store](), STORES[store]()
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
    assert getattr(batched, "log", None) == getattr(looped, "log", None)


@pytest.mark.parametrize("mix", [WRITE_MIX, SCAN_MIX], ids=["50r30u20i", "70r15i10s5u"])
@pytest.mark.parametrize("store", sorted(STORES))
@given(seed=SEEDS)
@FEW
def test_execute_batch_equals_execute_loop(store, mix, seed):
    _assert_batch_equals_loop(store, mix, seed)


@pytest.mark.parametrize("declines", ["bulk_lookup", "bulk_update"])
@given(seed=SEEDS)
@FEW
def test_declined_bulk_call_falls_back_to_the_loop(declines, seed):
    """Either bulk call returning ``None`` sends its whole run down the
    scalar path; the counters the other call committed are taken back."""
    tracer = Tracer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BPlusTree, declines, lambda self, *args: None)
        _assert_batch_equals_loop("btree-logged", WRITE_MIX, seed, tracer)
    assert tracer.finish().counter("kv.bulk_fallback_runs") > 0


def _write_mix_scenario(rate=600.0, duration=1.0, seed=5):
    return Scenario(
        name="write-mix",
        segments=[Segment(spec=_spec(WRITE_MIX, rate), duration=duration)],
        seed=seed,
        initial_keys=np.linspace(0.0, 1000.0, 2000),
    )


@pytest.mark.parametrize("order", [3, 64])
def test_write_mix_run_equals_the_scalar_oracle(order):
    """``Benchmark.run`` (bulk READ/UPDATE runs) against the per-query
    reference driver, byte for byte on every column."""
    scenario = _write_mix_scenario()
    ran = Benchmark().run(TraditionalKVStore(order=order), scenario)
    oracle = ScalarReferenceDriver(BenchmarkConfig().driver_config()).run(
        TraditionalKVStore(order=order), scenario
    )
    for name in ("arrivals", "starts", "completions", "op_codes", "segment_codes"):
        got, want = getattr(ran.columns, name), getattr(oracle.columns, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    assert ran.columns.op_vocab == oracle.columns.op_vocab
    assert ran.sut_description == oracle.sut_description


@pytest.mark.parametrize(
    "make, updates_in_bulk",
    [(TraditionalKVStore, True), (STORES["rmi-delta"], False)],
    ids=["btree-kv", "rmi-delta"],
)
def test_bulk_counters_on_a_write_mix(make, updates_in_bulk):
    """``kv.bulk_hit_queries`` stays a count of READs; UPDATEs served in
    bulk count in ``kv.bulk_update_queries`` — on an index that opts in."""
    tracer = Tracer()
    result = Benchmark(tracer=tracer).run(make(), _write_mix_scenario())
    trace = tracer.finish()
    vocab = result.columns.op_vocab
    ops = [vocab[code] for code in result.columns.op_codes.tolist()]
    assert ops.count("update") > 0
    if updates_in_bulk:
        assert trace.counter("kv.bulk_fallback_queries") == 0
        assert trace.counter("kv.bulk_hit_queries") == ops.count("read")
        assert trace.counter("kv.bulk_update_queries") == ops.count("update")
    else:
        assert trace.counter("kv.bulk_hit_queries") <= ops.count("read")
        assert trace.counter("kv.bulk_update_queries") == 0


# -- no clock needed: count the full rebuilds ------------------------------------


@pytest.mark.parametrize("order", [64, 3])
def test_write_mix_rebuilds_only_after_splits(order, monkeypatch):
    """50r/30u/20i over 2k keys, ~600 queries: the view is walked at most
    once per node split (plus once to exist at all), not once per write."""
    counts = {"walks": 0, "splits": 0}

    def counted(name, key):
        real = getattr(BPlusTree, name)

        def wrapper(self, *args):
            counts[key] += 1
            return real(self, *args)

        monkeypatch.setattr(BPlusTree, name, wrapper)

    counted("_build_bulk_cache", "walks")
    counted("_split_leaf", "splits")
    counted("_split_inner", "splits")
    result = Benchmark().run(TraditionalKVStore(order=order), _write_mix_scenario())
    assert result.num_queries >= 500
    assert counts["walks"] <= 1 + counts["splits"]
    if order == 3:
        assert counts["splits"] > 0  # the bound was exercised, not vacuous
