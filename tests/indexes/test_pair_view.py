"""The driver's column-backed pair view loads like the tuple list it replaces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sut import KeyColumnPairs
from repro.errors import KeyNotFoundError
from repro.indexes import (
    AdaptiveLearnedIndex,
    BPlusTree,
    HashIndex,
    OrderedIndex,
    PGMIndex,
    RecursiveModelIndex,
    SortedArrayIndex,
)
from repro.indexes.base import sorted_unique_pairs
from repro.suts.kv_traditional import TraditionalKVStore


class _DefaultLoadIndex(SortedArrayIndex):
    """An index that keeps ``OrderedIndex``'s insert-one-by-one load."""

    bulk_load = OrderedIndex.bulk_load


INDEX_FACTORIES = [
    lambda: BPlusTree(order=4),
    lambda: SortedArrayIndex(),
    lambda: HashIndex(),
    lambda: RecursiveModelIndex(fanout=4, max_delta=8),
    lambda: PGMIndex(epsilon=4, max_delta=8),
    lambda: AdaptiveLearnedIndex(node_capacity=16),
    _DefaultLoadIndex,
]
IDS = ["btree", "sorted-array", "hash", "rmi", "pgm", "alex", "default-load"]

# Unsorted, with duplicates, from empty to a few dozen, up to 1e9 in scale.
KEYS = st.lists(
    st.one_of(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        st.integers(min_value=-5, max_value=5).map(float),
    ),
    min_size=0,
    max_size=40,
)
ASCENDING = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), max_size=40, unique=True
).map(sorted)


def _loaded(factory, pairs):
    index = factory()
    index.bulk_load(pairs)
    return index


def _lookup_costs(index, keys):
    costs = []
    for key in keys:
        before = index.stats.snapshot()
        index.get(key)
        costs.append(index.stats.snapshot().diff(before))
    return costs


class TestSequenceBehaviour:
    def test_reads_like_the_list_of_key_rank_tuples(self):
        keys = np.array([3.0, 1.0, 2.0, 1.0])
        view, pairs = KeyColumnPairs(keys), list(zip(keys.tolist(), range(4)))
        assert len(view) == 4 and list(view) == pairs
        assert [view[i] for i in (0, 3, -1)] == [pairs[i] for i in (0, 3, -1)]
        assert view[1:3] == pairs[1:3] and view[::-2] == pairs[::-2]
        assert all(type(k) is float and type(v) is int for k, v in view)
        assert (1.0, 3) in view and view.index((2.0, 2)) == 2
        with pytest.raises(IndexError):
            view[4]

    def test_empty_view_is_falsy_like_the_empty_list(self):
        assert not KeyColumnPairs(()) and list(KeyColumnPairs(())) == []

    def test_column_is_a_frozen_copy(self):
        keys = np.array([1.0, 2.0])
        view = KeyColumnPairs(keys)
        keys[0] = 9.0
        assert view[0] == (1.0, 0)
        with pytest.raises(ValueError):
            view.key_column[0] = 9.0

    def test_explicit_values_replace_the_ranks(self):
        assert list(KeyColumnPairs([2.0, 1.0], values=[None, None])) == [
            (2.0, None),
            (1.0, None),
        ]


@pytest.mark.parametrize("factory", INDEX_FACTORIES, ids=IDS)
@given(keys=st.one_of(KEYS, ASCENDING))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_view_loads_like_the_tuple_list(factory, keys):
    """Same keys, values, ``IndexStats`` and first-lookup costs."""
    from_list = _loaded(factory, [(k, i) for i, k in enumerate(keys)])
    from_view = _loaded(factory, KeyColumnPairs(keys))
    assert list(from_view.items()) == list(from_list.items())
    assert from_view.stats == from_list.stats
    probes = sorted(set(keys))
    assert _lookup_costs(from_view, probes) == _lookup_costs(from_list, probes)


@pytest.mark.parametrize("factory", INDEX_FACTORIES, ids=IDS)
@given(keys=KEYS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_tuple_list_load_is_last_value_wins(factory, keys):
    pairs = [(k, f"v{i}") for i, k in enumerate(keys)]
    assert list(_loaded(factory, pairs).items()) == sorted(dict(pairs).items())


@given(keys=st.one_of(KEYS, ASCENDING))
@settings(max_examples=60, deadline=None)
def test_store_mirror_is_the_sorted_unique_keys(keys):
    for pairs in (KeyColumnPairs(keys), [(k, i) for i, k in enumerate(keys)]):
        store = TraditionalKVStore()
        store.setup(pairs)
        assert store.index.key_buffer().view.tolist() == sorted(set(keys))
        assert store.stored_keys == len(store.index)


def test_ascending_column_is_handed_over_unsorted_and_uncopied():
    """Keys and values alike: the default ranks stay a ``range``."""
    view = KeyColumnPairs(np.linspace(0.0, 1e9, 1000))
    keys, values = sorted_unique_pairs(view)
    assert keys is view.key_column and values is view.values
    assert values == range(1000)


@pytest.mark.parametrize("order", [4, 64])
@given(
    keys=st.lists(st.integers(0, 200), min_size=1, max_size=60, unique=True).map(sorted),
    fresh=st.lists(st.integers(201, 300), max_size=10, unique=True),
    overwrite=st.lists(st.integers(0, 59), max_size=8),
    drop=st.lists(st.integers(0, 80), max_size=20),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_btree_rank_values_read_like_an_explicit_rank_list(order, keys, fresh, overwrite, drop):
    """The B+ tree keeps a rank load's ``range`` as its values' base. After
    a ``bulk_apply``, inserts and deletes of loaded and new keys, it
    answers ``get``, ``items()`` and ``range()`` exactly as a load of
    ``[(k, i), ...]``."""
    keys = [float(k) for k in keys]
    lazy, listed = BPlusTree(order=order), BPlusTree(order=order)
    lazy.bulk_load(KeyColumnPairs(keys))
    listed.bulk_load([(k, i) for i, k in enumerate(keys)])
    assert isinstance(lazy._base, range)
    model = dict(zip(keys, range(len(keys))))
    written = [keys[i % len(keys)] for i in overwrite]
    run = np.asarray(written + [float(k) for k in fresh[: len(fresh) // 2]])
    values = [f"bulk{i}" for i in range(run.size)]
    for tree in (lazy, listed):
        out = tree.bulk_apply(run, None, np.ones(run.size, dtype=bool), values)
    served = 0 if out is None else out[0].size  # the rows before the first split
    model.update(zip(run[:served].tolist(), values[:served]))
    for k in fresh[len(fresh) // 2 :]:
        for tree in (lazy, listed):
            tree.insert(float(k), f"ins{k}")
        model[float(k)] = f"ins{k}"
    stored = sorted(model)
    for i in drop:
        if not stored:
            break
        victim = stored.pop(i % len(stored))
        for tree in (lazy, listed):
            tree.delete(victim)
        del model[victim]
    assert list(lazy.items()) == list(listed.items()) == sorted(model.items())
    for k in keys + [float(k) for k in fresh]:
        if k in model:
            assert lazy.get(k) == listed.get(k) == model[k]
        else:
            for tree in (lazy, listed):
                with pytest.raises(KeyNotFoundError):
                    tree.get(k)
    for low, high in [(-1.0, 301.0), (0.0, 100.0), (50.5, 250.0), (201.0, 300.0)]:
        assert lazy.range(low, high) == listed.range(low, high)
    assert lazy.stats == listed.stats
