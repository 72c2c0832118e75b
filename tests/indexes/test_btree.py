"""B+ tree specifics: splits, height, bulk-load structure, ordering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.indexes.base import IndexStats
from repro.indexes.btree import BPlusTree


class TestConstruction:
    def test_rejects_tiny_order(self):
        with pytest.raises(ConfigurationError):
            BPlusTree(order=2)

    def test_order_property(self):
        assert BPlusTree(order=8).order == 8

    def test_initial_height(self):
        assert BPlusTree().height == 1


class TestSplits:
    def test_height_grows_with_inserts(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(float(i), i)
        assert tree.height >= 3
        assert len(tree) == 100

    def test_random_insert_order_consistent(self, rng):
        tree = BPlusTree(order=4)
        keys = rng.permutation(500).astype(float)
        for k in keys:
            tree.insert(float(k), int(k))
        assert len(tree) == 500
        assert tree.keys() == sorted(float(k) for k in keys)

    def test_descending_inserts(self):
        tree = BPlusTree(order=4)
        for i in reversed(range(200)):
            tree.insert(float(i), i)
        assert tree.keys() == [float(i) for i in range(200)]


class TestBulkLoad:
    def test_bulk_load_height_reasonable(self, small_pairs):
        tree = BPlusTree(order=64)
        tree.bulk_load(small_pairs)
        # ~1200 keys at 32/leaf -> <=40 leaves -> height 2-3.
        assert tree.height <= 3

    def test_bulk_load_then_insert(self, small_pairs):
        tree = BPlusTree(order=16)
        tree.bulk_load(small_pairs)
        tree.insert(-1.0, "front")
        tree.insert(1e12, "back")
        assert tree.get(-1.0) == "front"
        assert tree.get(1e12) == "back"
        assert tree.keys()[0] == -1.0
        assert tree.keys()[-1] == 1e12

    def test_bulk_load_empty(self):
        tree = BPlusTree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_single(self):
        tree = BPlusTree()
        tree.bulk_load([(1.0, "x")])
        assert tree.get(1.0) == "x"


class TestLeafChain:
    def test_range_spans_leaves(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(float(i), i)
        result = tree.range(10.0, 90.0)
        assert [k for k, _ in result] == [float(i) for i in range(10, 91)]

    def test_items_spans_leaves_after_mixed_ops(self, rng):
        tree = BPlusTree(order=4)
        keys = set()
        for k in rng.permutation(300).astype(float):
            tree.insert(float(k), 1)
            keys.add(float(k))
        for k in list(keys)[:50]:
            tree.delete(k)
            keys.remove(k)
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestDelete:
    @pytest.mark.parametrize("order", [3, 64])
    def test_missing_key_raises_and_changes_only_the_descent_counters(self, order):
        """No rebalancing, no view or leaf change: a miss costs one node
        access per level and the inner comparisons, and nothing else."""
        tree = BPlusTree(order=order)
        tree.bulk_load([(float(k), k) for k in range(0, 400, 2)])
        for key in range(1, 400, 40):  # leave sparse leaves behind
            tree.delete(float(key - 1))
        before, items = tree.stats.snapshot(), list(tree.items())
        shape = (len(tree), tree.height, tree.size_bytes())
        with pytest.raises(KeyNotFoundError):
            tree.delete(201.0)
        spent = tree.stats.diff(before)
        assert spent.node_accesses == tree.height and spent.comparisons > 0
        spent.node_accesses = spent.comparisons = 0
        assert spent == IndexStats()
        assert list(tree.items()) == items
        assert (len(tree), tree.height, tree.size_bytes()) == shape
        assert tree.get(202.0) == 202


class TestNaNKeys:
    """NaN equals no key, not even itself: every insert of it stores one
    more key, at the front of the NaN keys at the tail, with its own value."""

    def test_each_nan_insert_stores_one_more_key_newest_first(self):
        tree = BPlusTree(order=8)
        tree.bulk_load([(float(k), f"load-{k}") for k in range(10, 110, 10)])
        tree.insert(float("nan"), "first")
        tree.insert(55.0, "new")
        tree.insert(float("nan"), "second")
        assert len(tree) == 13
        keys, values = zip(*tree.items())
        assert list(keys[:11]) == sorted([float(k) for k in range(10, 110, 10)] + [55.0])
        assert np.isnan(keys[11:]).all()
        loaded = [f"load-{k}" for k in range(10, 110, 10)]
        assert list(values) == loaded[:5] + ["new"] + loaded[5:] + ["second", "first"]
        assert [v for _, v in tree.range(95.0, float("nan"))] == ["load-100", "second", "first"]
        with pytest.raises(KeyNotFoundError):
            tree.get(float("nan"))
        with pytest.raises(KeyNotFoundError):
            tree.delete(float("nan"))
        assert len(tree) == 13 and tree.get(55.0) == "new"

    def test_loaded_nan_keys_keep_their_values(self):
        tree = BPlusTree(order=4)
        tree.bulk_load([(float("nan"), "a"), (2.0, "b"), (float("nan"), "c"), (1.0, "d")])
        tree.insert(float("nan"), "e")
        assert [v for _, v in tree.items()] == ["d", "b", "e", "a", "c"]
        assert len(tree) == 5


class TestNodeAccounting:
    def test_deeper_tree_costs_more(self, small_pairs):
        shallow = BPlusTree(order=256)
        deep = BPlusTree(order=4)
        shallow.bulk_load(small_pairs)
        deep.bulk_load(small_pairs)
        key = small_pairs[500][0]
        for tree in (shallow, deep):
            tree.stats = tree.stats.snapshot()  # reset-ish; fresh counters
        s0 = shallow.stats.snapshot()
        shallow.get(key)
        d_shallow = shallow.stats.snapshot().diff(s0)
        s1 = deep.stats.snapshot()
        deep.get(key)
        d_deep = deep.stats.snapshot().diff(s1)
        assert d_deep.node_accesses > d_shallow.node_accesses
