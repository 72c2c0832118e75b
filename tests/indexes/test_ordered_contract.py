"""Contract tests every OrderedIndex implementation must satisfy."""

from __future__ import annotations

import pytest

from repro.errors import KeyNotFoundError
from repro.indexes import (
    AdaptiveLearnedIndex,
    BPlusTree,
    HashIndex,
    PGMIndex,
    RecursiveModelIndex,
    SortedArrayIndex,
)

ALL_INDEXES = [
    BPlusTree,
    SortedArrayIndex,
    HashIndex,
    RecursiveModelIndex,
    PGMIndex,
    AdaptiveLearnedIndex,
]


@pytest.fixture(params=ALL_INDEXES, ids=lambda c: c.__name__)
def index(request):
    return request.param()


class TestEmptyIndex:
    def test_len_zero(self, index):
        assert len(index) == 0

    def test_get_raises(self, index):
        with pytest.raises(KeyNotFoundError):
            index.get(1.0)

    def test_delete_raises(self, index):
        with pytest.raises(KeyNotFoundError):
            index.delete(1.0)

    def test_contains_false(self, index):
        assert not index.contains(42.0)

    def test_items_empty(self, index):
        assert list(index.items()) == []


class TestBulkLoadAndGet:
    def test_all_keys_retrievable(self, index, small_pairs):
        index.bulk_load(small_pairs)
        for key, value in small_pairs[::7]:
            assert index.get(key) == value

    def test_len_matches(self, index, small_pairs):
        index.bulk_load(small_pairs)
        assert len(index) == len(small_pairs)

    def test_missing_key_raises(self, index, small_pairs):
        index.bulk_load(small_pairs)
        with pytest.raises(KeyNotFoundError):
            index.get(-1234.5)

    def test_bulk_load_unsorted_input(self, index, small_pairs):
        shuffled = list(reversed(small_pairs))
        index.bulk_load(shuffled)
        assert index.get(small_pairs[3][0]) == small_pairs[3][1]

    def test_bulk_load_duplicate_keys_last_wins(self, index):
        index.bulk_load([(1.0, "a"), (2.0, "b"), (1.0, "c")])
        assert index.get(1.0) == "c"
        assert len(index) == 2


class TestInsert:
    def test_insert_then_get(self, index):
        index.insert(5.0, "five")
        assert index.get(5.0) == "five"
        assert len(index) == 1

    def test_insert_overwrites(self, index):
        index.insert(5.0, "old")
        index.insert(5.0, "new")
        assert index.get(5.0) == "new"
        assert len(index) == 1

    def test_interleaved_inserts(self, index, small_pairs):
        index.bulk_load(small_pairs[:500])
        for key, value in small_pairs[500:600]:
            index.insert(key, value)
        assert len(index) == 600
        for key, value in small_pairs[540:560]:
            assert index.get(key) == value
        # Old keys still reachable.
        assert index.get(small_pairs[100][0]) == small_pairs[100][1]

    def test_many_sequential_inserts(self, index):
        for i in range(500):
            index.insert(float(i), i)
        assert len(index) == 500
        assert index.get(250.0) == 250


class TestDelete:
    def test_delete_then_get_raises(self, index, small_pairs):
        index.bulk_load(small_pairs)
        key = small_pairs[50][0]
        index.delete(key)
        with pytest.raises(KeyNotFoundError):
            index.get(key)
        assert len(index) == len(small_pairs) - 1

    def test_delete_missing_raises(self, index, small_pairs):
        index.bulk_load(small_pairs)
        with pytest.raises(KeyNotFoundError):
            index.delete(-999.0)

    def test_reinsert_after_delete(self, index):
        index.insert(7.0, "a")
        index.delete(7.0)
        index.insert(7.0, "b")
        assert index.get(7.0) == "b"

    def test_delete_after_overwrite_removes_key(self, index):
        """A delete removes an overwritten key, not just its newest value:
        a delta-buffered index must not bring the loaded value back."""
        index.bulk_load([(float(i), f"base{i}") for i in range(100)])
        index.insert(5.0, "new")
        index.delete(5.0)
        with pytest.raises(KeyNotFoundError):
            index.get(5.0)
        assert len(index) == 99
        assert 5.0 not in [k for k, _ in index.items()]
        assert index.range(4.0, 6.0) == [(4.0, "base4"), (6.0, "base6")]


class TestRange:
    def test_range_returns_sorted_inclusive(self, index, small_pairs):
        index.bulk_load(small_pairs)
        keys = [k for k, _ in small_pairs]
        lo, hi = keys[100], keys[150]
        result = index.range(lo, hi)
        assert [k for k, _ in result] == keys[100:151]

    def test_range_empty_interval(self, index, small_pairs):
        index.bulk_load(small_pairs)
        keys = [k for k, _ in small_pairs]
        gap = (keys[10] + keys[11]) / 2.0
        assert index.range(gap, gap) == []

    def test_range_covers_inserts(self, index):
        index.bulk_load([(float(i), i) for i in range(0, 100, 2)])
        index.insert(51.0, "new")
        result = index.range(50.0, 52.0)
        assert [k for k, _ in result] == [50.0, 51.0, 52.0]

    def test_full_range_equals_items(self, index, small_pairs):
        index.bulk_load(small_pairs)
        keys = [k for k, _ in small_pairs]
        full = index.range(keys[0], keys[-1])
        assert [k for k, _ in full] == keys


class TestItems:
    def test_items_ascending(self, index, small_pairs):
        index.bulk_load(small_pairs)
        keys = [k for k, _ in index.items()]
        assert keys == sorted(keys)
        assert len(keys) == len(small_pairs)

    def test_keys_helper(self, index):
        index.bulk_load([(3.0, 1), (1.0, 2), (2.0, 3)])
        assert index.keys() == [1.0, 2.0, 3.0]


class TestStats:
    def test_lookup_counts(self, index, small_pairs):
        index.bulk_load(small_pairs)
        before = index.stats.lookups
        for key, _ in small_pairs[:10]:
            index.get(key)
        assert index.stats.lookups == before + 10

    def test_work_counted(self, index, small_pairs):
        index.bulk_load(small_pairs)
        before = index.stats.snapshot()
        index.get(small_pairs[10][0])
        delta = index.stats.snapshot().diff(before)
        assert delta.node_accesses + delta.comparisons + delta.model_evaluations > 0

    def test_snapshot_diff_roundtrip(self, index):
        index.insert(1.0, 1)
        snap = index.stats.snapshot()
        index.insert(2.0, 2)
        delta = index.stats.snapshot().diff(snap)
        assert delta.inserts == 1
