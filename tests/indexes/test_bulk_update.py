"""A bulk UPDATE run must do and count exactly what per-key overwrites do.

The key-value store serves UPDATEs in bulk runs through
``OrderedIndex.bulk_apply``, every row a write of a stored key. Its
contract is the ``insert`` loop it replaces: the same per-key
(comparisons, node accesses, model evaluations), the same committed
:class:`IndexStats` (``inserts``, never ``lookups``), and the same stored
values, last write winning. Each test builds twin B+ trees — one fresh
from a bulk load, one after splits — runs one through scalar ``insert``
overwrites and the other through ``bulk_apply``, and compares all three.
Runs that read and add keys are in ``test_bulk_apply.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes.alex import AdaptiveLearnedIndex
from repro.indexes.base import OrderedIndex
from repro.indexes.btree import BPlusTree
from repro.indexes.pgm import PGMIndex
from repro.indexes.rmi import RecursiveModelIndex
from repro.indexes.sorted_array import SortedArrayIndex

ORDERS = (3, 8, 64)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
STORED = st.lists(
    st.integers(min_value=0, max_value=600), min_size=1, max_size=200, unique=True
)
# Positions into the stored keys; repeats exercise "last write wins".
PICKS = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60)
# New whole keys inserted after the load: enough of them split leaves.
GROWTH = st.lists(st.integers(min_value=601, max_value=900), max_size=80)


def _tree(order, stored, growth):
    tree = BPlusTree(order=order)
    tree.bulk_load([(float(k), f"load-{k}") for k in stored])
    for k in growth:
        tree.insert(float(k), f"grown-{k}")
    return tree


def _everything(stored, growth):
    return sorted({float(k) for k in stored} | {float(k) for k in growth})


def _probe(stored, growth, picks):
    everything = _everything(stored, growth)
    ranks = np.asarray([p % len(everything) for p in picks], dtype=np.intp)
    return np.asarray(everything, dtype=np.float64)[ranks], ranks, len(everything)


def _overwrite_loop(tree, probe, values):
    """Per-key (comparisons, node_accesses, model_evals) of ``insert`` overwrites."""
    rows = []
    for key, value in zip(probe.tolist(), values):
        before = tree.stats.snapshot()
        tree.insert(key, value)
        diff = tree.stats.diff(before)
        rows.append((diff.comparisons, diff.node_accesses, diff.model_evaluations))
    return rows


def _update_run(tree, probe, hint, values):
    """``bulk_apply`` with every row an overwrite."""
    return tree.bulk_apply(probe, hint, np.ones(probe.size, dtype=bool), values)


def _hints(ranks, n):
    """The true ranks, then every way a caller could get them wrong."""
    return {
        "correct": ranks,
        "correct int32": ranks.astype(np.int32),
        "off by one up": ranks + 1,
        "off by one down": ranks - 1,
        "one negative": np.where(np.arange(ranks.size) == 0, -1, ranks),
        "one past the end": np.where(np.arange(ranks.size) == ranks.size - 1, n, ranks),
        "too short": ranks[:-1],
        "too long": np.append(ranks, ranks[-1]),
        "two dimensional": ranks.reshape(1, -1),
        "float dtype": ranks.astype(np.float64),
        "a list": ranks.tolist(),
        "all zero": np.zeros_like(ranks),
    }


@pytest.mark.parametrize("order", ORDERS)
@given(stored=STORED, growth=GROWTH, picks=PICKS)
@SETTINGS
def test_bulk_update_is_the_overwrite_loop(order, stored, growth, picks):
    probe, ranks, n = _probe(stored, growth, picks)
    values = [f"write-{i}" for i in range(probe.size)]
    scalar = _tree(order, stored, growth)
    want_rows = _overwrite_loop(scalar, probe, values)
    for label, hint in [("none", None), *_hints(ranks, n).items()]:
        tree = _tree(order, stored, growth)
        before = tree.stats.snapshot()
        out = _update_run(tree, probe, hint, values)
        assert out is not None, label
        assert list(zip(*(col.tolist() for col in out))) == want_rows, label
        assert tree.stats == scalar.stats, label
        assert tree.stats.diff(before).lookups == 0, label
        assert tree.stats.diff(before).inserts == probe.size, label
        assert list(tree.items()) == list(scalar.items()), label
        assert len(tree) == len(scalar)


@pytest.mark.parametrize("order", ORDERS)
@given(stored=STORED, growth=GROWTH, picks=PICKS, absent_at=st.integers(0, 10_000))
@SETTINGS
def test_one_missing_key_changes_nothing(order, stored, growth, picks, absent_at):
    """A write of an unstored key adds it, but a *read* of one declines
    the whole run, overwrites included."""
    probe, ranks, n = _probe(stored, growth, picks)
    probe[absent_at % probe.size] += 0.25  # every stored key is whole
    writes = np.arange(probe.size) != absent_at % probe.size
    values = [f"write-{i}" for i in range(probe.size)]
    tree = _tree(order, stored, growth)
    untouched_stats = tree.stats.snapshot()
    untouched_items = list(tree.items())
    for label, hint in [("none", None), *_hints(ranks, n).items()]:
        assert tree.bulk_apply(probe, hint, writes, values) is None, label
        assert tree.stats == untouched_stats, label
        assert list(tree.items()) == untouched_items, label


@pytest.mark.parametrize("order", ORDERS)
def test_values_must_match_keys(order):
    tree = _tree(order, range(50), [])
    before = tree.stats.snapshot()
    with pytest.raises(ValueError):
        tree.bulk_apply(np.asarray([1.0, 2.0]), None, [True, True], ["only one"])
    assert tree.stats == before
    assert tree.get(1.0) == "load-1"


def test_bulk_update_keeps_the_view_live():
    """An overwrite is not a structural change: keys and leaf ends stay as
    they are, the values list is written in place, and later bulk reads
    still see every key."""
    tree = _tree(8, range(0, 400, 2), [])
    keys, ends, values = tree._keys.view.copy(), tree._ends.copy(), tree._values
    assert _update_run(tree, np.asarray([0.0, 398.0]), None, ["a", "b"]) is not None
    np.testing.assert_array_equal(tree._keys.view, keys)
    np.testing.assert_array_equal(tree._ends, ends)
    assert tree._values is values
    assert tree.get(0.0) == "a" and tree.get(398.0) == "b"
    assert tree.bulk_lookup(np.arange(0.0, 400.0, 2.0)) is not None


OTHERS = {
    "sorted_array": SortedArrayIndex,
    "rmi": lambda: RecursiveModelIndex(fanout=16),
    "pgm": lambda: PGMIndex(epsilon=8),
    "alex": AdaptiveLearnedIndex,
}


@pytest.mark.parametrize("name", sorted(OTHERS))
def test_default_bulk_update_is_unsupported(name):
    """The base ``bulk_apply`` declines every run: reads, overwrites and
    new keys alike, touching nothing."""
    index = OTHERS[name]()
    index.bulk_load([(float(k), k) for k in range(100)])
    assert type(index).bulk_apply is OrderedIndex.bulk_apply
    before = index.stats.snapshot()
    for writes in ([True, True], [False, True], [False, False]):
        got = index.bulk_apply(np.asarray([1.0, 2.5]), np.asarray([1, 3]), writes, ["a", "b"])
        assert got is None
    assert index.stats == before
    assert index.get(1.0) == 1
    assert not index.contains(2.5)
