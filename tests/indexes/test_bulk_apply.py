"""``bulk_apply`` must do and count exactly what its row loop does.

Row ``i`` of ``BPlusTree.bulk_apply(keys, ranks, writes, values)`` is a
``get(keys[i])`` or an ``insert(keys[i], values[i])``; the oracle is that
loop on a twin textbook tree (``tests/indexes/reference_btree.py``). Each
case compares the per-row (comparisons, node accesses, model
evaluations), the final :class:`IndexStats`, ``items()``, the size, and
the leaf arrays against the twin's walk. The rows before the first one
whose loop would split a leaf are served; a call whose row 0 would
split, or that reads a key neither stored when it starts nor written by
an earlier row, must be declined with nothing touched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tests.indexes.reference_btree import BPlusTree as TextbookBPlusTree
from tests.indexes.test_btree_oracle import _assert_same_leaf_level, _assert_same_tree

from repro.indexes.btree import BPlusTree

ORDERS = (3, 4, 8, 64)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
STORED = st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=200, unique=True)
# Whole keys appended by scalar inserts before the run: enough of them
# split leaves, inner nodes and the root at every order.
GROWTH = st.lists(st.integers(min_value=301, max_value=450), min_size=40, max_size=120)
# ("read" | "overwrite", i): the i-th stored key. ("new", k): the key
# k / 2 - 10, on a half grid reaching past both ends of the stored keys,
# so it is new, a repeat of an earlier row or a stored key.
# ("reread" | "rewrite", i): a read or an overwrite of the key of the i-th
# earlier "new" row (of the i-th stored key when there is none).
ROWS = st.lists(
    st.tuples(
        st.sampled_from(["read", "overwrite", "new", "new", "reread", "rewrite"]),
        st.integers(0, 940),
    ),
    min_size=1,
    max_size=80,
)


def _tree(order, stored, growth=(), kind=BPlusTree):
    tree = kind(order=order)
    tree.bulk_load([(float(k), f"load-{k}") for k in stored])
    for k in growth:
        tree.insert(float(k), f"grown-{k}")
    return tree


def _rows(stored, growth, rows):
    """The run's keys and write flags, and the keys stored before it."""
    everything = sorted({float(k) for k in stored} | {float(k) for k in growth})
    keys, writes, written = [], [], []
    for kind, arg in rows:
        if kind == "new":
            written.append(arg / 2 - 10)
            keys.append(written[-1])
        elif kind in ("reread", "rewrite") and written:
            keys.append(written[arg % len(written)])
        else:
            keys.append(everything[arg % len(everything)])
        writes.append(kind not in ("read", "reread"))
    return np.asarray(keys), np.asarray(writes), np.asarray(everything)


def _loop(tree, keys, writes, values):
    """Per-row (comparisons, node_accesses, model_evals) of get/insert calls."""
    rows = []
    for key, write, value in zip(keys.tolist(), writes.tolist(), values):
        before = tree.stats.snapshot()
        if write:
            tree.insert(key, value)
        else:
            tree.get(key)
        diff = tree.stats.diff(before)
        rows.append((diff.comparisons, diff.node_accesses, diff.model_evaluations))
    return rows


def _leaf_count(tree):
    node = tree._root
    while not node.leaf:
        node = node.children[0]
    count = 0
    while node is not None:
        count, node = count + 1, node.next
    return count


def _state(tree):
    return tree.stats.snapshot(), list(tree.items()), len(tree)


def _first_split(order, stored, growth, keys, writes, values):
    """The first row whose loop splits a leaf (``keys.size`` if none)."""
    tree = _tree(order, stored, growth, TextbookBPlusTree)
    leaves = _leaf_count(tree)
    for row, (key, write, value) in enumerate(zip(keys.tolist(), writes.tolist(), values)):
        if write:
            tree.insert(key, value)
        else:
            tree.get(key)
        if _leaf_count(tree) != leaves:
            return row
    return keys.size


def _assert_is_the_loop(order, stored, growth, keys, writes, hints=None):
    """``bulk_apply`` on a fresh tree == the row loop on its textbook twin
    up to the first row that splits a leaf, for every hint: those rows'
    counts, and the loop's state after them. Declined with nothing
    touched iff row 0 splits. Returns the rows served."""
    values = [f"row-{i}" for i in range(keys.size)]
    served = _first_split(order, stored, growth, keys, writes, values)
    scalar = _tree(order, stored, growth, TextbookBPlusTree)
    want = _loop(scalar, keys[:served], writes[:served], values[:served])
    for label, hint in [("none", None), *(hints or {}).items()]:
        tree = _tree(order, stored, growth)
        out = tree.bulk_apply(keys, hint, writes, values)
        _assert_same_leaf_level(tree, scalar)
        if not served:
            assert out is None, label
            assert _state(tree) == _state(scalar), label
            continue
        assert out is not None, label
        assert list(zip(*(col.tolist() for col in out))) == want, label
        assert tree.stats == scalar.stats, label
        assert list(tree.items()) == list(scalar.items()), label
        assert len(tree) == len(scalar), label
    return served


def _hints(keys, everything):
    """Pre-run positions (insertion points for new keys), then wrong ones."""
    ranks = np.searchsorted(everything, keys)
    return {
        "positions": ranks,
        "off by one": ranks + 1,
        "reversed": ranks[::-1].copy(),
        "float dtype": ranks.astype(np.float64),
    }


@pytest.mark.parametrize("start", ["loaded", "after-splits"])
@pytest.mark.parametrize("order", ORDERS)
@given(stored=STORED, growth=GROWTH, rows=ROWS)
@SETTINGS
def test_bulk_apply_is_the_row_loop(order, start, stored, growth, rows):
    if start == "loaded":
        growth = []
    keys, writes, everything = _rows(stored, growth, rows)
    _assert_is_the_loop(order, stored, growth, keys, writes, _hints(keys, everything))


@pytest.mark.parametrize("order", ORDERS)
@given(stored=STORED, rows=ROWS, absent_at=st.integers(0, 10_000))
@SETTINGS
def test_a_read_of_an_unstored_key_is_declined(order, stored, rows, absent_at):
    keys, writes, everything = _rows(stored, [], rows)
    row = absent_at % keys.size
    keys[row], writes[row] = keys[row] + 0.25, False  # no run key ends in .25 or .75
    tree = _tree(order, stored)
    untouched = _state(tree)
    for hint in (None, *_hints(keys, everything).values()):
        assert tree.bulk_apply(keys, hint, writes, [None] * keys.size) is None
        assert _state(tree) == untouched
    _assert_same_tree(tree, _tree(order, stored, (), TextbookBPlusTree))


@pytest.mark.parametrize("order", ORDERS)
def test_a_read_of_a_key_only_a_later_row_writes_is_declined(order):
    """A read may be of a key an earlier row wrote, not of one a later row
    writes: the loop's ``get`` would raise there."""
    tree = _tree(order, range(20))
    untouched = _state(tree)
    for keys, writes in [
        ([3.0, 4.5, 4.5, 4.5], [False, False, True, False]),
        ([7.5, 4.5, 7.5, 4.5], [True, False, False, True]),
    ]:
        assert tree.bulk_apply(np.asarray(keys), None, np.asarray(writes), [None] * 4) is None
        assert _state(tree) == untouched
    _assert_same_tree(tree, _tree(order, range(20), (), TextbookBPlusTree))


@pytest.mark.parametrize("order", [8, 64])
def test_a_leaf_filled_to_order_is_served_and_one_more_key_is_declined(order):
    """``bulk_load`` leaves hold ``(order + 1) // 2`` keys. Filling the
    second leaf to exactly ``order`` keys, with a read after every write,
    walks its search across the ``bit_length`` step at ``order`` (8 → 4,
    64 → 7 comparisons); one more new key would split it."""
    per_leaf = (order + 1) // 2
    stored = range(0, 10 * per_leaf, 2)  # even keys, leaves of ``per_leaf``
    second = 2.0 * per_leaf  # the second leaf's first key
    room = order - per_leaf
    news = second + 1.0 + 2.0 * np.arange(room)  # odd keys inside that leaf
    keys = np.ravel(np.column_stack([news, np.full(room, second)]))
    writes = np.tile([True, False], room)
    assert _assert_is_the_loop(order, stored, [], keys, writes) == keys.size
    tree = _tree(order, stored)
    assert tree.bulk_apply(keys, None, writes, [None] * keys.size) is not None
    assert np.diff(tree._ends, prepend=0).max() == order
    # One new key past ``order``, behind an overwrite: every row before it
    # is served, the new key is not added, and as row 0 it is declined.
    over = np.append(keys, [second, second - 0.5 + 2.0 * per_leaf])
    over_writes = np.append(writes, [True, True])
    assert _assert_is_the_loop(order, stored, [], over, over_writes) == over.size - 1
    tree = _tree(order, stored)
    tree.bulk_apply(keys, None, writes, [None] * keys.size)
    untouched = _state(tree)
    assert tree.bulk_apply(over[-1:], None, over_writes[-1:], [None]) is None
    assert _state(tree) == untouched


def test_repeats_within_the_run_and_of_stored_keys():
    """A key new to the run is added once; its repeats and every write of a
    stored key overwrite, the last value winning."""
    keys = np.asarray([4.5, 4.0, 4.5, 4.0, 4.5, 5.0, 4.0])
    writes = np.asarray([True, False, True, True, True, False, False])
    assert _assert_is_the_loop(8, range(20), [], keys, writes) == keys.size
    tree = _tree(8, range(20))
    tree.bulk_apply(keys, None, writes, list("abcdefg"))
    assert len(tree) == 21
    assert tree.get(4.5) == "e" and tree.get(4.0) == "d"


@pytest.mark.parametrize("order", ORDERS)
def test_new_keys_at_both_ends(order):
    """Below the first key every separator routes left, past the last one
    right: the first and the last leaf grow, reads of both ends after."""
    stored = range(10, 40)
    keys = np.asarray([-5.0, 10.0, 1e6, 39.0, -7.0, 10.0, 1e6 + 1, 39.0])
    writes = np.asarray([True, False, True, False, True, False, True, False])
    _assert_is_the_loop(order, stored, [], keys, writes)
    _assert_is_the_loop(order, stored, [40.0, 41.0, 42.0, 43.0, 44.0], keys, writes)


def test_a_run_without_a_new_key_keeps_the_view():
    """Reads and overwrites change no leaf's shape: the same keys and leaf
    ends, values written into the same dict, and a run of only reads
    commits ``lookups`` alone."""
    tree = _tree(8, range(0, 400, 2))
    keys_before, ends_before, written = tree._keys.view.copy(), tree._ends.copy(), tree._written
    keys = np.asarray([0.0, 398.0, 0.0])
    before = tree.stats.snapshot()
    assert tree.bulk_apply(keys, None, [False, False, False], [None] * 3) is not None
    assert tree.stats.diff(before).lookups == 3 and tree.stats.inserts == before.inserts
    assert tree.bulk_apply(keys, None, [False, True, True], ["a", "b", "c"]) is not None
    np.testing.assert_array_equal(tree._keys.view, keys_before)
    np.testing.assert_array_equal(tree._ends, ends_before)
    assert tree._written is written
    assert tree.get(0.0) == "c" and tree.get(398.0) == "b"


@pytest.mark.parametrize("hinted", [False, True], ids=["unhinted", "hinted"])
@pytest.mark.parametrize("order", [8, 64])
@pytest.mark.parametrize("first", [0, 1, 3])
def test_rows_from_the_first_nan_write_on_are_not_served(order, first, hinted):
    """A NaN write adds a key each time (NaN equals no key), which the
    run's one merge cannot do: the rows before the first are served as
    the loop serves them, and a NaN write at row 0 is declined untouched."""
    keys = np.append(np.insert([10.0, 12.5, 20.0, 35.5], first, np.nan), [np.nan, 30.0])
    writes = keys != 20.0
    values = [f"row-{i}" for i in range(keys.size)]
    hint = np.searchsorted(np.arange(10.0, 40.0), keys) if hinted else None
    tree, scalar = _tree(order, range(10, 40)), _tree(order, range(10, 40), (), TextbookBPlusTree)
    before = tree.stats.snapshot()
    out = tree.bulk_apply(keys, hint, writes, values)
    if not first:
        assert out is None and tree.stats == before
        assert list(tree.items()) == list(scalar.items())
        return
    assert list(zip(*(col.tolist() for col in out))) == _loop(
        scalar, keys[:first], writes[:first], values[:first]
    )
    _assert_same_tree(tree, scalar)
