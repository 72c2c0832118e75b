"""The columnar B+ tree against the textbook node-object tree it replaced.

``tests/indexes/reference_btree.py`` keeps the node-object tree verbatim.
Both trees run the same generated operation sequence, and after every
operation the test demands the same return value or the same exception,
the same :class:`IndexStats`, length, height, ``size_bytes`` and
``items()``, the same inner nodes, and leaf arrays equal to the oracle's
flattened walk. A ``bulk_apply`` the tree serves up to its first split is
the oracle's ``bulk_apply`` of the rows served, one row short of one the
oracle declines. After every operation it also reads back a stride of the
stored keys in bulk, with the true ranks as a hint and with a wrong one,
and a probe with one absent key, which both trees must decline with
nothing counted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tests.indexes.reference_btree import BPlusTree as TextbookBPlusTree

from repro.errors import KeyNotFoundError
from repro.indexes.btree import BPlusTree

ORDERS = (3, 4, 8, 64)  # small orders split leaves, inner nodes and the root
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
KEY = st.integers(min_value=0, max_value=400)  # the key k / 2: a half grid
ABSENT = 1 / 16  # every key written is a multiple of 1/8: k / 2 + ABSENT is never stored
AT = st.integers(min_value=0, max_value=10_000)  # the i-th stored key, mod size
PAIRS = st.lists(st.tuples(KEY, st.integers(-5, 5)), max_size=120)  # duplicates too
# Bulk rows: a read of the i-th stored key, or a write of k / 2 (new, a
# repeat of an earlier row, or a stored key). With the row number beside
# them, one read of an absent key.
ROWS = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(["read", "write", "write"]), st.integers(0, 10_000)),
        min_size=1,
        max_size=40,
    ),
    st.one_of(st.none(), AT),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["get", "get absent", "delete absent"]), AT),
        # A stretch of keys k / 2 + j / 8: new ones, and overwrites where j / 8 is whole.
        st.tuples(st.just("insert"), KEY, st.sampled_from([1, 1, 2, 40, 80])),
        st.tuples(st.just("delete"), AT, st.sampled_from([1, 1, 5, 70])),  # empties leaves
        st.tuples(st.just("range"), KEY, KEY),
        st.tuples(st.just("bulk_apply"), ROWS, st.booleans()),
        st.tuples(st.just("load"), PAIRS),
    ),
    max_size=40,
)


def _hints(ranks, n):
    """Wrong rank hints; the true ranks are always tried as well."""
    return [
        ranks + 1,
        ranks - 1,
        -ranks - 1,
        ranks + n,
        ranks[:-1],
        ranks.astype(np.float64),
        ranks[::-1].copy(),
    ]


def _call(fn, *args):
    """``fn(*args)``'s result, or the exception it raised as ``(type, args)``."""
    try:
        return fn(*args)
    except KeyNotFoundError as exc:
        return type(exc), exc.args


def _same(got, want):
    if isinstance(want, tuple) and want and isinstance(want[0], np.ndarray):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
    else:
        assert got == want


def _inner_keys(root):
    """Every inner node's separators, breadth first (the oracle's leaves are nodes too)."""
    out, level = [], [] if root is None else [root]
    while level:
        level = [node for node in level if not getattr(node, "leaf", False)]
        out += [list(node.keys) for node in level]
        level = [child for node in level for child in node.children]
    return out


def _assert_same_tree(tree, oracle):
    assert tree.stats == oracle.stats
    assert len(tree) == len(oracle)
    assert tree.size_bytes() == oracle.size_bytes()
    assert list(tree.items()) == list(oracle.items())
    assert _inner_keys(tree._root) == _inner_keys(oracle._root)
    _assert_same_leaf_level(tree, oracle)


def _assert_same_leaf_level(tree, oracle):
    """The leaf arrays equal the oracle's flattened walk, and each stored
    key's leaf, whether derived from ``_ends`` by position or routed by
    ``_seps``, is the walk's leaf of its position."""
    assert tree.height == oracle.height
    walk = oracle._build_bulk_cache()
    sizes = np.diff(tree._ends, prepend=0)
    for got, want in [
        (tree._seps, walk.seps),
        (tree._keys.view, walk.keys.view),
        (np.repeat(np.arange(sizes.size), sizes), walk.leaf_of.view),
        (tree._seps.searchsorted(tree._keys.view, side="right"), walk.leaf_of.view),
        (tree._ends, walk.ends),
        (tree._path + np.maximum(1, [int(s).bit_length() for s in sizes]), walk.leaf_comps),
        (np.full(sizes.size, tree.height), walk.leaf_na),
    ]:
        np.testing.assert_array_equal(got, want)


def _assert_bulk_reads_agree(tree, oracle, step):
    """A hinted bulk read (true ranks, then a wrong hint) and a read with
    one absent key, on both trees."""
    stored = tree._keys.view.copy()
    if not stored.size:
        assert tree.bulk_lookup(stored) is None and oracle.bulk_lookup(stored) is None
        return
    ranks = np.arange(step % stored.size, stored.size, 3, dtype=np.intp)
    probe = stored[ranks]
    wrong = _hints(ranks, stored.size)
    for hint in (ranks, wrong[step % len(wrong)]):
        _same(tree.bulk_lookup(probe, hint), oracle.bulk_lookup(probe))
        assert tree.stats == oracle.stats
    probe[-1] += ABSENT
    before = tree.stats.snapshot()
    assert tree.bulk_lookup(probe, wrong[(step + 1) % len(wrong)]) is None
    assert tree.bulk_lookup(probe, ranks) is None
    assert tree.stats == before


def _bulk_rows(stored, rows, absent_at):
    keys, writes = [], []
    for kind, arg in rows:
        if kind == "write":
            keys.append(arg % 401 / 2)
        elif not stored.size:
            keys.append(arg % 401 / 2 + ABSENT)
        else:
            keys.append(float(stored[arg % stored.size]))
        writes.append(kind == "write")
    if absent_at is not None:
        row = absent_at % len(rows)
        keys[row], writes[row] = rows[row][1] % 401 / 2 + ABSENT, False
    return np.asarray(keys), np.asarray(writes)


def _apply(tree, oracle, step, op):
    kind, args = op[0], op[1:]
    stored = tree._keys.view.copy()
    pick = float(stored[args[0] % stored.size]) if stored.size and kind in ("get", "delete") else None
    if kind == "load":
        pairs = [(k / 2, v) for k, v in args[0]]
        tree.bulk_load(pairs)
        oracle.bulk_load(pairs)
    elif kind == "get" and pick is not None:
        _same(_call(tree.get, pick), _call(oracle.get, pick))
    elif kind == "get absent":
        key = args[0] % 401 / 2 + ABSENT
        _same(_call(tree.get, key), _call(oracle.get, key))
    elif kind == "insert":
        for key in (args[0] / 2 + np.arange(args[1]) / 8).tolist():
            _same(_call(tree.insert, key, step), _call(oracle.insert, key, step))
            _assert_same_tree(tree, oracle)
    elif kind == "delete absent":
        key = args[0] % 401 / 2 + ABSENT
        _same(_call(tree.delete, key), _call(oracle.delete, key))
    elif kind == "delete" and pick is not None:
        for key in stored[args[0] % stored.size :][: args[1]].tolist():
            _same(_call(tree.delete, key), _call(oracle.delete, key))
            _assert_same_tree(tree, oracle)
    elif kind == "range":
        low, high = args[0] / 2, args[1] / 2 + ABSENT * (step % 2)
        _same(tree.range(low, high), oracle.range(low, high))
    elif kind == "bulk_apply":
        # The tree serves the rows before its first split, which the
        # oracle declines as a whole: the served prefix is the oracle's
        # ``bulk_apply`` of that prefix, and one row more it declines.
        keys, writes = _bulk_rows(stored, *args[0])
        values = [f"{step}-{i}" for i in range(keys.size)]
        hint = np.searchsorted(stored, keys) if args[1] else None
        got = tree.bulk_apply(keys, hint, writes, values)
        if got is None:
            assert oracle.bulk_apply(keys, None, writes, values) is None
            # Only an absent read or a split at row 0 declines the call.
            if args[0][1] is None:
                assert oracle.bulk_apply(keys[:1], None, writes[:1], values[:1]) is None
            return
        served = got[0].size
        if served < keys.size:
            more = served + 1
            assert oracle.bulk_apply(keys[:more], None, writes[:more], values[:more]) is None
        _same(got, oracle.bulk_apply(keys[:served], None, writes[:served], values[:served]))


@pytest.mark.parametrize("order", ORDERS)
@given(initial=PAIRS, ops=OPS)
@SETTINGS
def test_btree_equals_the_textbook_oracle(order, initial, ops):
    tree, oracle = BPlusTree(order=order), TextbookBPlusTree(order=order)
    _assert_same_tree(tree, oracle)
    pairs = [(k / 2, v) for k, v in initial]
    tree.bulk_load(pairs)
    oracle.bulk_load(pairs)
    for step, op in enumerate(ops):
        _apply(tree, oracle, step, op)
        _assert_same_tree(tree, oracle)
        _assert_bulk_reads_agree(tree, oracle, step)
