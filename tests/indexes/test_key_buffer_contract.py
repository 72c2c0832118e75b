"""``OrderedIndex.key_buffer()``: the stored keys, exact after every op.

Each of the six indexes runs generated op sequences (loads of shuffled,
duplicated pairs, inserts, overwrites, deletes, gets, ranges and
``bulk_apply`` calls) with ``±0.0`` among the keys. After every op the
buffer must be the ascending key set ``items()`` walks, and keeping it
must count nothing: a twin that never calls ``key_buffer()`` ends with
the same return values and ``IndexStats``.
"""

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
    PGMIndex,
    RecursiveModelIndex,
    SortedArrayIndex,
)

FACTORIES = {
    "btree": lambda: BPlusTree(order=4),
    "sorted-array": SortedArrayIndex,
    "hash": HashIndex,
    "rmi": lambda: RecursiveModelIndex(fanout=4, max_delta=8),
    "pgm": lambda: PGMIndex(epsilon=4, max_delta=8),
    "alex": lambda: AdaptiveLearnedIndex(node_capacity=16),
}

KEY = st.one_of(
    st.integers(min_value=-20, max_value=60).map(float),
    st.sampled_from([-0.0, 0.0, 0.5, 1e9]),
)
OP = st.one_of(
    st.tuples(st.sampled_from(["insert", "delete", "get", "range"]), KEY, KEY),
    st.tuples(st.just("bulk"), st.lists(st.tuples(KEY, st.booleans()), max_size=12), KEY),
)


def _apply(index, op):
    """Run one op; its return value or exception name."""
    kind, key, other = op
    try:
        if kind == "insert":
            return index.insert(key, other)
        if kind == "delete":
            return index.delete(key)
        if kind == "get":
            return index.get(key)
        if kind == "range":
            return index.range(min(key, other), max(key, other))
        keys = np.asarray([k for k, _ in key], dtype=np.float64)
        writes = np.asarray([w for _, w in key], dtype=bool)
        out = index.bulk_apply(keys, None, writes, [other] * keys.size)
        return None if out is None else [column.tolist() for column in out]
    except KeyNotFoundError:
        return "KeyNotFoundError"


def _checked_items(index):
    """``items()``, after asserting that the key buffer holds their keys."""
    view = index.key_buffer().view
    pairs = list(index.items())
    assert view.tolist() == [k for k, _ in pairs]
    assert bool((view[1:] > view[:-1]).all())
    assert len(index.key_buffer()) == len(index) == len(pairs)
    return pairs


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(
    load=st.lists(KEY, max_size=40),
    column=st.booleans(),
    ops=st.lists(OP, max_size=40),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_key_buffer_follows_every_op_and_counts_nothing(name, load, column, ops):
    watched, blind = FACTORIES[name](), FACTORIES[name]()
    for index in (watched, blind):
        index.bulk_load(
            KeyColumnPairs(load) if column else [(k, i) for i, k in enumerate(load)]
        )
    assert _checked_items(watched) == list(blind.items())
    for op in ops:
        assert _apply(watched, op) == _apply(blind, op)
        assert _checked_items(watched) == list(blind.items())
        assert watched.stats == blind.stats


def test_a_write_of_an_equal_key_keeps_the_stored_one():
    """``0.0`` onto a stored ``-0.0`` overwrites the value, not the key."""
    for name, factory in FACTORIES.items():
        index = factory()
        index.bulk_load([(-0.0, "a"), (1.0, "b")])
        index.insert(0.0, "c")
        assert np.signbit(index.key_buffer().view).tolist() == [True, False], name
        assert index.get(-0.0) == "c", name
