"""``SortedKeyBuffer`` and ``PositionTagBuffer`` against a Python list.

The buffers shift their tail in place on every insert and delete, place
a batch in one back-to-front pass on a merge, and double their capacity
when full. A list with ``insert`` / ``pop`` / ``bisect.insort`` is the
model: after every operation the live view must equal it, at the front,
the back and the middle, across growth.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes.keybuffer import PositionTagBuffer, SortedKeyBuffer

BUFFERS = {"keys": SortedKeyBuffer, "tags": PositionTagBuffer}
SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
# Where an insert or delete lands: the front, the back, the middle, or
# anywhere (the integer, modulo the valid range).
WHERE = st.one_of(st.sampled_from(["front", "back", "middle"]), st.integers(0, 10_000))
OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "delete"]), WHERE, st.integers(-500, 500)),
    max_size=120,
)
INITIAL = st.lists(st.integers(-500, 500), max_size=40)


def _position(where, size):
    """A position in ``[0, size]``."""
    if where == "front":
        return 0
    if where == "back":
        return size
    if where == "middle":
        return size // 2
    return where % (size + 1)


def _assert_same(buf, model):
    assert len(buf) == len(model)
    assert buf.view.dtype == buf._dtype
    assert buf.view.tolist() == model


@pytest.mark.parametrize("kind", sorted(BUFFERS))
@given(initial=INITIAL, ops=OPS)
@SETTINGS
def test_insert_and_delete_at_match_a_list(kind, initial, ops):
    buf = BUFFERS[kind](np.asarray(initial))
    model = list(initial)
    capacities = {buf._buf.size}
    for op, where, value in ops:
        if op == "insert":
            pos = _position(where, len(model))
            buf.insert_at(pos, value)
            model.insert(pos, value)
        elif model:
            pos = _position(where, len(model) - 1)
            buf.delete_at(pos)
            model.pop(pos)
        capacities.add(buf._buf.size)
        _assert_same(buf, model)
    inserts = sum(op == "insert" for op, _, _ in ops)
    if inserts > 16 + len(initial):
        assert len(capacities) > 1  # the buffer grew on the way


@pytest.mark.parametrize("kind", sorted(BUFFERS))
@given(initial=st.lists(st.integers(-500, 500), unique=True, max_size=40),
       adds=st.lists(st.integers(-600, 600), max_size=120))
@SETTINGS
def test_add_matches_a_sorted_set(kind, initial, adds):
    model = sorted(initial)
    buf = BUFFERS[kind](np.asarray(model))
    for value in adds:
        buf.add(value)
        if value not in model:
            bisect.insort(model, value)
        _assert_same(buf, model)


@pytest.mark.parametrize("kind", sorted(BUFFERS))
@given(
    initial=INITIAL,
    batches=st.lists(
        st.lists(st.tuples(WHERE, st.integers(-500, 500)), max_size=60), max_size=4
    ),
)
@SETTINGS
def test_merge_matches_a_list(kind, initial, batches):
    """``merge(points, values)`` puts ``values[i]`` at ``points[i] + i``:
    the list model inserts them one by one, front to back. Empty batches,
    repeated points, both ends and batches larger than the spare capacity
    all occur."""
    buf = BUFFERS[kind](np.asarray(initial))
    model = list(initial)
    for batch in batches:
        points = sorted(_position(where, len(model)) for where, _ in batch)
        values = [value for _, value in batch]
        capacity = buf._buf.size
        buf.merge(np.asarray(points, dtype=np.intp), np.asarray(values))
        for i, (point, value) in enumerate(zip(points, values)):
            model.insert(point + i, value)
        _assert_same(buf, model)
        if len(model) > capacity:
            assert buf._buf.size >= len(model)  # the buffer grew on the way


@given(
    initial=st.lists(st.integers(-500, 500), unique=True, max_size=40),
    batch=st.lists(st.integers(-600, 600), unique=True, max_size=60),
)
@SETTINGS
def test_merging_sorted_new_keys_is_a_sorted_union(initial, batch):
    """How the store and the B+ tree use it: sorted keys the buffer lacks,
    at their ``searchsorted`` insertion points."""
    model = sorted(initial)
    buf = SortedKeyBuffer(np.asarray(model, dtype=np.float64))
    new = np.asarray(sorted(set(batch) - set(model)), dtype=np.float64)
    buf.merge(np.searchsorted(buf.view, new), new)
    _assert_same(buf, sorted(set(model) | set(new.tolist())))


@pytest.mark.parametrize("kind", sorted(BUFFERS))
def test_a_write_past_the_capacity_raises(kind):
    buf = BUFFERS[kind](np.arange(16))
    buf.insert_at(16, 16)  # grows to 32 slots, 17 live
    with pytest.raises(IndexError):
        buf.insert_at(40, 1)
    assert buf.view.tolist() == list(range(17))
