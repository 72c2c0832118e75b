"""The B+ tree's values, held to a sorted array whose values are a list.

``BPlusTree`` keeps values by key: the load's value sequence read in
place at each loaded key's rank, and a dict of the keys written since.
``SortedArrayIndex`` keeps one value per position in a plain list, moved
with its keys. Both run the same generated operations: loads of a rank
``range`` (duplicated and unsorted keys among them), ``bulk_apply``
runs (the twin loops over the rows the tree served), inserts, deletes of
stored and absent keys, a loaded key deleted and inserted again, and
``0.0`` written over a stored ``-0.0``. After every operation ``get`` of
every stored key and of absent ones, ``items()``, ``range()``, ``len``
and the ``lookups`` counter must agree, keys down to their sign bit.

NaN stays out: the sorted array stores a NaN key at the front, the B+
tree at the tail.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sut import KeyColumnPairs
from repro.errors import KeyNotFoundError
from repro.indexes.btree import BPlusTree
from repro.indexes.sorted_array import SortedArrayIndex

KEY = st.one_of(st.integers(-24, 24).map(lambda k: k / 2), st.just(-0.0))
OP = st.one_of(
    st.tuples(st.just("load"), st.lists(KEY, max_size=40)),
    st.tuples(
        st.just("apply"),
        st.lists(st.tuples(st.booleans(), KEY), min_size=1, max_size=30),
        st.booleans(),
    ),
    st.tuples(st.just("insert"), KEY),
    st.tuples(st.just("delete"), KEY),
    st.tuples(st.just("reinsert"), st.integers(0, 100)),
    st.tuples(st.just("zero"), st.booleans()),
)


def _bits(keys):
    return np.asarray(keys, dtype=np.float64).view(np.uint64).tolist()


def _same_call(methods, *args):
    """The two indexes' ``methods`` called with ``args``: equal results,
    or ``KeyNotFoundError`` from both."""
    out = []
    for method in methods:
        try:
            out.append(("ok", method(*args)))
        except KeyNotFoundError:
            out.append(("missing", None))
    assert out[0] == out[1]


def _assert_same(tree, twin):
    assert len(tree) == len(twin)
    got, want = list(tree.items()), list(twin.items())
    assert got == want
    assert _bits([k for k, _ in got]) == _bits([k for k, _ in want])
    for key in [k for k, _ in want] + [-13.0, 0.25, 13.0]:
        _same_call((tree.get, twin.get), key)
    for low, high in [(-13.0, 13.0), (-2.0, 2.0), (0.0, 0.0), (-0.0, 5.5), (7.0, 3.0)]:
        assert tree.range(low, high) == twin.range(low, high)
    assert tree.stats.lookups == twin.stats.lookups


def _apply(tree, twin, rows, hinted, step):
    writes = np.asarray([w for w, _ in rows])
    keys = np.asarray([k for _, k in rows])
    values = [f"apply{step}-{i}" for i in range(keys.size)]
    hint = tree.key_buffer().view.searchsorted(keys) if hinted else None
    out = tree.bulk_apply(keys, hint, writes, values)
    served = 0 if out is None else out[0].size
    for key, write, value in zip(keys[:served].tolist(), writes[:served].tolist(), values):
        if write:
            twin.insert(key, value)
        else:
            twin.get(key)


@pytest.mark.parametrize("order", [3, 8, 64])
@given(first=st.lists(KEY, max_size=40), ops=st.lists(OP, max_size=25))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_values_by_key_read_like_a_positional_list(order, first, ops):
    tree, twin = BPlusTree(order=order), SortedArrayIndex()
    loaded = []
    for step, op in enumerate([("load", first)] + ops):
        kind = op[0]
        if kind == "load":
            tree, twin = BPlusTree(order=order), SortedArrayIndex()
            pairs = KeyColumnPairs(op[1])
            tree.bulk_load(pairs)
            twin.bulk_load(pairs)
            loaded = sorted(set(op[1]))
        elif kind == "apply":
            _apply(tree, twin, op[1], op[2], step)
        elif kind == "insert":
            tree.insert(op[1], f"ins{step}")
            twin.insert(op[1], f"ins{step}")
        elif kind == "delete":
            _same_call((tree.delete, twin.delete), op[1])
        elif kind == "reinsert" and loaded:
            key = loaded[op[1] % len(loaded)]
            _same_call((tree.delete, twin.delete), key)
            tree.insert(key, f"again{step}")
            twin.insert(key, f"again{step}")
        elif kind == "zero":
            for index in (tree, twin):
                if op[1]:  # make sure the stored zero is -0.0
                    try:
                        index.delete(0.0)
                    except KeyNotFoundError:
                        pass
                index.insert(-0.0, f"neg{step}")
                index.insert(0.0, f"pos{step}")
        _assert_same(tree, twin)
