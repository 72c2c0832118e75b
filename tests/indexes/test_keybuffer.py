"""``SortedKeyBuffer`` against a Python list.

The buffer shifts its tail in place on every insert and delete, places
a batch in one back-to-front pass on a merge, starts with an eighth of
headroom, and doubles its capacity when full. A list with ``insert`` /
``pop`` / ``bisect.insort`` is the model: after every operation the live
view must equal it, at the front, the back and the middle, across growth.

``SortedKeyBuffer.snap`` is held to ``searchsorted`` plus the nearest-key
tie rule, through its bucket directory and its general fallback alike.
"""

from __future__ import annotations

import bisect
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes import keybuffer
from repro.indexes.keybuffer import SortedKeyBuffer

BUFFERS = {"keys": SortedKeyBuffer}
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
    first = buf._buf.size
    assert first == (len(initial) + len(initial) // 8 if initial else 16)
    capacities, peak = {first}, len(model)
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
        peak = max(peak, len(model))
        _assert_same(buf, model)
    if peak > first:
        assert len(capacities) > 1  # the buffer grew once the live size passed it


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
    buf.insert_at(16, 16)  # 17 live in the first buffer's 18 slots
    with pytest.raises(IndexError):
        buf.insert_at(40, 1)
    assert buf.view.tolist() == list(range(17))


# -- snap through the bucket directory ---------------------------------------------


def _reference_snap(view, needles):
    """``searchsorted`` (left) per needle, then the nearest stored key, ties
    to the lower, clamped at both ends."""
    with np.errstate(all="ignore"):
        gaps = np.searchsorted(view, needles)
        lo = np.maximum(gaps - 1, 0)
        hi = np.minimum(gaps, view.size - 1)
        ranks = np.where(needles - view[lo] <= view[hi] - needles, lo, hi)
    return view[ranks], ranks, gaps


class _FallbackSpy:
    """Counts the rows that reach the general (argsort) snap."""

    def __init__(self, monkeypatch):
        self.rows = 0
        real = keybuffer._snap_sorted

        def spy(view, needles):
            self.rows += needles.size
            return real(view, needles)

        monkeypatch.setattr(keybuffer, "_snap_sorted", spy)


def _assert_snaps_like_the_reference(buf, needles):
    """A directory-sized call (at least ``n / 8`` needles) and a one-needle
    call both equal the reference, bit for bit."""
    needles = np.asarray(needles, dtype=np.float64)
    big = np.resize(needles, max(needles.size, len(buf) // 8 + 1))
    want = _reference_snap(buf.view, big)
    got = buf.snap(big)
    assert got[0].dtype == np.float64 and got[1].dtype == got[2].dtype == np.intp
    assert got[0].view(np.uint64).tolist() == want[0].view(np.uint64).tolist()
    assert got[1].tolist() == want[1].tolist()
    assert got[2].tolist() == want[2].tolist()
    one = buf.snap(big[:1])
    assert [a.tolist() for a in one] == [a[:1].tolist() for a in want]


def _special_needles(view):
    """Every stored key, its one-ulp neighbours and midpoints, signed
    zeros, both infinities, NaN, and values past both ends."""
    with np.errstate(all="ignore"):
        mids = view[:-1] / 2 + view[1:] / 2
    return np.concatenate(
        [
            view,
            np.nextafter(view, np.inf),
            np.nextafter(view, -np.inf),
            mids,
            [0.0, -0.0, np.inf, -np.inf, np.nan, view[0] - 1.0, view[-1] + 1.0],
            [-1e300, 1e300, -np.finfo(np.float64).max, np.finfo(np.float64).max],
        ]
    )


# Arithmetic progressions: at most two keys share a bucket.
EVEN = st.builds(
    lambda start, step, n: start + step * np.arange(n),
    st.floats(-1e6, 1e6),
    st.floats(1e-3, 1e3),
    st.integers(2, 400),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(keys=EVEN, fractions=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=200),
       extra=st.lists(FINITE, max_size=20))
@SETTINGS
def test_evenly_spread_keys_snap_without_a_fallback_row(keys, fractions, extra):
    buf = SortedKeyBuffer(keys)
    span = keys[-1] - keys[0]
    needles = np.concatenate([keys[0] + span * np.asarray(fractions), extra, keys[::3]])
    with pytest.MonkeyPatch.context() as mp:
        spy = _FallbackSpy(mp)
        _assert_snaps_like_the_reference(buf, needles)
        assert buf._directory.table is not None
        assert spy.rows == 0


@given(keys=EVEN)
@SETTINGS
def test_only_non_finite_needles_fall_back_on_evenly_spread_keys(keys):
    buf = SortedKeyBuffer(keys)
    needles = _special_needles(buf.view)
    with pytest.MonkeyPatch.context() as mp:
        spy = _FallbackSpy(mp)
        _assert_snaps_like_the_reference(buf, needles)
        # The one-needle call reads the directory the first call built;
        # its needle is the first key.
        big = max(needles.size, len(buf) // 8 + 1)
        assert spy.rows == np.count_nonzero(~np.isfinite(np.resize(needles, big)))


@given(
    spread=st.integers(40, 200),
    cluster=st.integers(8, 30),
    width=st.sampled_from([0.0, 1e-9, 1e-6]),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=100),
)
@SETTINGS
def test_a_crowded_bucket_sends_its_rows_and_only_those_to_the_fallback(
    spread, cluster, width, fractions
):
    """``cluster`` keys inside one bucket of a spread-out store: more than
    the refine steps can cover, fewer than half of the keys."""
    base = np.arange(spread, dtype=np.float64) * 10.0
    dense = 55.0 + np.arange(1, cluster + 1) * (width or 1e-12)
    buf = SortedKeyBuffer(np.unique(np.concatenate([base, dense])))
    outside = base[0] + (base[-1] - base[0]) * np.asarray(fractions)
    outside = outside[(outside < 40.0) | (outside > 70.0)]
    with pytest.MonkeyPatch.context() as mp:
        spy = _FallbackSpy(mp)
        _assert_snaps_like_the_reference(buf, np.concatenate([dense, outside]))
        assert buf._directory.table is not None
        assert buf._directory.crowded is not None
        assert spy.rows > 0
        spy.rows = 0
        if outside.size:
            _assert_snaps_like_the_reference(buf, outside)
            assert spy.rows == 0


@given(keys=st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=300, unique=True),
       needles=st.lists(st.floats(), min_size=1, max_size=100))
@SETTINGS
def test_any_keys_and_needles_snap_like_the_reference(keys, needles):
    """Skewed, clustered, huge-range, one-key and infinite-ended stores,
    against arbitrary float64 needles, NaN included."""
    buf = SortedKeyBuffer(np.unique(np.asarray(keys, dtype=np.float64)))
    _assert_snaps_like_the_reference(buf, np.concatenate([needles, _special_needles(buf.view)]))


def test_non_finite_needles_leak_no_warning():
    buf = SortedKeyBuffer(np.linspace(-5.0, 5.0, 64))
    needles = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (needles, needles[:3]):
            _assert_snaps_like_the_reference(buf, call)
        # Non-finite stores: the tie rule subtracts infinities (inf - inf).
        for store in ([-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf], [-np.inf, np.inf]):
            _assert_snaps_like_the_reference(
                SortedKeyBuffer(np.array(store)), [np.inf, -np.inf, 0.5, np.nan]
            )


WRITES = st.lists(
    st.tuples(st.sampled_from(["insert_at", "merge", "delete_at"]), st.integers(0, 10_000),
              st.lists(st.integers(-2_000, 2_000), min_size=1, max_size=12)),
    min_size=1,
    max_size=25,
)


@given(initial=st.lists(st.integers(-2_000, 2_000), min_size=2, max_size=200, unique=True),
       writes=WRITES)
@SETTINGS
def test_a_write_never_leaves_a_stale_directory_behind(initial, writes):
    """After every ``insert_at`` / ``merge`` / ``delete_at``, a call too
    small to rebuild the directory and one large enough to do so both see
    the new keys. Needles sit on and beside every key, old and new."""
    model = sorted(initial)
    buf = SortedKeyBuffer(np.asarray(model, dtype=np.float64))
    probes = np.arange(-2_001.0, 2_001.5, 0.5)
    buf.snap(probes)  # builds the directory
    for op, where, values in writes:
        if op == "insert_at" and values[0] not in model:
            pos = bisect.bisect_left(model, values[0])
            buf.insert_at(pos, float(values[0]))
            model.insert(pos, values[0])
        elif op == "merge" and set(values) - set(model):
            new = np.asarray(sorted(set(values) - set(model)), dtype=np.float64)
            buf.merge(np.searchsorted(buf.view, new), new)
            model = sorted(set(model) | set(values))
        elif op == "delete_at" and len(model) > 1:
            pos = where % len(model)
            buf.delete_at(pos)
            model.pop(pos)
        else:
            continue
        assert buf._directory is None
        small = probes[where % probes.size :][: max(1, len(model) // 8 - 1)]
        if small.size * 8 < len(model):
            want = _reference_snap(buf.view, small)
            assert [a.tolist() for a in buf.snap(small)] == [a.tolist() for a in want]
            assert buf._directory is None
        _assert_snaps_like_the_reference(buf, probes)
        assert buf.view.tolist() == model
