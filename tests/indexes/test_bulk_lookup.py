"""``bulk_lookup`` must count exactly what per-key ``get`` counts.

The batched SUT path swaps a loop of scalar ``get`` calls for one
``bulk_lookup``; its contract is *stat equality*, not just value
equality — the per-key comparison / node-access / model-evaluation
tuples feed the cost model, so any drift changes measured service
times. Each test builds twin instances of an index, runs one through
scalar gets (diffing stats around each call) and the other through
``bulk_lookup``, and demands identical per-key tuples and totals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.indexes.alex import AdaptiveLearnedIndex
from repro.indexes.base import sorted_unique_pairs
from repro.indexes.btree import BPlusTree
from repro.indexes.pgm import PGMIndex
from repro.indexes.rmi import RecursiveModelIndex
from repro.indexes.sorted_array import SortedArrayIndex

FACTORIES = {
    "sorted_array": lambda: SortedArrayIndex(),
    "btree": lambda: BPlusTree(),
    "rmi": lambda: RecursiveModelIndex(fanout=16),
    "pgm": lambda: PGMIndex(epsilon=8),
    "alex": lambda: AdaptiveLearnedIndex(),
}


def _loaded(factory, keys):
    index = factory()
    index.bulk_load([(float(k), i) for i, k in enumerate(keys)])
    return index


def _scalar_counts(index, probe):
    """Per-key (comparisons, node_accesses, model_evals) via scalar gets."""
    rows = []
    for key in probe:
        before = index.stats.snapshot()
        index.get(float(key))
        diff = index.stats.diff(before)
        rows.append(
            (diff.comparisons, diff.node_accesses, diff.model_evaluations)
        )
    return rows


@pytest.fixture
def keys():
    rng = np.random.default_rng(17)
    return np.unique(rng.uniform(0.0, 1e6, 3000))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_bulk_matches_scalar_stats(name, keys):
    factory = FACTORIES[name]
    rng = np.random.default_rng(5)
    probe = rng.choice(keys, size=500)

    scalar_index = _loaded(factory, keys)
    scalar_rows = _scalar_counts(scalar_index, probe)

    bulk_index = _loaded(factory, keys)
    baseline = bulk_index.stats.snapshot()
    out = bulk_index.bulk_lookup(np.asarray(probe, dtype=np.float64))
    assert out is not None, f"{name}: bulk_lookup unsupported on a clean load"
    comps, node_accesses, model_evals = out
    bulk_rows = list(
        zip(comps.tolist(), node_accesses.tolist(), model_evals.tolist())
    )
    assert bulk_rows == scalar_rows

    # Committed totals equal the summed per-key counts.
    total = bulk_index.stats.diff(baseline)
    assert total.lookups == probe.size
    assert total.comparisons == scalar_index.stats.comparisons
    assert total.node_accesses == scalar_index.stats.node_accesses
    assert total.model_evaluations == scalar_index.stats.model_evaluations


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_bulk_miss_returns_none_without_stats(name, keys):
    index = _loaded(FACTORIES[name], keys)
    before = index.stats.snapshot()
    probe = np.asarray([float(keys[0]), -1234.5])  # second key absent
    assert index.bulk_lookup(probe) is None
    diff = index.stats.diff(before)
    assert diff.lookups == 0
    assert diff.comparisons == 0
    assert diff.node_accesses == 0
    assert diff.model_evaluations == 0


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_bulk_after_mutation_stays_exact(name, keys):
    """Inserts/deletes invalidate caches; bulk must still match scalar."""
    factory = FACTORIES[name]

    def mutate(index):
        for k in (7.5, 11.25, 13.0):
            index.insert(k, "new")
        index.delete(float(keys[10]))

    probe_keys = np.asarray([7.5, 11.25, 13.0, float(keys[0]), float(keys[50])])

    scalar_index = _loaded(factory, keys)
    mutate(scalar_index)
    scalar_rows = _scalar_counts(scalar_index, probe_keys)

    bulk_index = _loaded(factory, keys)
    mutate(bulk_index)
    out = bulk_index.bulk_lookup(probe_keys)
    if out is None:
        # Tombstones / delta buffers may legitimately disable the fast
        # path; the SUT then falls back to scalar gets, which is what
        # the driver equivalence tests cover.
        return
    comps, node_accesses, model_evals = out
    assert (
        list(zip(comps.tolist(), node_accesses.tolist(), model_evals.tolist()))
        == scalar_rows
    )


def test_empty_index_unsupported():
    for name, factory in FACTORIES.items():
        index = factory()
        assert index.bulk_lookup(np.asarray([1.0])) is None, name


# -- the rank hint is untrusted: it may save a search, never change an answer ----

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
STORED = st.lists(
    st.integers(min_value=0, max_value=600), min_size=1, max_size=200, unique=True
)
PICKS = st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60)


def _call(index, probe, *hint):
    """One ``bulk_lookup``: its arrays as lists, and the whole stats delta."""
    before = index.stats.snapshot()
    out = index.bulk_lookup(probe, *hint)
    delta = index.stats.diff(before)
    return (None if out is None else [col.tolist() for col in out]), delta


def _hints(ranks, n, rng):
    """A correct hint, then every way a caller could get one wrong."""
    shuffled = rng.permutation(ranks)
    return {
        "correct": ranks,
        "correct int32": ranks.astype(np.int32),
        "correct uint64": ranks.astype(np.uint64),
        "off by one up": ranks + 1,
        "off by one down": ranks - 1,
        "one negative": np.where(np.arange(ranks.size) == 0, -1, ranks),
        "one past the end": np.where(np.arange(ranks.size) == ranks.size - 1, n, ranks),
        "far out of range": np.full(ranks.size, 2**40),
        "too short": ranks[:-1],
        "too long": np.append(ranks, ranks[-1]),
        "two dimensional": ranks.reshape(1, -1),
        "float dtype": ranks.astype(np.float64),
        "bool dtype": ranks.astype(bool),
        "a list": ranks.tolist(),
        "another key set": shuffled,
        "all zero": np.zeros_like(ranks),
    }


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(stored=STORED, picks=PICKS, seed=st.integers(0, 2**16))
@SETTINGS
def test_hint_never_changes_the_answer(name, stored, picks, seed):
    stored = sorted(stored)
    ranks = np.asarray([p % len(stored) for p in picks], dtype=np.intp)
    probe = np.asarray(stored, dtype=np.float64)[ranks]

    scalar_index = _loaded(FACTORIES[name], stored)
    scalar_rows = _scalar_counts(scalar_index, probe)
    index = _loaded(FACTORIES[name], stored)
    plain, plain_delta = _call(index, probe)
    assert plain is not None
    assert list(zip(*plain)) == scalar_rows
    assert plain_delta.last_search_window == scalar_index.stats.last_search_window
    for label, hint in _hints(ranks, len(stored), np.random.default_rng(seed)).items():
        assert _call(index, probe, hint) == (plain, plain_delta), label
    assert index.bulk_lookup(probe, ranks=ranks) is not None  # also by keyword


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(stored=STORED, picks=PICKS, absent_at=st.integers(0, 10_000))
@SETTINGS
def test_one_absent_key_is_none_whatever_the_hint(name, stored, picks, absent_at):
    stored = sorted(stored)
    ranks = np.asarray([p % len(stored) for p in picks], dtype=np.intp)
    probe = np.asarray(stored, dtype=np.float64)[ranks]
    probe[absent_at % probe.size] += 0.5  # stored keys are whole numbers
    index = _loaded(FACTORIES[name], stored)
    untouched = index.stats.snapshot()
    for label, hint in _hints(ranks, len(stored), np.random.default_rng(0)).items():
        assert index.bulk_lookup(probe, hint) is None, label
        assert index.stats == untouched, label
    assert index.bulk_lookup(probe) is None
    assert index.stats == untouched


@given(stored=STORED, extra=STORED, picks=PICKS)
@SETTINGS
def test_rmi_hint_with_a_live_delta_buffer(stored, extra, picks):
    """With buffered inserts the caller's ranks count keys the learned
    array does not hold yet: the hint must fail verification, not shift
    the search window of the keys behind the first buffered one."""

    def loaded():
        index = RecursiveModelIndex(fanout=8, max_delta=None)
        index.bulk_load([(float(k), i) for i, k in enumerate(sorted(stored))])
        for k in extra:
            index.insert(k + 0.5, "buffered")  # new keys
            index.insert(float(k), "shadowed")  # buffered or overwriting
        return index

    everything = sorted(set(map(float, stored)) | {float(k) for k in extra}
                        | {k + 0.5 for k in extra})
    ranks = np.asarray([p % len(everything) for p in picks], dtype=np.intp)
    probe = np.asarray(everything)[ranks]
    index = loaded()
    assert index.delta_size > 0
    plain, plain_delta = _call(index, probe)
    assert plain is not None
    assert list(zip(*plain)) == _scalar_counts(loaded(), probe)
    for label, hint in _hints(ranks, len(everything), np.random.default_rng(1)).items():
        assert _call(index, probe, hint) == (plain, plain_delta), label


# -- one load-time sort for all five structures ----------------------------------


def _reference_sorted_unique(pairs):
    """The loop every ``bulk_load`` used to carry: sort, last value wins."""
    out = []
    for k, v in sorted(pairs, key=lambda kv: kv[0]):
        if out and out[-1][0] == k:
            out[-1] = (k, v)
        else:
            out.append((k, v))
    return out


MESSY = st.lists(
    st.tuples(st.integers(min_value=-50, max_value=50), st.integers()), max_size=120
)


@given(pairs=MESSY)
@SETTINGS
def test_sorted_unique_pairs_is_the_reference_loop(pairs):
    pairs = [(k / 4.0, v) for k, v in pairs]
    keys, values = sorted_unique_pairs(pairs)
    assert keys.dtype == np.float64
    assert list(zip(keys.tolist(), values)) == _reference_sorted_unique(pairs)
    tagged = [(k, object()) for k, _ in pairs]  # values come back by identity
    assert all(
        got is want
        for got, (_, want) in zip(
            sorted_unique_pairs(tagged)[1], _reference_sorted_unique(tagged)
        )
    )


@pytest.mark.parametrize("name", sorted(FACTORIES))
@given(pairs=MESSY)
@SETTINGS
def test_bulk_load_of_unsorted_duplicated_input(name, pairs):
    """Shuffled input with repeats loads exactly what its sorted, deduped
    form loads: contents, counters, and the trained state lookups price."""
    pairs = [(k / 4.0, v) for k, v in pairs]
    reference = _reference_sorted_unique(pairs)
    messy, clean = FACTORIES[name](), FACTORIES[name]()
    messy.bulk_load(pairs)
    clean.bulk_load(reference)
    assert messy.stats == clean.stats
    assert messy.stats.inserts == len(reference)
    # (``items`` is a counted range scan on the delta-buffered structures.)
    assert list(messy.items()) == list(clean.items()) == reference
    assert len(messy) == len(reference)
    assert messy.size_bytes() == clean.size_bytes()
    probe = np.asarray([k for k, _ in reference], dtype=np.float64)
    assert _call(messy, probe) == _call(clean, probe)
    assert _scalar_counts(messy, probe) == _scalar_counts(clean, probe)
