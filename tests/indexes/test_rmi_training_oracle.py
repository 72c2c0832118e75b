"""RMI training against the per-leaf mask loop it replaced.

``tests/indexes/reference_rmi.py`` keeps the loop that masked every leaf
out of the whole key array. Both indexes load the same keys and go
through the same retrains — access-sample ones (quantiles that repeat
leave leaves empty), delta merges that keep or drop the sample's
boundaries, fanout changes — and after each the learned state must
agree bit for bit: the root model, the boundaries, every leaf model and
every error bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from tests.indexes import reference_rmi

from repro.indexes import rmi
from repro.indexes.rmi import RecursiveModelIndex

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
FINITE = st.floats(-1e6, 1e6, allow_nan=False)
# Coarse grids repeat keys (deduped on load) and sample quantiles.
KEY = st.one_of(FINITE, st.integers(-50, 50).map(float))
SAMPLE = st.lists(
    st.one_of(KEY, st.sampled_from([0.0, 0.0, 7.0])), min_size=0, max_size=80
)
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("sample"), SAMPLE),
        st.tuples(st.just("insert"), st.lists(KEY, min_size=1, max_size=30)),
        st.tuples(st.just("delete"), st.integers(0, 10_000)),
        st.tuples(st.just("retrain"), st.none()),
        st.tuples(st.just("fanout"), st.integers(1, 90)),
    ),
    max_size=8,
)


def _bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _model_bits(model) -> list:
    return None if model is None else _bits([model.slope, model.intercept])


def _assert_same_state(got, ref) -> None:
    assert _bits(got._keys) == _bits(ref._keys)
    assert _model_bits(got._root) == _model_bits(ref._root)
    assert (got._boundaries is None) == (ref._boundaries is None)
    if ref._boundaries is not None:
        assert _bits(got._boundaries) == _bits(ref._boundaries)
    assert [_model_bits(m) for m in got._leaves] == [
        _model_bits(m) for m in ref._leaves
    ]
    assert got._errors == ref._errors


def _pair(fanout: int):
    return (
        RecursiveModelIndex(fanout=fanout, max_delta=None),
        reference_rmi.MaskTrainedRMI(fanout=fanout, max_delta=None),
    )


def _load(indexes, keys) -> None:
    pairs = [(float(k), i) for i, k in enumerate(keys)]
    for index in indexes:
        index.bulk_load(pairs)
    _assert_same_state(*indexes)


def _retrain(indexes, sample=None) -> None:
    for index in indexes:
        index.retrain(None if sample is None else np.asarray(sample, dtype=np.float64))
    _assert_same_state(*indexes)


@SETTINGS
@given(
    keys=st.lists(KEY, min_size=0, max_size=300),
    fanout=st.integers(1, 90),
    actions=ACTIONS,
)
def test_training_matches_the_mask_loop(keys, fanout, actions):
    indexes = _pair(fanout)
    _load(indexes, keys)
    for action, arg in actions:
        if action == "sample":
            _retrain(indexes, arg)
        elif action == "insert":
            for index in indexes:
                for key in arg:
                    index.insert(key, "v")
            _retrain(indexes)
        elif action == "delete":
            stored = indexes[0]._keys
            if stored.size:
                key = float(stored[arg % stored.size])
                for index in indexes:
                    index.delete(key)
                _retrain(indexes)
        elif action == "retrain":
            _retrain(indexes)
        else:
            for index in indexes:
                index.set_fanout(arg)
            _retrain(indexes)


def test_repeated_sample_quantiles_leave_leaves_empty():
    indexes = _pair(16)
    _load(indexes, np.linspace(0.0, 100.0, 500))
    _retrain(indexes, [5.0] * 40 + [60.0] * 40)
    errors = indexes[0]._errors
    assert (0, 0) in errors and max(lo + hi for lo, hi in errors) > 0


def test_delta_merge_keeps_the_sample_boundaries_across_a_fanout_change():
    indexes = _pair(32)
    _load(indexes, np.linspace(0.0, 100.0, 400))
    _retrain(indexes, np.linspace(20.0, 40.0, 64))
    # Fewer leaves than the kept boundaries route to: the tail leaves
    # out of range belong to no leaf, on both sides.
    for index in indexes:
        index.set_fanout(8)
        index.insert(55.5, "x")
    _retrain(indexes)
    assert len(indexes[0]._leaves) == 8


@pytest.mark.parametrize("fanout", [1, 3, 50, 5000])
def test_fanout_one_and_fanout_beyond_the_keys(fanout):
    keys = np.random.default_rng(fanout).uniform(0.0, 1e4, 40)
    indexes = _pair(fanout)
    _load(indexes, keys)
    _retrain(indexes, np.sort(keys)[::3])


@pytest.mark.parametrize(
    "keys",
    [
        [0.0, 1.0, 2.0, np.inf],
        [-np.inf, 0.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, np.nan, 4.0],
        [-1.7e308, 0.0, 1.7e308],
    ],
    ids=["inf", "-inf", "nan", "huge"],
)
def test_non_finite_keys(keys):
    indexes = _pair(4)
    with np.errstate(all="ignore"):
        _load(indexes, keys)
        _retrain(indexes, [0.0, 1.0, 2.0, 3.0, 4.0])
        _retrain(indexes, [0.5] * 8)


def test_a_non_monotone_root_groups_leaves_by_a_stable_sort(monkeypatch):
    """A root that routes sorted keys out of order takes the argsort path.

    Both indexes get a root with its slope negated, so the clipped leaf
    ids run backwards; each leaf must still get its keys in key order.
    """

    def negated_root(fit):
        def patched(keys, positions):
            model = fit(keys, positions)
            if not np.array_equal(positions, np.round(positions)):  # the root
                return type(model)(-model.slope, model.intercept + 8.0)
            return model

        return patched

    monkeypatch.setattr(rmi, "fit_linear", negated_root(rmi.fit_linear))
    monkeypatch.setattr(
        reference_rmi, "fit_linear", negated_root(reference_rmi.fit_linear)
    )
    indexes = _pair(8)
    _load(indexes, np.linspace(0.0, 100.0, 300))
    assignments = indexes[0]._root.predict_array(indexes[0]._keys)
    assert (np.diff(assignments) < 0).all()
    assert sum(lo + hi > 0 for lo, hi in indexes[0]._errors) > 1
