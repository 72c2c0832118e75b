"""KS drift detector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigurationError
from repro.learned.drift_detector import DriftDetector, DriftVerdict, ks_statistics
from repro.observability import Tracer


def reference_ks(a: np.ndarray, b: np.ndarray) -> float:
    """The KS oracle: ``max |Fa - Fb|`` evaluated on the whole merged grid
    of the sorted samples ``a`` and ``b``."""
    grid = np.concatenate([a, b])
    grid.sort()
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


class TestLifecycle:
    def test_insufficient_before_first_window(self):
        det = DriftDetector(window=64)
        verdicts = {det.observe(float(i)) for i in range(63)}
        assert verdicts == {DriftVerdict.INSUFFICIENT_DATA}

    def test_stable_on_same_distribution(self, rng):
        det = DriftDetector(window=128, threshold=0.2)
        verdicts = [det.observe(float(k)) for k in rng.uniform(0, 1, 1500)]
        assert DriftVerdict.DRIFTED not in verdicts
        assert det.checks > 0

    def test_detects_abrupt_shift(self, rng):
        det = DriftDetector(window=128, threshold=0.2)
        for k in rng.uniform(0, 1, 600):
            det.observe(float(k))
        verdicts = [det.observe(float(k)) for k in rng.uniform(10, 11, 300)]
        assert DriftVerdict.DRIFTED in verdicts
        assert det.drifts_detected >= 1

    def test_reset_reference_accepts_new_normal(self, rng):
        det = DriftDetector(window=128, threshold=0.2)
        for k in rng.uniform(0, 1, 300):
            det.observe(float(k))
        det.reset_reference(rng.uniform(10, 11, 256))
        verdicts = [det.observe(float(k)) for k in rng.uniform(10, 11, 300)]
        assert DriftVerdict.DRIFTED not in verdicts

    def test_reset_without_sample_relearns(self, rng):
        det = DriftDetector(window=64, threshold=0.2)
        for k in rng.uniform(0, 1, 100):
            det.observe(float(k))
        det.reset_reference()
        assert det.observe(0.5) == DriftVerdict.INSUFFICIENT_DATA


class TestSensitivity:
    def test_small_shift_below_threshold_ignored(self, rng):
        det = DriftDetector(window=256, threshold=0.5)
        for k in rng.uniform(0, 1, 600):
            det.observe(float(k))
        verdicts = [det.observe(float(k)) for k in rng.uniform(0.05, 1.05, 600)]
        assert DriftVerdict.DRIFTED not in verdicts

    def test_gradual_drift_eventually_detected(self, rng):
        det = DriftDetector(window=128, threshold=0.3)
        drifted = False
        for step in range(30):
            shift = step * 0.3
            for k in rng.uniform(shift, shift + 1, 128):
                if det.observe(float(k)) == DriftVerdict.DRIFTED:
                    drifted = True
        assert drifted


class TestValidation:
    def test_rejects_small_window(self):
        with pytest.raises(ConfigurationError):
            DriftDetector(window=8)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            DriftDetector(threshold=1.5)


class TestDescribe:
    def test_exposes_threshold_and_window(self):
        det = DriftDetector(window=64, threshold=0.3)
        desc = det.describe()
        assert desc["kind"] == "DriftDetector"
        assert desc["window"] == 64
        assert desc["threshold"] == 0.3
        assert desc["checks"] == 0
        assert desc["drifts_detected"] == 0

    def test_counters_track_live_state(self, rng):
        det = DriftDetector(window=64, threshold=0.2)
        for k in rng.uniform(0, 1, 200):
            det.observe(float(k))
        det.observe_many(rng.uniform(10, 11, 128))
        desc = det.describe()
        assert desc["checks"] == det.checks > 0
        assert desc["drifts_detected"] == det.drifts_detected >= 1

    def test_describe_is_json_safe(self):
        import json

        json.dumps(DriftDetector().describe())


def _keys(width: int):
    """Continuous keys, or integer keys that tie often inside a sample
    and across the two samples; now and then an infinity or a NaN."""
    return st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64),
        st.integers(0, width).map(float),
        st.sampled_from([np.inf, -np.inf, np.nan, -0.0]),
    )


@st.composite
def _ks_case(draw):
    width = draw(st.sampled_from([3, 12, 1000]))
    size = draw(st.integers(1, 96))
    rows = draw(st.integers(1, 8))
    reference = draw(hnp.arrays(np.float64, draw(st.integers(1, 160)), elements=_keys(width)))
    windows = draw(hnp.arrays(np.float64, (rows, size), elements=_keys(width)))
    if draw(st.booleans()):
        # Row keys drawn from the reference: ties across the samples.
        picks = draw(hnp.arrays(np.intp, (rows, size), elements=st.integers(0, reference.size - 1)))
        windows = np.where(draw(hnp.arrays(bool, (rows, size))), reference[picks], windows)
    return np.sort(reference), np.sort(windows, axis=1)


class TestKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=_ks_case())
    def test_every_row_equals_the_merged_grid_bit_for_bit(self, case):
        reference, windows = case
        got = ks_statistics(reference, windows)
        want = np.array([reference_ks(reference, row) for row in windows])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize(
        "reference, row, expected",
        [
            # Only the left limit of 5 sees Fa = 1 against Fb = 0.
            ([1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0], 1.0),
            # Three tied 1s count as one grid point at Fb = 0.75.
            ([1.0, 2.0], [1.0, 1.0, 1.0, 3.0], 0.25),
            # A tie inside the row sitting on a tie inside the reference.
            ([1.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0], 0.375),
        ],
    )
    def test_pinned_ties(self, reference, row, expected):
        reference, row = np.array(reference), np.array(row)
        assert reference_ks(reference, row) == expected
        assert ks_statistics(reference, row[None, :])[0] == expected


def _feed(detector: DriftDetector, keys: np.ndarray, cuts) -> bool:
    drifted = False
    for a, b in zip(cuts[:-1], cuts[1:]):
        drifted |= detector.observe_many(keys[a:b])
    return drifted


def _state(detector: DriftDetector, tracer: Tracer):
    counters = tracer.counters
    return (
        detector.checks,
        detector.drifts_detected,
        counters.get("drift.checks"),
        counters.get("drift.drifts_detected"),
        detector.last_window().tobytes(),
    )


def _pair(window: int = 32):
    detectors = []
    for _ in range(2):
        tracer = Tracer()
        detector = DriftDetector(window=window, threshold=0.25)
        detector.tracer = tracer
        detectors.append((detector, tracer))
    return detectors


def _drifting_keys(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shift = np.repeat(rng.uniform(0, 3, 1 + n // 90), 90)[:n]
    keys = rng.normal(shift, 0.3)
    return np.round(keys, 1) if seed % 2 else keys


class TestObserveManyEqualsObserveLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(0, 400),
        cuts=st.lists(st.integers(0, 400), max_size=12),
        reset_at=st.one_of(st.none(), st.integers(0, 400)),
        with_sample=st.booleans(),
    )
    def test_any_chunking(self, seed, n, cuts, reset_at, with_sample):
        keys = _drifting_keys(seed, n)
        (batched, batched_tracer), (looped, looped_tracer) = _pair()
        sample = _drifting_keys(seed + 1, 50) if with_sample else None
        reset_at = None if reset_at is None else min(reset_at, n)
        bounds = sorted({0, n, *(min(c, n) for c in cuts)})
        if reset_at is not None:
            bounds = sorted({*bounds, reset_at})
        any_batched = any_looped = False
        for a, b in zip(bounds[:-1], bounds[1:]):
            if a == reset_at:
                batched.reset_reference(sample)
                looped.reset_reference(sample)
            any_batched |= batched.observe_many(keys[a:b])
            for key in keys[a:b]:
                any_looped |= looped.observe(key) == DriftVerdict.DRIFTED
        assert any_batched == any_looped
        assert _state(batched, batched_tracer) == _state(looped, looped_tracer)

    @pytest.mark.parametrize(
        "cuts",
        [
            [0, 20, 300],  # first window adopted in the middle of a chunk
            [0, 32, 64, 300],  # chunks that end exactly on window edges
            [0, 300],  # one chunk: adoption plus every check in one call
            [0, 31, 33, 95, 96, 300],
        ],
        ids=["adopt-mid-chunk", "window-edges", "one-chunk", "off-by-one"],
    )
    def test_pinned_chunkings(self, cuts):
        keys = _drifting_keys(3, 300)
        (batched, batched_tracer), (looped, looped_tracer) = _pair()
        drifted = _feed(batched, keys, cuts)
        verdicts = [looped.observe(key) for key in keys]
        assert drifted == (DriftVerdict.DRIFTED in verdicts)
        assert _state(batched, batched_tracer) == _state(looped, looped_tracer)
        assert batched.checks == 300 // 32 - 1
        assert batched.drifts_detected > 0

    def test_reset_with_and_without_a_sample(self):
        keys = _drifting_keys(4, 400)
        (batched, batched_tracer), (looped, looped_tracer) = _pair()
        for sample in (keys[:40], None, keys[200:260]):
            batched.observe_many(keys[:150])
            for key in keys[:150]:
                looped.observe(key)
            assert _state(batched, batched_tracer) == _state(looped, looped_tracer)
            batched.reset_reference(sample)
            looped.reset_reference(sample)
            assert batched.last_window().size == 0
        assert _state(batched, batched_tracer) == _state(looped, looped_tracer)

    def test_last_window_is_a_copy_of_the_filled_prefix(self):
        det = DriftDetector(window=16)
        det.observe_many(np.arange(20.0))
        window = det.last_window()
        assert window.tolist() == [16.0, 17.0, 18.0, 19.0]
        window[:] = -1.0
        assert det.last_window().tolist() == [16.0, 17.0, 18.0, 19.0]
