"""Merge protocol: sharded accumulators == one accumulator, always.

The sharded streaming executor's correctness rests on one algebraic
claim: folding a query stream into N accumulator sets (one per
contiguous shard), shipping each set's ``state_dict()`` across a process
boundary as JSON, rebuilding with ``from_state``, and merging in stream
order yields the *same* finalized payloads as folding the whole stream
into one set. These tests pin that claim with hypothesis-drawn shard
partitions over real driver runs (clean and faulted), plus direct unit
fuzz for the primitives (:class:`~repro.metrics._buckets.GridCounts`,
:class:`~repro.metrics.descriptive.RunningStats`).

Tolerance taxonomy (same as DESIGN.md §10): grid/integer metrics are
byte-identical under any partition; float summaries that cross the Chan
mean/variance combine or per-shard ``fsum`` partials match to 1e-9
relative tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.core.streaming import StreamBlock
from repro.faults import FaultPlan, LatencyFault, StallFault
from repro.metrics import streaming_accumulators
from repro.metrics._buckets import GridCounts
from repro.metrics.descriptive import RunningStats
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec

SLA = 0.050

#: Byte-identical under any shard partition (grid/integer derived).
EXACT_METRICS = {"throughput", "adaptability", "sla", "recovery", "adjustment_speed"}


def _scenario(faults: bool) -> Scenario:
    spec = simple_spec("steady", UniformDistribution(0, 1000), rate=150.0)
    plan = None
    if faults:
        plan = FaultPlan([
            LatencyFault(start=1.0, end=2.0, multiplier=25.0),
            StallFault(at=3.0, duration=0.5),
        ])
    return Scenario(
        name=f"merge-eq-{'faulted' if faults else 'clean'}",
        segments=[
            Segment(spec=spec, duration=2.5, label="a"),
            Segment(spec=spec, duration=2.5, label="b"),
        ],
        seed=11,
        initial_keys=np.linspace(0.0, 1000.0, 500),
        fault_plan=plan,
    )


_RUN_CACHE: dict = {}


def _reference_run(faults: bool):
    """In-memory run (cached): the ground truth column set."""
    if faults not in _RUN_CACHE:
        driver = VirtualClockDriver(DriverConfig())
        _RUN_CACHE[faults] = driver.run(TraditionalKVStore(), _scenario(faults))
    return _RUN_CACHE[faults]


def _fresh_accumulators(faults: bool):
    scenario = _scenario(faults)
    return streaming_accumulators(scenario, sla=SLA, plan=scenario.fault_plan)


def _fold_slice(accumulators, cols, lo, hi, block_size):
    """Fold ``cols[lo:hi]`` in blocks of ``block_size`` rows."""
    for b_lo in range(lo, hi, block_size):
        b_hi = min(b_lo + block_size, hi)
        block = StreamBlock(
            arrivals=cols.arrivals[b_lo:b_hi],
            starts=cols.starts[b_lo:b_hi],
            completions=cols.completions[b_lo:b_hi],
            op_codes=cols.op_codes[b_lo:b_hi],
            segment_codes=cols.segment_codes[b_lo:b_hi],
        )
        for acc in accumulators:
            acc.fold(block)


def _one_set_metrics(cols, faults: bool, horizon: float) -> dict:
    accumulators = _fresh_accumulators(faults)
    _fold_slice(accumulators, cols, 0, cols.size, cols.size or 1)
    return {acc.name: acc.finalize(horizon) for acc in accumulators}


def _assert_payloads_match(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for name, payload in got.items():
        if name in EXACT_METRICS:
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                want[name], sort_keys=True
            ), f"grid metric {name!r} observed the shard boundaries"
        else:
            _assert_close(name, payload, want[name])


def _assert_close(name, got, want, path=""):
    where = f"{name}{path}"
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            _assert_close(name, got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, item in enumerate(want):
            _assert_close(name, got[i], item, f"{path}[{i}]")
    elif isinstance(want, float):
        assert np.isclose(got, want, rtol=1e-9, atol=0.0, equal_nan=True), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@st.composite
def shard_partitions(draw, n):
    """1..5 contiguous shards over ``range(n)`` (cut points sorted)."""
    k = draw(st.integers(min_value=0, max_value=min(4, n - 1)))
    cuts = draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return [0, *sorted(cuts), n]


class TestShardMergeEquivalence:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("round_trip", [False, True], ids=["direct", "json"])
    def test_merged_shards_match_single_set(self, faults, round_trip, data):
        reference = _reference_run(faults)
        cols = reference.columns
        horizon = max(reference.segments[-1][2], float(cols.completions.max()))
        want = _one_set_metrics(cols, faults, horizon)

        bounds = data.draw(shard_partitions(cols.size))
        block_size = data.draw(st.sampled_from([1, 7, 64, 10**9]))
        merged = None
        for lo, hi in zip(bounds, bounds[1:]):
            accumulators = _fresh_accumulators(faults)
            _fold_slice(accumulators, cols, lo, hi, block_size)
            if round_trip:
                # The exact wire trip a shard payload takes: state_dict
                # -> JSON -> from_state rebuild in the parent process.
                accumulators = [
                    type(acc).from_state(json.loads(json.dumps(acc.state_dict())))
                    for acc in accumulators
                ]
            if merged is None:
                merged = accumulators
            else:
                for mine, theirs in zip(merged, accumulators):
                    mine.merge(theirs)
        got = {acc.name: acc.finalize(horizon) for acc in merged}
        _assert_payloads_match(got, want)


class TestGridCountsMerge:
    def _reference_counts(self, values, interval, start, k):
        """Bucket counts the offline way: np.histogram over the grid."""
        edges = start + interval * np.arange(k + 1)
        hist, _ = np.histogram(values, bins=edges)
        return hist

    def test_below_start_values_are_dropped_exactly(self):
        # Regression guard: values below the grid start never count
        # toward any bucket — same contract as np.histogram's below-
        # range drop — and new edges created later stay consistent.
        grid = GridCounts(interval=1.0, start=10.0)
        grid.fold(np.array([3.0, 9.999, 10.0, 10.5, 12.2]))
        edges = 10.0 + np.arange(4)  # [10, 11, 12]... buckets
        counts = grid.counts_on(edges)
        want = self._reference_counts(
            np.array([3.0, 9.999, 10.0, 10.5, 12.2]), 1.0, 10.0, 3
        )
        assert np.array_equal(counts, want)
        assert grid.count == 5  # below-start rows still count folded rows

    @given(
        values=st.lists(
            st.floats(min_value=-50.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        ),
        cut=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_fold_merge_equals_whole_fold(self, values, cut):
        data = np.asarray(values, dtype=np.float64)
        cut = min(cut, data.size)
        whole = GridCounts(interval=2.0, start=-10.0)
        whole.fold(data)
        left = GridCounts(interval=2.0, start=-10.0)
        left.fold(data[:cut])
        right = GridCounts(interval=2.0, start=-10.0)
        right.fold(data[cut:])
        left.merge(GridCounts.from_state(
            json.loads(json.dumps(right.state_dict()))
        ))
        edges = -10.0 + 2.0 * np.arange(40)
        assert np.array_equal(left.counts_on(edges), whole.counts_on(edges))
        assert np.array_equal(
            left.cumulative_on(edges), whole.cumulative_on(edges)
        )
        assert left.count == whole.count

    def test_merge_rejects_mismatched_grids(self):
        with pytest.raises(ValueError):
            GridCounts(interval=1.0).merge(GridCounts(interval=2.0))
        with pytest.raises(ValueError):
            GridCounts(interval=1.0, start=0.0).merge(
                GridCounts(interval=1.0, start=5.0)
            )


class TestRunningStatsMerge:
    @given(
        left=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            max_size=100,
        ),
        right=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            max_size=100,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_chan_combine_matches_whole_stream(self, left, right):
        both = np.asarray(left + right, dtype=np.float64)
        whole = RunningStats()
        whole.update(both)
        a = RunningStats()
        a.update(np.asarray(left, dtype=np.float64))
        b = RunningStats()
        b.update(np.asarray(right, dtype=np.float64))
        a.merge(RunningStats.from_state(
            json.loads(json.dumps(b.state_dict()))
        ))
        assert a.count == whole.count
        if whole.count:
            assert math.isclose(a.mean, whole.mean, rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(a.std, whole.std, rel_tol=1e-7, abs_tol=1e-9)
            assert a.minimum == whole.minimum
            assert a.maximum == whole.maximum
