"""Sharded streaming: plan shapes, merge equivalence, crash recovery.

``Benchmark.run_sharded_streaming`` is one session on the dispatcher a
:class:`~repro.core.tenancy.BenchmarkServer` window runs its tenants on,
so both surfaces are held to the same summaries and failure rules here.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.core.sharded import plan_shards
from repro.core.streaming import (
    ShardSpec,
    StreamingRunSummary,
    load_spilled_columns,
)
from repro.core.tenancy import BenchmarkServer, TenantSpec
from repro.errors import ConfigurationError, RunnerError
from repro.observability import Tracer
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


def _multi_segment_scenario(n_segments=2, rate=150.0, duration=2.0):
    spec = simple_spec("steady", UniformDistribution(0, 1000), rate=rate)
    labels = "abcdefgh"
    return Scenario(
        name="shard-smoke",
        segments=[
            Segment(spec=spec, duration=duration, label=labels[i])
            for i in range(n_segments)
        ],
        seed=3,
        initial_keys=np.linspace(0.0, 1000.0, 500),
    )


def _single_segment_scenario(rate=200.0, duration=4.0):
    spec = simple_spec("steady", UniformDistribution(0, 1000), rate=rate)
    return Scenario(
        name="shard-single",
        segments=[Segment(spec=spec, duration=duration, label="only")],
        seed=7,
        initial_keys=np.linspace(0.0, 1000.0, 500),
    )


def _assert_metrics_match(reference, merged, path="metrics"):
    """Recursive metric equality: ints/strings exact, floats to 1e-9.

    Integer-count payloads (grid counts, bands, histograms) must be
    bit-identical under any shard plan; float summaries that pass
    through the Chan mean/variance combine (latency mean/std, segment
    mean latency) may drift by a ULP, so those compare to relative
    tolerance. See DESIGN.md §10 for the taxonomy.
    """
    if isinstance(reference, dict):
        assert isinstance(merged, dict) and set(reference) == set(merged), path
        for key in reference:
            _assert_metrics_match(reference[key], merged[key], f"{path}.{key}")
    elif isinstance(reference, (list, tuple)):
        assert len(reference) == len(merged), path
        for i, (a, b) in enumerate(zip(reference, merged)):
            _assert_metrics_match(a, b, f"{path}[{i}]")
    elif isinstance(reference, float):
        assert merged == pytest.approx(reference, rel=1e-9, abs=1e-12), (
            f"{path}: {reference!r} != {merged!r}"
        )
    else:
        assert reference == merged, f"{path}: {reference!r} != {merged!r}"


def _crashing_factory(marker):
    # First worker to run dies hard (no exception, no pipe message);
    # every later attempt finds the marker and builds a real SUT.
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(3)
    return TraditionalKVStore()


def _failing_factory():
    raise ValueError("boom")


def _run_sharded(sut_factory, scenario, shards=2, **kwargs):
    return Benchmark().run_sharded_streaming(
        sut_factory, scenario, shards=shards, **kwargs
    )


class _SummingAccumulator:
    """Minimal custom accumulator implementing the merge protocol."""

    name = "summing"

    def __init__(self, total=0):
        self.total = int(total)

    def fold(self, block):
        self.total += len(block)

    def merge(self, other):
        self.total += other.total

    def state_dict(self):
        return {"total": self.total}

    @classmethod
    def from_state(cls, state):
        return cls(state["total"])

    def finalize(self, horizon):
        return {"total": self.total}


def _summing_factory(scenario):
    return [_SummingAccumulator()]


class _NoProtocolAccumulator:
    name = "no-protocol"

    def fold(self, block):
        pass

    def finalize(self, horizon):
        return {}


def _no_protocol_factory(scenario):
    return [_NoProtocolAccumulator()]


class TestPlanShards:
    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_shards(_multi_segment_scenario(), 0)

    def test_one_shard_is_the_whole_scenario(self):
        plan = plan_shards(_multi_segment_scenario(3), 1)
        assert plan == [ShardSpec(0, 1, 0, 3)]

    def test_segment_plan_is_contiguous_and_capped(self):
        scenario = _multi_segment_scenario(3)
        plan = plan_shards(scenario, 8)  # more shards than segments
        assert len(plan) == 3
        assert plan[0].segment_lo == 0
        assert plan[-1].segment_hi == 3
        for previous, following in zip(plan, plan[1:]):
            assert previous.segment_hi == following.segment_lo
        assert all(spec.arrival_lo is None for spec in plan)

    def test_single_segment_plan_slices_arrivals(self):
        scenario = _single_segment_scenario(rate=200.0, duration=4.0)
        plan = plan_shards(scenario, 4)
        assert len(plan) == 4
        assert plan[0].arrival_lo == 0
        assert plan[-1].arrival_hi == 800
        for previous, following in zip(plan, plan[1:]):
            assert previous.arrival_hi == following.arrival_lo

    def test_plan_is_deterministic(self):
        scenario = _multi_segment_scenario(4)
        assert plan_shards(scenario, 3) == plan_shards(scenario, 3)

    def test_shard_spec_round_trips(self):
        for spec in (ShardSpec(1, 4, 0, 1, 25, 50), ShardSpec(0, 2, 0, 3)):
            assert ShardSpec.from_dict(spec.to_dict()) == spec


class TestMergeEquivalence:
    def _reference(self, scenario):
        return VirtualClockDriver(DriverConfig()).run_streaming(
            TraditionalKVStore(), scenario
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_segment_sharded_run_matches_unsharded(self, shards):
        scenario_builder = partial(_multi_segment_scenario, 4)
        reference = self._reference(scenario_builder())
        merged = _run_sharded(
            TraditionalKVStore, scenario_builder(), shards=shards
        )
        assert merged.num_queries == reference.num_queries
        assert merged.op_counts == reference.op_counts
        assert merged.segment_counts == reference.segment_counts
        assert merged.max_completion == reference.max_completion
        _assert_metrics_match(reference.metrics, merged.metrics)
        assert merged.sharding is not None
        assert merged.sharding["boundaries_drained"] is True
        assert merged.sharding["shards"] == shards
        assert sum(merged.sharding["shard_queries"]) == merged.num_queries

    def test_arrival_sliced_run_matches_unsharded(self):
        reference = self._reference(_single_segment_scenario())
        merged = _run_sharded(
            TraditionalKVStore, _single_segment_scenario(), shards=3
        )
        assert merged.num_queries == reference.num_queries
        assert merged.op_counts == reference.op_counts
        assert merged.segment_counts == reference.segment_counts
        # The btree SUT's service times are stateless, so even float
        # summaries agree bit-for-bit here; integer counts always must.
        _assert_metrics_match(reference.metrics, merged.metrics)

    def test_benchmark_facade_runs_sharded(self):
        bench = Benchmark(BenchmarkConfig())
        merged = bench.run_sharded_streaming(
            TraditionalKVStore, _multi_segment_scenario(), shards=2
        )
        reference = self._reference(_multi_segment_scenario())
        assert merged.num_queries == reference.num_queries
        _assert_metrics_match(reference.metrics, merged.metrics)

    def test_run_hands_its_tracer_to_the_pool(self):
        tracer = Tracer()
        traced = Benchmark(tracer=tracer).run_sharded_streaming(
            TraditionalKVStore, _multi_segment_scenario(), shards=2
        )
        plain = _run_sharded(TraditionalKVStore, _multi_segment_scenario())
        assert tracer.counters["pool.forks"] == 2
        assert tracer.counters["pool.attempts.ok"] == 2
        assert traced.to_dict() == plain.to_dict()

    def test_merged_spill_reassembles_in_arrival_order(self, tmp_path):
        reference_dir = tmp_path / "reference"
        sharded_dir = tmp_path / "sharded"
        VirtualClockDriver(DriverConfig()).run_streaming(
            TraditionalKVStore(),
            _multi_segment_scenario(3),
            spill_dir=str(reference_dir),
        )
        merged = _run_sharded(
            TraditionalKVStore,
            _multi_segment_scenario(3),
            shards=3,
            spill_dir=str(sharded_dir),
        )
        assert merged.spill is not None and merged.spill["sharded"] is True
        # The column encoding is each shard directory's own business:
        # the merged manifest names directories, theirs name the encoding.
        assert "encoding" not in merged.spill
        for entry in merged.spill["shards"]:
            sub = json.loads(
                (sharded_dir / entry["directory"] / "manifest.json").read_text()
            )
            assert sub["encoding"] == "fifo-planes"
        reference = load_spilled_columns(reference_dir)
        stitched = load_spilled_columns(sharded_dir)
        assert stitched.op_vocab == reference.op_vocab
        assert stitched.segment_vocab == reference.segment_vocab
        for name in (
            "arrivals", "starts", "completions", "op_codes", "segment_codes",
        ):
            assert np.array_equal(
                getattr(stitched, name), getattr(reference, name)
            ), f"column {name!r} diverged after shard merge"

    def test_summary_round_trips_with_sharding(self):
        merged = _run_sharded(
            TraditionalKVStore, _multi_segment_scenario(), shards=2
        )
        payload = json.loads(json.dumps(merged.to_dict()))
        clone = StreamingRunSummary.from_dict(payload)
        assert clone.sharding == merged.sharding
        assert clone.num_queries == merged.num_queries
        assert clone.metrics == merged.metrics

    def test_unsharded_summary_omits_sharding_key(self):
        summary = self._reference(_multi_segment_scenario())
        assert summary.sharding is None
        assert "sharding" not in summary.to_dict()

    def test_custom_accumulator_protocol_is_honored(self):
        merged = _run_sharded(
            TraditionalKVStore,
            _multi_segment_scenario(),
            shards=2,
            accumulator_factory=_summing_factory,
        )
        assert merged.metrics["summing"]["total"] == merged.num_queries

    def test_accumulator_without_protocol_rejected_up_front(self):
        with pytest.raises(ConfigurationError, match="merge protocol"):
            _run_sharded(
                TraditionalKVStore,
                _multi_segment_scenario(),
                accumulator_factory=_no_protocol_factory,
            )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_one_tenant_window_matches_the_facade(self, shards):
        report = BenchmarkServer(retry_backoff=0.0).serve(
            [
                TenantSpec(
                    name="only",
                    sut_factory=TraditionalKVStore,
                    scenario=_multi_segment_scenario(4),
                    shards=shards,
                )
            ],
            sla=0.01,
        )
        merged = _run_sharded(
            TraditionalKVStore, _multi_segment_scenario(4), shards, sla=0.01
        )
        assert report.tenant("only").summary.to_dict() == merged.to_dict()


class TestCrashRecovery:
    def test_crashed_shard_retries_and_merges_clean(self, tmp_path):
        marker = tmp_path / "crashed-once"
        reference = VirtualClockDriver(DriverConfig()).run_streaming(
            TraditionalKVStore(), _multi_segment_scenario()
        )
        merged = _run_sharded(
            partial(_crashing_factory, str(marker)),
            _multi_segment_scenario(),
            shards=2,
            max_attempts=3,
        )
        assert marker.exists()
        assert sum(merged.sharding["attempts"]) > merged.sharding["shards"]
        assert merged.num_queries == reference.num_queries
        _assert_metrics_match(reference.metrics, merged.metrics)

    def test_exhausted_retry_budget_raises(self):
        with pytest.raises(RunnerError, match="failed after"):
            _run_sharded(
                _failing_factory,
                _multi_segment_scenario(),
                shards=2,
                max_attempts=1,
            )

    def test_one_shard_retries_then_raises_like_many(self):
        calls = []

        def failing_factory():
            calls.append(None)
            raise ValueError("boom")

        # One shard runs inline (one pool slot, no deadline), so the
        # factory's calls are counted here: one per attempt, none before.
        with pytest.raises(
            RunnerError, match="shard 0 failed after 2 attempts: ValueError: boom"
        ):
            _run_sharded(
                failing_factory, _multi_segment_scenario(), 1, max_attempts=2
            )
        assert len(calls) == 2
