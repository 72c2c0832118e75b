"""Trace replay end-to-end: bit-identity, cache keys, golden round trip.

The replay contract is that a recorded trace flows through the driver —
batched, streaming, and the scalar oracle — and produces the *same* executed
columns: arrivals equal to the recorded timestamps, op codes and keys
equal to the recorded rows. On top sits the round-trip closer: fit a
synthetic generator to the fixture trace and pin its divergence report
(KS over keys, TV over ops, arrival-rate error) against a checked-in
golden JSON, exact-float comparison.

Regenerate the golden after an *intentional* change with::

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_trace_replay.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from tests.reference_driver import ScalarReferenceDriver

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.runner import job_cache_key, matrix_jobs
from repro.core.scenario import Scenario
from repro.core.streaming import load_spilled_columns
from repro.errors import ConfigurationError
from repro.serialization import spec_from_dict
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.generators import KV_OPERATIONS
from repro.workloads.trace import (
    QueryTrace,
    load_trace,
    round_trip,
    trace_spec,
)

FIXTURE = Path(__file__).parent.parent / "fixtures" / "trace_small.csv"
GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_round_trip.json"

COLUMNS = ("arrivals", "starts", "completions", "op_codes", "segment_codes")


@pytest.fixture(scope="module")
def fixture_trace() -> QueryTrace:
    return load_trace(FIXTURE)


@pytest.fixture(scope="module")
def replay_scenario(fixture_trace) -> Scenario:
    return Scenario.from_trace(
        fixture_trace, initial_keys=np.unique(fixture_trace.keys)
    )


def _assert_payload_equal(golden, fresh, path="$"):
    """Exact recursive equality; floats compared with ``==`` (no tolerance)."""
    assert type(golden) is type(fresh) or (
        isinstance(golden, (int, float))
        and isinstance(fresh, (int, float))
        and not isinstance(golden, bool)
        and not isinstance(fresh, bool)
    ), f"{path}: type {type(golden).__name__} != {type(fresh).__name__}"
    if isinstance(golden, dict):
        assert sorted(golden) == sorted(fresh), f"{path}: keys differ"
        for key in golden:
            _assert_payload_equal(golden[key], fresh[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert len(golden) == len(fresh), f"{path}: length differs"
        for i, (a, b) in enumerate(zip(golden, fresh)):
            _assert_payload_equal(a, b, f"{path}[{i}]")
    else:
        assert golden == fresh, f"{path}: {golden!r} != {fresh!r}"


class TestFixture:
    def test_fixture_loads(self, fixture_trace):
        assert fixture_trace.n == 640
        assert fixture_trace.name == "trace_small"
        assert sum(fixture_trace.op_histogram().values()) == 640

    def test_fixture_content_hash_is_pinned(self, fixture_trace):
        # Editing the checked-in fixture invalidates the golden report and
        # every cached replay cell; this test makes that loud.
        assert fixture_trace.content_hash().startswith("ea236e8a1ec0009c")


class TestThreePathBitIdentity:
    """Scalar oracle, batched, and streaming replay execute identical columns."""

    @pytest.fixture(scope="class")
    def scalar(self, replay_scenario):
        return ScalarReferenceDriver().run(
            TraditionalKVStore(), replay_scenario
        )

    def test_arrivals_are_the_recorded_timestamps(self, scalar, fixture_trace):
        assert np.array_equal(
            scalar.columns.arrivals, fixture_trace.rebased().timestamps
        )
        # The recorder interns op names by first appearance, so compare
        # through the vocab rather than against raw trace codes.
        executed_ops = [
            scalar.columns.op_vocab[i] for i in scalar.columns.op_codes
        ]
        recorded_ops = [
            KV_OPERATIONS[int(c)].value for c in fixture_trace.ops
        ]
        assert executed_ops == recorded_ops

    def test_batched_matches_scalar(self, scalar, replay_scenario):
        batched = VirtualClockDriver().run(
            TraditionalKVStore(), replay_scenario
        )
        for name in COLUMNS:
            assert np.array_equal(
                getattr(scalar.columns, name), getattr(batched.columns, name)
            ), f"column {name!r} diverged between scalar and batched"

    @pytest.mark.parametrize("block_size", [64, 257])
    def test_streaming_matches_scalar(
        self, scalar, replay_scenario, tmp_path, block_size
    ):
        driver = VirtualClockDriver(DriverConfig(block_size=block_size))
        driver.run_streaming(
            TraditionalKVStore(), replay_scenario,
            spill_dir=str(tmp_path / "spill"),
        )
        spilled = load_spilled_columns(str(tmp_path / "spill"))
        for name in ("arrivals", "starts", "completions", "op_codes"):
            assert np.array_equal(
                getattr(scalar.columns, name), getattr(spilled, name)
            ), f"column {name!r} diverged in streaming (block={block_size})"

    def test_replay_is_seed_independent(self, scalar, fixture_trace):
        other = ScalarReferenceDriver().run(
            TraditionalKVStore(),
            Scenario.from_trace(
                fixture_trace,
                initial_keys=np.unique(fixture_trace.keys),
                seed=12345,
            ),
        )
        assert np.array_equal(scalar.columns.arrivals, other.columns.arrivals)
        assert np.array_equal(scalar.columns.op_codes, other.columns.op_codes)


class TestFingerprintsAndCacheKeys:
    def test_fingerprint_tracks_trace_content(self, fixture_trace):
        base = Scenario.from_trace(fixture_trace).fingerprint()
        perturbed_trace = QueryTrace(
            fixture_trace.timestamps,
            fixture_trace.ops,
            fixture_trace.keys + 1e-9,
            fixture_trace.scan_lengths,
        )
        assert Scenario.from_trace(perturbed_trace).fingerprint() != base

    def test_fingerprint_tracks_dilation_and_truncation(self, fixture_trace):
        base = Scenario.from_trace(fixture_trace).fingerprint()
        dilated = Scenario.from_trace(fixture_trace, dilation=2.0).fingerprint()
        cut = Scenario.from_trace(fixture_trace, max_queries=100).fingerprint()
        assert len({base, dilated, cut}) == 3

    def test_cache_key_tracks_trace_content(self, fixture_trace):
        perturbed_trace = QueryTrace(
            fixture_trace.timestamps,
            fixture_trace.ops,
            fixture_trace.keys + 1e-9,
            fixture_trace.scan_lengths,
        )
        desc = TraditionalKVStore().describe()
        keys = set()
        for trace in (fixture_trace, perturbed_trace):
            jobs = matrix_jobs(
                {"btree-kv": TraditionalKVStore},
                [Scenario.from_trace(trace)],
            )
            keys.add(job_cache_key(jobs[0], DriverConfig(), desc))
        assert len(keys) == 2

    def test_scenario_shape(self, fixture_trace, replay_scenario):
        assert replay_scenario.name == "replay:trace_small"
        assert len(replay_scenario.segments) == 1
        segment = replay_scenario.segments[0]
        assert segment.label == "replay"
        assert segment.duration > fixture_trace.rebased().span
        # from_trace rebases first, so the embedded hash is the rebased
        # trace's (two traces that rebase identically replay identically).
        assert (
            segment.spec.describe()["trace"]["content_hash"]
            == fixture_trace.rebased().content_hash()
        )

    def test_from_trace_truncation(self, fixture_trace):
        scenario = Scenario.from_trace(fixture_trace, max_queries=50)
        assert scenario.segments[0].spec.trace.n == 50


class TestSerializationBoundary:
    def test_trace_specs_refuse_json_round_trip(self, fixture_trace):
        payload = trace_spec(fixture_trace.rebased()).describe()
        with pytest.raises(ConfigurationError, match="load_trace"):
            spec_from_dict(payload)

    def test_fitted_spec_round_trips(self, fixture_trace):
        # Unlike replay specs, the *fitted* spec is fully parametric and
        # survives the JSON boundary (mix renormalization may drift the
        # proportions by an ULP, so compare approximately).
        spec, _, _ = round_trip(fixture_trace)
        rebuilt = spec_from_dict(spec.describe())
        assert rebuilt.name == spec.name
        assert rebuilt.scan_length_mean == spec.scan_length_mean
        rebuilt_mix = rebuilt.mix.proportions()
        for op, share in spec.mix.proportions().items():
            assert rebuilt_mix[op] == pytest.approx(share)


class TestGoldenRoundTrip:
    """The fixture's round-trip divergence report is pinned exactly."""

    @pytest.fixture(scope="class")
    def fresh_report(self, fixture_trace):
        _, synthesis, report = round_trip(fixture_trace, seed=0)
        return {
            "trace": {
                "content_hash": fixture_trace.content_hash(),
                "n": fixture_trace.n,
            },
            "synthesis_ks": synthesis.ks_distance,
            "report": report.to_dict(),
        }

    def test_matches_checked_in_golden(self, fresh_report):
        if os.environ.get("UPDATE_GOLDENS") == "1":
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            with open(GOLDEN_PATH, "w") as handle:
                json.dump(fresh_report, handle, indent=2, sort_keys=True)
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        assert GOLDEN_PATH.exists(), (
            f"golden file missing; regenerate with UPDATE_GOLDENS=1 "
            f"({GOLDEN_PATH})"
        )
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        _assert_payload_equal(golden, fresh_report)

    def test_report_meets_documented_fidelity(self, fresh_report):
        # The tutorial quotes these bounds for the fixture; keep them true.
        report = fresh_report["report"]
        assert report["ks_keys"] < 0.1
        assert report["tv_ops"] < 0.1
        assert report["arrival_rate_error"] < 0.05

    def test_json_round_trip_is_exact(self, fresh_report):
        _assert_payload_equal(
            fresh_report, json.loads(json.dumps(fresh_report))
        )
