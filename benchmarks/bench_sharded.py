"""SH — sharded streaming: merged shards == one stream, with speedup.

Three claims pinned here. First, *equivalence at scale*: a 2M-query
multi-segment run fanned across 4 worker processes must merge into the
same summary the unsharded streaming path produces — integer/grid
metric payloads byte-identical, query/op/segment counts equal, float
summaries within 1e-9 (the Chan combine's summation tree differs; see
DESIGN.md §10). Second, *speedup*: on a machine with >= 4 CPUs the
4-shard run must finish at least 2x faster than the unsharded run
(shards simulate disjoint stream slices concurrently); on smaller
machines the assertion is skipped but both walls are still recorded.
Third, *resilience*: a shard whose worker dies hard (``os._exit``)
mid-attempt must be retried under the pool's attempt budget and still
merge bit-clean.

Writes ``BENCH_sharded.json`` into ``benchmarks/results/`` (walls,
speedup, shard plan, crash-recovery attempts). Scale knob:
``REPRO_BENCH_SHARD_QUERIES`` overrides the 2M default.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial
from pathlib import Path

import numpy as np

from bench_common import bench_once
from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.driver import VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import HotspotDistribution, UniformDistribution
from repro.workloads.generators import simple_spec

#: Offered load. The btree SUT's simulated capacity on the 50k-key
#: domain is ~2360 q/s; 1500 q/s keeps utilization ~0.64 so the queue
#: drains inside every segment and shard boundaries are clean (the
#: equivalence precondition the merge's drain check verifies).
RATE = 1500.0
TOTAL_QUERIES = int(os.environ.get("REPRO_BENCH_SHARD_QUERIES", 2_000_000))
N_SHARDS = 4
N_KEYS = 50_000
KEY_DOMAIN = 100_000.0
BLOCK_SIZE = 65_536
SLA = 0.050

#: Integer/grid-derived payloads: byte-identical under any shard plan.
EXACT_METRICS = {"throughput", "adaptability", "sla", "recovery", "adjustment_speed"}

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_RECORD_PATH = os.path.join(_RESULTS_DIR, "BENCH_sharded.json")


def _scenario(total_queries: int, n_segments: int = N_SHARDS) -> Scenario:
    """Multi-segment scenario totalling ``total_queries`` arrivals.

    One segment per target shard so ``plan_shards`` hands each worker a
    whole segment; alternating key patterns keep the drift machinery in
    the loop like the streaming memory gate does.
    """
    per_segment = total_queries // n_segments
    duration = per_segment / RATE
    uniform = UniformDistribution(0, KEY_DOMAIN)
    hotspot = HotspotDistribution(
        0, KEY_DOMAIN, hot_start=0.1 * KEY_DOMAIN,
        hot_width=0.05 * KEY_DOMAIN, hot_fraction=0.9,
    )
    segments = [
        Segment(
            spec=simple_spec(
                f"seg-{i}", uniform if i % 2 == 0 else hotspot, rate=RATE
            ),
            duration=duration,
            label=f"seg-{i}",
        )
        for i in range(n_segments)
    ]
    return Scenario(
        name=f"sharded-{total_queries}",
        segments=segments,
        seed=13,
        initial_keys=np.linspace(0.0, KEY_DOMAIN, N_KEYS),
    )


def _config(total_queries: int) -> BenchmarkConfig:
    """Driver knobs for the equivalence runs.

    ``jitter_arrivals=False`` keeps arrivals evenly spaced (0.67 ms at
    1500 q/s) so the 0.42 ms service always completes before the next
    arrival — every segment boundary drains *deterministically*, which
    is the precondition for bit-identical shard merges. With jitter on,
    the last arrival of a segment can land inside a service window and
    push work across the boundary (the merge's drain check would flag
    it rather than miscount).
    """
    return BenchmarkConfig(
        block_size=BLOCK_SIZE,
        max_queries=total_queries + 1,
        jitter_arrivals=False,
    )


def _assert_summaries_equivalent(merged, reference):
    """The merge contract: integers byte-for-byte, floats to 1e-9."""
    assert merged.num_queries == reference.num_queries
    assert merged.op_counts == reference.op_counts
    assert merged.segment_counts == reference.segment_counts
    assert merged.max_completion == reference.max_completion
    assert set(merged.metrics) == set(reference.metrics)
    for name, payload in merged.metrics.items():
        if name in EXACT_METRICS:
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                reference.metrics[name], sort_keys=True
            ), f"grid metric {name!r} observed the shard boundaries"
        else:
            _assert_close(name, payload, reference.metrics[name])


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


def _update_record(**fields):
    """Merge fields into ``BENCH_sharded.json`` (tests run separately)."""
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record.update(fields)
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)


def test_sharded_matches_unsharded_with_speedup(benchmark, figure_sink):
    """2M queries, 4 shards: byte-identical merge, >= 2x wall speedup."""
    config = _config(TOTAL_QUERIES)
    state = {}

    def both_runs():
        t0 = time.perf_counter()
        state["reference"] = VirtualClockDriver(config.driver_config()).run_streaming(
            TraditionalKVStore(), _scenario(TOTAL_QUERIES), sla=SLA
        )
        state["unsharded_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        state["merged"] = Benchmark(config).run_sharded_streaming(
            TraditionalKVStore,
            _scenario(TOTAL_QUERIES),
            shards=N_SHARDS,
            sla=SLA,
        )
        state["sharded_s"] = time.perf_counter() - t0

    bench_once(benchmark, both_runs)
    reference, merged = state["reference"], state["merged"]
    unsharded_s, sharded_s = state["unsharded_s"], state["sharded_s"]

    # Even spacing can round one arrival off the end of each segment.
    assert merged.num_queries >= TOTAL_QUERIES - 2 * N_SHARDS
    _assert_summaries_equivalent(merged, reference)
    assert merged.sharding["shards"] == N_SHARDS
    assert merged.sharding["boundaries_drained"] is True

    speedup = unsharded_s / max(sharded_s, 1e-9)
    cpus = os.cpu_count() or 1
    gate_applied = cpus >= N_SHARDS
    if gate_applied:
        assert speedup >= 2.0, (
            f"4-shard run only {speedup:.2f}x faster than unsharded "
            f"({sharded_s:.1f}s vs {unsharded_s:.1f}s) on {cpus} CPUs"
        )

    _update_record(
        bench="sharded",
        n_queries=int(merged.num_queries),
        n_shards=N_SHARDS,
        shard_queries=merged.sharding["shard_queries"],
        unsharded_wall_s=round(unsharded_s, 2),
        sharded_wall_s=round(sharded_s, 2),
        speedup=round(speedup, 2),
        cpu_count=cpus,
        speedup_gate_applied=gate_applied,
        identical_integer_payloads=True,
        boundaries_drained=True,
    )
    figure_sink(
        "sharded_scaling",
        "\n".join(
            [
                f"sharded streaming: {merged.num_queries:,} queries, "
                f"{N_SHARDS} shards on {cpus} CPUs",
                f"  unsharded wall : {unsharded_s:6.1f}s",
                f"  sharded wall   : {sharded_s:6.1f}s ({speedup:.2f}x)",
                "  merge          : integer payloads byte-identical, "
                "floats <= 1e-9",
                f"  speedup gate   : {'enforced (>= 2x)' if gate_applied else f'skipped ({cpus} CPUs < {N_SHARDS})'}",
            ]
        ),
    )


def _crash_once_factory(marker):
    """First worker to run dies hard; later attempts build a real SUT."""
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(3)
    return TraditionalKVStore()


def test_crash_injected_shard_recovers(tmp_path, figure_sink):
    """A hard-crashed shard retries under budget and merges bit-clean."""
    queries = min(TOTAL_QUERIES // 20, 100_000)
    config = _config(queries)
    reference = VirtualClockDriver(config.driver_config()).run_streaming(
        TraditionalKVStore(), _scenario(queries), sla=SLA
    )
    merged = Benchmark(config).run_sharded_streaming(
        partial(_crash_once_factory, str(tmp_path / "crashed")),
        _scenario(queries),
        shards=N_SHARDS,
        sla=SLA,
        max_attempts=3,
    )
    attempts = merged.sharding["attempts"]
    assert sum(attempts) > N_SHARDS, "crash injection never fired"
    _assert_summaries_equivalent(merged, reference)

    _update_record(
        crash_recovery={
            "n_queries": int(merged.num_queries),
            "attempts": attempts,
            "recovered": True,
        }
    )
    figure_sink(
        "sharded_crash_recovery",
        "\n".join(
            [
                f"crash-injected shard recovery ({merged.num_queries:,} queries)",
                f"  attempts per shard : {attempts}",
                "  merged summary     : identical to unsharded reference",
            ]
        ),
    )
