"""MK — metric kernels: vectorized columnar analysis vs reference loops.

Builds a 500k-query synthetic :class:`RunResult` directly in columnar
form, evaluates the three formerly per-interval-loop metric kernels
(``latency_bands``, ``multi_latency_bands``, ``latency_timeline``) both
ways, asserts the vectorized outputs are identical to the reference
loop implementations (the pre-refactor code, imported from
``tests/metrics/test_golden_kernels.py`` so there is one copy), and
asserts the aggregate speedup is ≥ 10x — the analysis-layer acceptance
bar. Run it from the repository root so ``tests`` is importable.

All synthetic timestamps are dyadic rationals (multiples of 1/64), so
"identical" means *exactly equal*, not approximately: any drift between
the shared ``np.arange`` edge grid and the reference accumulation would
fail the equality assertions before it failed the speedup one.

Writes a ``BENCH_metrics.json`` perf record into ``benchmarks/results/``
(per-kernel reference/vectorized seconds and speedups) alongside the
usual figure text.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_common import bench_once
from repro.core.results import QueryColumns, RunResult
from repro.metrics.adaptability import cumulative_curve, latency_timeline
from repro.metrics.sla import adjustment_speed, latency_bands, multi_latency_bands
from tests.metrics.test_golden_kernels import (
    ref_latency_bands,
    ref_latency_timeline,
    ref_multi_latency_bands,
)

N_QUERIES = 500_000
HORIZON = 600.0
INTERVAL = 0.25
SLA = 0.5
THRESHOLDS = [0.25, 0.5, 1.0]

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


# -- synthetic columnar run ----------------------------------------------------------


def build_synthetic_result(n: int = N_QUERIES) -> RunResult:
    """500k dyadic-timestamp queries appended straight into columns."""
    rng = np.random.default_rng(42)
    arrivals = np.sort(rng.integers(0, int((HORIZON - 3.0) * 64), n)) / 64.0
    starts = arrivals + rng.integers(0, 64, n) / 64.0
    completions = starts + rng.integers(1, 64, n) / 64.0
    half = int(np.searchsorted(arrivals, HORIZON / 2.0))
    segment_codes = np.zeros(n, dtype=np.int32)
    segment_codes[half:] = 1
    columns = QueryColumns(
        arrivals=arrivals,
        starts=starts,
        completions=completions,
        op_codes=(np.arange(n) % 3 == 0).astype(np.int32),
        op_vocab=("read", "scan"),
        segment_codes=segment_codes,
        segment_vocab=("a", "b"),
    )
    return RunResult(
        sut_name="synthetic-500k",
        scenario_name="metric-kernels",
        columns=columns,
        segments=[("a", 0.0, HORIZON / 2.0), ("b", HORIZON / 2.0, HORIZON)],
    )


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_metric_kernels_speedup(benchmark, figure_sink):
    result = build_synthetic_result()
    ref, vec = {}, {}
    ref_out, ref["latency_bands"] = _timed(
        lambda: ref_latency_bands(result, SLA, INTERVAL)
    )
    ref_multi, ref["multi_latency_bands"] = _timed(
        lambda: ref_multi_latency_bands(result, THRESHOLDS, INTERVAL)
    )
    ref_timeline, ref["latency_timeline"] = _timed(
        lambda: ref_latency_timeline(result, INTERVAL)
    )

    state = {}

    def vectorized_suite():
        vec_out, vec["latency_bands"] = _timed(
            lambda: latency_bands(result, SLA, INTERVAL)
        )
        vec_multi, vec["multi_latency_bands"] = _timed(
            lambda: multi_latency_bands(result, THRESHOLDS, INTERVAL)
        )
        vec_timeline, vec["latency_timeline"] = _timed(
            lambda: latency_timeline(result, INTERVAL)
        )
        state.update(bands=vec_out, multi=vec_multi, timeline=vec_timeline)

    bench_once(benchmark, vectorized_suite)

    # Identical outputs, not just close ones.
    assert [
        (b.start, b.within_sla, b.violated) for b in state["bands"]
    ] == ref_out
    assert state["multi"] == ref_multi
    ref_times, ref_series = ref_timeline
    got_times, got_series = state["timeline"]
    assert np.array_equal(ref_times, got_times)
    for p in ref_series:
        assert np.array_equal(ref_series[p], got_series[p], equal_nan=True)

    # Sanity: the single-value kernels still agree with first principles.
    times, cum = cumulative_curve(result, resolution=INTERVAL)
    assert cum[-1] == result.num_queries
    assert adjustment_speed(result, HORIZON / 2.0, 1000, SLA) >= 0.0

    ref_total = sum(ref.values())
    vec_total = sum(vec.values())
    speedup = ref_total / max(vec_total, 1e-9)
    assert speedup >= 10.0, (
        f"vectorized kernels only {speedup:.1f}x faster "
        f"(reference {ref_total:.3f}s, vectorized {vec_total:.3f}s)"
    )

    record = {
        "bench": "metrics_kernels",
        "n_queries": result.num_queries,
        "n_intervals": int(times.size) - 1,
        "interval": INTERVAL,
        "kernels": {
            name: {
                "reference_s": round(ref[name], 6),
                "vectorized_s": round(vec[name], 6),
                "speedup": round(ref[name] / max(vec[name], 1e-9), 2),
            }
            for name in ref
        },
        "total_reference_s": round(ref_total, 6),
        "total_vectorized_s": round(vec_total, 6),
        "total_speedup": round(speedup, 2),
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, "BENCH_metrics.json"), "w") as handle:
        json.dump(record, handle, indent=2)

    lines = [
        f"metric kernels on {result.num_queries:,} queries × "
        f"{int(times.size) - 1} intervals (identical outputs)",
    ]
    for name in ref:
        lines.append(
            f"{name:>20}: {ref[name]*1000:8.1f}ms -> {vec[name]*1000:7.1f}ms "
            f"({ref[name] / max(vec[name], 1e-9):6.1f}x)"
        )
    lines.append(f"{'total':>20}: {speedup:6.1f}x (bar: >= 10x)")
    figure_sink("metrics_kernels", "\n".join(lines))
