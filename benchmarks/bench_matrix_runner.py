"""MR — matrix runner: parallel fan-out and content-addressed caching.

Runs a small (SUT × seed) matrix twice against a fresh cache. The first
pass executes every job across the process pool; the second is served
entirely from the cache. Asserts that cached results are bit-identical
to executed ones (column bytes, codes and vocabularies included) and
that the warm pass is ≥ 3× faster — the runner's acceptance bar — and
logs both manifests. Deliberately tiny (a few thousand queries per job)
so it doubles as the CI smoke benchmark.

The bar was 5× when executing a job cost ~20 µs/query; the batched
driver pipeline cut that ~16×, so execution is no longer the dominant
cost of the cold pass. A cache hit reads one spill-format column file
per job (byte planes plus a JSON header), so the warm pass costs a few
milliseconds of zip reads and plane decoding. 3× keeps the assertion
meaningful (a broken cache shows up as ~1×) without pretending
execution is still the whole of the cold pass.
"""

from __future__ import annotations

import time
from functools import partial

from bench_common import bench_once
from repro.core.runner import MatrixRunner, matrix_jobs
from repro.data.datasets import build_dataset
from repro.scenarios import abrupt_shift, expected_access_sample
from repro.suts.kv_learned import StaticLearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from tests.result_helpers import assert_same_result

#: Small-scale knobs: enough work for the cold pass to clearly
#: out-cost a cache read, small enough for a CI smoke lane.
N_KEYS = 8_000
RATE = 400.0
SEG_DURATION = 6.0
SEEDS = (1, 2)


def test_matrix_runner_cache_speedup(benchmark, figure_sink, tmp_path):
    ds = build_dataset("uniform", n=N_KEYS, seed=7)
    scenario = abrupt_shift(
        ds, rate=RATE, segment_duration=SEG_DURATION, train_budget=1e9
    )
    sample = expected_access_sample(scenario)
    jobs = matrix_jobs(
        {
            "static-learned-kv": partial(
                StaticLearnedKVStore, max_fanout=64, expected_access_sample=sample
            ),
            "btree-kv": TraditionalKVStore,
        },
        [scenario],
        seeds=SEEDS,
    )
    cache_dir = str(tmp_path / "cache")
    runner = MatrixRunner(cache_dir=cache_dir)
    state = {}

    def cold_run():
        t0 = time.perf_counter()
        state["cold"] = runner.run(jobs).raise_on_failure()
        state["cold_wall"] = time.perf_counter() - t0

    bench_once(benchmark, cold_run)

    t0 = time.perf_counter()
    warm = runner.run(jobs).raise_on_failure()
    warm_wall = time.perf_counter() - t0
    cold = state["cold"]

    assert cold.manifest.executed == len(jobs)
    assert warm.manifest.hits == len(jobs)
    for executed, cached in zip(cold.results, warm.results):
        assert_same_result(cached, executed)
    identical = True
    speedup = state["cold_wall"] / max(warm_wall, 1e-9)
    assert speedup >= 3.0, (
        f"warm pass only {speedup:.1f}x faster "
        f"(cold {state['cold_wall']:.3f}s, warm {warm_wall:.3f}s)"
    )

    lines = [
        f"matrix: {len(jobs)} jobs "
        f"(2 SUTs × seeds {SEEDS}) — {cold.results[0].num_queries} queries/job",
        f"cold: {cold.manifest.summary()}",
        f"warm: {warm.manifest.summary()}",
        f"cache speedup: {speedup:.1f}x (identical results: {identical})",
    ]
    figure_sink("matrix_runner_cache", "\n".join(lines))
