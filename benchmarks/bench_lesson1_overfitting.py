"""L1 — Lesson 1: "Abstain from fixed workloads and databases as their
characteristics are easy to learn."

Demonstration: a learned store trained on the benchmark's published
(fixed) distribution posts excellent numbers on that distribution and
collapses when the distribution moves; the sealed hold-out evaluation
catches the overfit system that a fixed benchmark would certify.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from bench_common import bench_once, dataset, make_static, make_traditional
from repro.core.benchmark import Benchmark
from repro.core.scenario import Scenario, Segment
from repro.core.streaming import load_spilled_columns
from repro.core.tenancy import BenchmarkServer, TenantSpec
from repro.scenarios import expected_access_sample, hotspot
from repro.workloads.generators import simple_spec

RATE = 3200.0
DURATION = 25.0


def _fixed_scenario(ds, position: float, name: str) -> Scenario:
    from repro.core.phases import TrainingPhase

    return Scenario(
        name=name,
        segments=[
            Segment(
                spec=simple_spec(name, hotspot(ds, position), rate=RATE,
                                 read_fraction=1.0),
                duration=DURATION,
            )
        ],
        initial_training=TrainingPhase(budget_seconds=1e9),
        initial_keys=ds.keys,
        seed=31,
    )


def _effective_throughput(result) -> float:
    horizon = result.duration
    return float((result.completions() <= horizon).sum()) / horizon


def test_lesson1_overfitting(benchmark, figure_sink):
    ds = dataset()
    fixed = _fixed_scenario(ds, 0.1, "fixed-benchmark")
    shifted = _fixed_scenario(ds, 0.7, "shifted-distribution")
    sample = expected_access_sample(fixed)
    bench = Benchmark()
    numbers = {}

    def run_all():
        # The vendor "trains to the benchmark": on the fixed workload the
        # overfit store shines.
        numbers["overfit@fixed"] = bench.run(make_static(sample), fixed)
        numbers["btree@fixed"] = bench.run(make_traditional(), fixed)
        # The same systems when the distribution moves.
        numbers["overfit@shifted"] = bench.run(make_static(sample), shifted)
        numbers["btree@shifted"] = bench.run(make_traditional(), shifted)

    bench_once(benchmark, run_all)

    # Hold-out service: the overfit store gets one shot at a sealed
    # scenario it has never seen — its out-of-sample numbers are honest.
    server = BenchmarkServer(workers=1)
    server.publish_holdout(_fixed_scenario(ds, 0.85, "sealed-holdout"))
    with tempfile.TemporaryDirectory() as spill_dir:
        (holdout,) = server.serve(
            [TenantSpec(name="overfit", sut_factory=lambda: make_static(sample),
                        holdout="sealed-holdout")],
            spill_dir=spill_dir,
        ).tenants
        columns = load_spilled_columns(Path(spill_dir) / "overfit")
    holdout_p99 = float(np.percentile(columns.latencies, 99))

    rows = [
        "Lesson 1 — overfitting to a fixed benchmark",
        f"{'system@scenario':<24s} {'eff q/s':>9s} {'mean lat':>12s}",
    ]
    stats = {}
    for name, result in numbers.items():
        tp = _effective_throughput(result)
        latency = float(np.mean(result.latencies()))
        stats[name] = (tp, latency)
        rows.append(f"{name:<24s} {tp:9.1f} {latency*1000:10.3f}ms")
    rows.append(
        f"{'overfit@sealed-holdout':<24s} {holdout.summary.mean_throughput():9.1f} "
        f"{holdout_p99*1000:10.3f}ms (p99)"
    )

    # Shape checks: hero numbers on the fixed benchmark, collapse off it.
    assert stats["overfit@fixed"][1] < stats["btree@fixed"][1]  # wins when fixed
    assert stats["overfit@shifted"][1] > stats["overfit@fixed"][1] * 10
    assert stats["overfit@shifted"][0] < stats["overfit@fixed"][0] * 0.8
    # The traditional system is insensitive to the shift.
    assert abs(stats["btree@shifted"][1] - stats["btree@fixed"][1]) < (
        stats["btree@fixed"][1] * 0.5
    )

    figure_sink("lesson1_overfitting", "\n".join(rows))
