"""A8 — data-distribution change (the paper's second drift axis).

Workload drift (F1b) changes *which keys are asked for*; data drift
changes *what is stored*. Mid-run, a bulk load injects a dense cluster
of new keys into a previously empty region of the key space, and the
workload immediately starts reading from it. The learned store's models
were trained before the injection: its delta buffer absorbs the new
keys, lookups pay delta-probing costs, and a merge-retrain restores
performance — all visible to the Fig 1b/1c metrics. The B+ tree absorbs
the same injection structurally, with no transient.
"""

from __future__ import annotations

import numpy as np

from bench_common import (
    FANOUT,
    bench_once,
    dataset,
    make_traditional,
)
from repro.core.benchmark import Benchmark
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.metrics.adaptability import recovery_time
from repro.suts.kv_learned import LearnedKVStore
from repro.workloads.distributions import HotspotDistribution
from repro.workloads.generators import simple_spec

RATE = 2500.0
SEG = 30.0


def _scenario(ds) -> Scenario:
    span = ds.high - ds.low
    # The injected cluster sits past the current maximum key.
    new_lo = ds.high + span * 0.05
    new_hi = ds.high + span * 0.10
    rng = np.random.default_rng(61)
    injected = np.sort(rng.uniform(new_lo, new_hi, int(len(ds) * 0.3)))

    before = HotspotDistribution(ds.low, ds.high, ds.low + span * 0.1,
                                 span * 0.05, 0.9)
    # After the injection, 80% of reads target the new cluster.
    after = HotspotDistribution(ds.low, new_hi, new_lo, new_hi - new_lo, 0.8)
    return Scenario(
        name="data-drift",
        segments=[
            Segment(spec=simple_spec("pre-load", before, rate=RATE,
                                     read_fraction=1.0), duration=SEG),
            Segment(
                spec=simple_spec("post-load", after, rate=RATE,
                                 read_fraction=1.0),
                duration=SEG,
                data_injection=injected,
            ),
        ],
        initial_training=TrainingPhase(budget_seconds=1e9),
        initial_keys=ds.keys,
        seed=67,
    )


def test_data_drift(benchmark, figure_sink):
    ds = dataset()
    scenario = _scenario(ds)
    bench = Benchmark()
    runs = {}

    def run_all():
        runs["learned-kv"] = bench.run(
            LearnedKVStore(max_fanout=FANOUT, retrain_cooldown=2.0,
                           delta_threshold=2048),
            scenario,
        )
        runs["btree-kv"] = bench.run(make_traditional(), scenario)

    bench_once(benchmark, run_all)

    rows = [
        "A8 — bulk data injection mid-run (30% new keys, reads follow)",
        f"{'store':<12s} {'pre p99 ms':>11s} {'post p99 ms':>12s} "
        f"{'recovery s':>11s} {'retrains':>9s}",
    ]
    stats = {}
    for name, result in runs.items():
        latencies = result.columns.latencies
        pre = latencies[result.segment_mask("pre-load")]
        post = latencies[result.segment_mask("post-load")]
        pre_p99 = float(np.percentile(pre, 99)) * 1000
        post_p99 = float(np.percentile(post, 99)) * 1000
        recovery = recovery_time(result, change_time=SEG, window=3.0)
        online = sum(1 for e in result.training_events if e.online)
        stats[name] = (pre_p99, post_p99, recovery, online)
        rows.append(
            f"{name:<12s} {pre_p99:11.2f} {post_p99:12.2f} "
            f"{str(recovery):>11s} {online:9d}"
        )

    # Shape checks: the learned store pays a visible transient after the
    # injection and retrains at least once to absorb it; it recovers
    # within the post-load segment; the B+ tree's post-injection p99
    # moves far less in relative terms.
    learned = stats["learned-kv"]
    btree = stats["btree-kv"]
    assert learned[1] > learned[0] * 3
    assert learned[3] >= 1
    assert learned[2] is not None and learned[2] < SEG
    assert btree[1] < btree[0] * 3

    figure_sink("data_drift", "\n".join(rows))
