#!/usr/bin/env python3
"""Dynamic YCSB: chaining the classic workloads into one run (§III-A).

Traditional YCSB runs each core workload (A-F) as a separate, fixed
benchmark. The paper argues learned systems must be measured across the
*transitions*. This example chains YCSB-C (read only) → YCSB-A (update
heavy) → YCSB-E (scan heavy) in a single scenario and compares three
stores: the adaptive learned store, a B+ tree, and a hash index (great
until the scans arrive).

Run:
    python examples/ycsb_dynamic.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Benchmark, Scenario, Segment
from repro.core.phases import TrainingPhase
from repro.metrics import box_stats
from repro.reporting import sparkline
from repro.scenarios import default_dataset
from repro.suts import HashKVStore, LearnedKVStore, TraditionalKVStore
from repro.workloads.ycsb import ycsb_workload

RATE = 1200.0
SEG = 25.0


def main() -> None:
    dataset = default_dataset(n=50_000)
    segments = []
    for letter in ("C", "A", "E"):
        spec = ycsb_workload(letter, low=dataset.low, high=dataset.high,
                             rate=RATE)
        segments.append(Segment(spec=spec, duration=SEG))
    scenario = Scenario(
        name="ycsb-c-a-e",
        segments=segments,
        initial_training=TrainingPhase(budget_seconds=1e9),
        initial_keys=dataset.keys,
        seed=41,
    )

    bench = Benchmark()
    stores = [
        LearnedKVStore(max_fanout=160, retrain_cooldown=2.0),
        TraditionalKVStore(),
        HashKVStore(),
    ]
    print(f"scenario: YCSB-C → YCSB-A → YCSB-E at {RATE:.0f} q/s offered\n")
    results = {}
    for store in stores:
        result = bench.run(store, scenario)
        results[store.name] = result
        print(f"=== {store.name} ===")
        for label, lo, hi in result.segments:
            stats = box_stats(result.columns.latencies[result.segment_mask(label)])
            print(f"  {label:8s} median latency {stats.median*1000:10.3f} ms   "
                  f"p-max {stats.maximum*1000:12.1f} ms")
        _, counts = result.throughput_series()
        print(f"  tp {sparkline(counts)}")
        print()

    # The headline: the hash store wins YCSB-C and collapses on YCSB-E.
    hashed = results["hash-kv"]
    hash_c = np.median(hashed.columns.latencies[hashed.segment_mask("ycsb-c")])
    hash_e = np.median(hashed.columns.latencies[hashed.segment_mask("ycsb-e")])
    print(f"hash store: ycsb-c median {hash_c*1000:.3f} ms vs "
          f"ycsb-e median {hash_e*1000:.1f} ms — a single-workload benchmark "
          "would have certified it")


if __name__ == "__main__":
    main()
