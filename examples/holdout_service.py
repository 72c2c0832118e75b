#!/usr/bin/env python3
"""Benchmark-as-a-service with sealed hold-outs (§V-A of the paper).

Scenario: a vendor has tuned ("overfit") a learned store to the
benchmark's published distribution. On the public benchmark it posts
hero numbers. The benchmark service, however, evaluates systems on
*sealed* hold-out scenarios that each system may run exactly once — and
there the overfit system's numbers collapse while the honest adaptive
system holds up.

The service is a :class:`~repro.core.tenancy.BenchmarkServer`: each
submission is one tenant per sealed hold-out. The submitter sees the
sealed report; the operator reads the per-query columns the run
spilled to disk and computes the tail latency from them.

Run:
    python examples/holdout_service.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (Benchmark, BenchmarkServer, Scenario, Segment,
                        TenantSpec, load_spilled_columns)
from repro.core.phases import TrainingPhase
from repro.scenarios import default_dataset, expected_access_sample, hotspot
from repro.suts import LearnedKVStore, StaticLearnedKVStore
from repro.workloads.generators import simple_spec

RATE = 3200.0
FANOUT = 160


def make_scenario(dataset, position: float, name: str) -> Scenario:
    return Scenario(
        name=name,
        segments=[
            Segment(
                spec=simple_spec(name, hotspot(dataset, position), rate=RATE,
                                 read_fraction=1.0),
                duration=25.0,
            )
        ],
        initial_training=TrainingPhase(budget_seconds=1e9),
        initial_keys=dataset.keys,
        seed=77,
    )


def submit(server: BenchmarkServer, factory, spill_dir=None):
    """One shot at every sealed hold-out: one tenant per hold-out."""
    return server.serve(
        [
            TenantSpec(name=name, sut_factory=factory, holdout=name)
            for name in server.registry.names()
        ],
        spill_dir=spill_dir,
    )


def main() -> None:
    dataset = default_dataset(n=50_000)
    published = make_scenario(dataset, 0.1, "published-benchmark")
    sample = expected_access_sample(published)

    # --- the public benchmark: the overfit store shines ------------------
    bench = Benchmark()
    overfit = StaticLearnedKVStore(name="vendor-tuned",
                                   max_fanout=FANOUT,
                                   expected_access_sample=sample)
    public = bench.run(overfit, published)
    print("published benchmark (the distribution everyone trains on):")
    print(f"  vendor-tuned: {public.mean_throughput():8.1f} q/s, "
          f"p99 latency {np.percentile(public.latencies(), 99)*1000:.2f} ms")

    # --- the benchmark service: sealed hold-outs, one shot each ----------
    server = BenchmarkServer(workers=1)
    for i, position in enumerate((0.45, 0.85)):
        fingerprint = server.publish_holdout(
            make_scenario(dataset, position, f"sealed-{i}")
        )
        print(f"sealed hold-out {i}: fingerprint {fingerprint[:16]}…")

    print("\nout-of-sample evaluation (one shot per system):")
    for label, factory in (
        ("vendor-tuned (overfit)", lambda: StaticLearnedKVStore(
            name="vendor-tuned", max_fanout=FANOUT,
            expected_access_sample=sample)),
        ("adaptive learned", lambda: LearnedKVStore(
            name="adaptive", max_fanout=FANOUT, retrain_cooldown=2.0,
            expected_access_sample=sample)),
    ):
        with tempfile.TemporaryDirectory() as spill_dir:
            for tenant in submit(server, factory, spill_dir).tenants:
                summary = tenant.summary
                columns = load_spilled_columns(Path(spill_dir) / tenant.tenant)
                p99 = np.percentile(columns.latencies, 99)
                cost = sum(event.cost for event in summary.training_events)
                print(f"  {label:<24s} on {tenant.scenario_name}: "
                      f"{summary.mean_throughput():8.1f} q/s, "
                      f"p99 {p99*1000:9.2f} ms, training ${cost:.6f}")

    # --- re-running a hold-out is refused ---------------------------------
    print("\ntrying to run the hold-outs a second time (tuning against them):")
    again = submit(server, lambda: StaticLearnedKVStore(
        name="vendor-tuned", max_fanout=FANOUT,
        expected_access_sample=sample))
    print(f"  refused: {again.tenants[0].error}")


if __name__ == "__main__":
    main()
