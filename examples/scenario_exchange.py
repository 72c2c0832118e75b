#!/usr/bin/env python3
"""Shareable benchmark definitions (§IV's comparability requirement).

"The main challenges entail ... ensuring that benchmark results remain
comparable across many deployments with wide-ranging designs." Results
are comparable only if the scenario itself is an exchangeable artifact.
This example plays two parties:

* Site A defines a dynamic scenario, runs its system, and publishes the
  scenario as JSON plus the dataset recipe (name, n, seed) and the
  scenario fingerprint.
* Site B rebuilds the dataset from the recipe, loads the JSON, verifies
  the fingerprint matches (so both sites demonstrably ran the *same*
  benchmark), runs its own system, and the two results are directly
  comparable.

Run:
    python examples/scenario_exchange.py
"""

from __future__ import annotations

import json
import tempfile

from repro.core import Benchmark
from repro.data.datasets import build_dataset
from repro.metrics import area_between_systems
from repro.scenarios import abrupt_shift, expected_access_sample
from repro.serialization import scenario_from_dict, scenario_to_dict
from repro.suts import LearnedKVStore, TraditionalKVStore

DATASET_RECIPE = {"name": "osm", "n": 30_000, "seed": 7}


def site_a(path: str) -> tuple:
    """Define, run, and publish the benchmark."""
    dataset = build_dataset(**DATASET_RECIPE)
    scenario = abrupt_shift(dataset, rate=2800.0, segment_duration=20.0,
                            train_budget=1e9)
    with open(path, "w") as handle:
        json.dump(scenario_to_dict(scenario), handle, indent=2)
    sample = expected_access_sample(scenario)
    result = Benchmark().run(
        LearnedKVStore(max_fanout=128, expected_access_sample=sample), scenario
    )
    print(f"[site A] published scenario {scenario.name!r} "
          f"(fingerprint {scenario.fingerprint()[:16]}…) and dataset recipe "
          f"{DATASET_RECIPE}")
    print(f"[site A] learned-kv: {result.mean_throughput():.1f} q/s over "
          f"{result.num_queries} queries")
    return scenario.fingerprint(), result


def site_b(path: str, expected_fingerprint: str):
    """Rebuild, verify, and run a different system on the same benchmark."""
    dataset = build_dataset(**DATASET_RECIPE)
    with open(path) as handle:
        scenario = scenario_from_dict(json.load(handle),
                                      initial_keys=dataset.keys)
    fingerprint = scenario.fingerprint()
    assert fingerprint == expected_fingerprint, "scenario mismatch!"
    print(f"[site B] fingerprint verified: {fingerprint[:16]}… — running "
          "the same benchmark")
    result = Benchmark().run(TraditionalKVStore(), scenario)
    print(f"[site B] btree-kv: {result.mean_throughput():.1f} q/s over "
          f"{result.num_queries} queries")
    return result


def main() -> None:
    with tempfile.NamedTemporaryFile(mode="w", suffix=".json",
                                     delete=False) as handle:
        path = handle.name
    fingerprint, result_a = site_a(path)
    result_b = site_b(path, fingerprint)
    area = area_between_systems(result_a, result_b)
    print(f"\ncomparable result: area(learned - btree) = {area:,.0f} q·s "
          "on the *identical* (fingerprint-verified) scenario")


if __name__ == "__main__":
    main()
