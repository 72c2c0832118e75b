#!/usr/bin/env python3
"""Learned query optimization on the relational substrate (§II).

Runs the analytic workload (filters + joins over orders ⋈ customers with
drifting predicate ranges) through two optimizers:

* the traditional cost-based optimizer with histogram statistics
  collected once at startup, and
* Bao-style bandit steering whose arms wrap the same optimizer, fed by a
  learned cardinality model that trains online from every executed
  query's observed cardinalities (§IV's "ground truth ... obtained
  during query execution").

Prints per-phase service times, the bandit's arm usage, and the learned
cardinality model's accuracy trajectory.

Run:
    python examples/learned_optimizer_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.plans import Filter, Scan
from repro.suts.analytic import (
    AnalyticDriver,
    AnalyticWorkload,
    LearnedOptimizerSUT,
    TraditionalOptimizerSUT,
    build_analytic_catalog,
)
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import AbruptDrift

RATE = 20.0
SEG = 20.0


def make_workload() -> AnalyticWorkload:
    drift = AbruptDrift(
        [UniformDistribution(0.0, 150.0), UniformDistribution(400.0, 700.0)],
        [SEG],
    )
    return AnalyticWorkload(threshold_drift=drift, window=80.0,
                            join_fraction=0.7, seed=3)


def main() -> None:
    results = {}
    suts = {}
    for name, factory in (
        ("traditional", TraditionalOptimizerSUT),
        ("learned", LearnedOptimizerSUT),
    ):
        catalog = build_analytic_catalog(n_orders=4000, n_customers=400, seed=9)
        sut = factory(catalog)
        suts[name] = sut
        results[name] = AnalyticDriver(seed=17).run(
            sut,
            [("dense-predicates", make_workload(), SEG, RATE),
             ("sparse-predicates", make_workload(), SEG, RATE)],
        )

    print("per-phase mean service time (ms):")
    for name, result in results.items():
        for segment in ("dense-predicates", "sparse-predicates"):
            cols = result.columns
            services = cols.service_times[
                cols.segment_codes == cols.segment_vocab.index(segment)
            ]
            print(f"  {name:<12s} {segment:<18s} "
                  f"{np.mean(services)*1000:8.3f} ms over {len(services)} queries")

    learned = suts["learned"]
    print("\nbandit arm usage (after both phases):")
    for (arm_name, _, _), count in zip(learned.steering.ARMS,
                                       learned.steering.arm_counts):
        print(f"  {arm_name:<12s} {count:4d} decisions")

    print(f"\nlearned cardinality model: "
          f"{learned.learned_cards.trained_examples} labels consumed, "
          f"{learned.learned_cards.label_collection_rows} ground-truth rows")

    # Accuracy spot check on an unseen predicate from the *current*
    # regime (online learners weight recent labels; a stale-regime query
    # would measure exactly the recency the model is supposed to have).
    catalog = learned.catalog
    executor = Executor(catalog)
    test_plan = Filter(Scan("orders"), col("amount").between(450.0, 530.0))
    truth = executor.execute(test_plan).table.row_count
    q_error = learned.learned_cards.q_error(test_plan, truth, catalog)
    print(f"spot-check q-error on an unseen current-regime predicate: "
          f"{q_error:.2f} "
          f"(estimate {learned.learned_cards.estimate(test_plan, catalog):.0f} "
          f"vs true {truth})")


if __name__ == "__main__":
    main()
