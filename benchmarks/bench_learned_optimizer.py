"""A3 — Learned query optimization under *stale statistics* (§II).

The classic optimizer failure the learned approaches target: statistics
are collected once (``ANALYZE`` at setup), then a bulk load appends rows
in a value region the histograms believe is empty, and the workload
moves its predicates there.

* The traditional optimizer estimates ≈0 rows for those filters and
  picks nested-loop joins ("it's only a handful of rows") — each such
  plan then touches hundreds of thousands of row pairs.
* The learned SUT observes real cardinalities from every executed query
  (§IV's ground-truth-during-execution) and its bandit steering learns
  to avoid the disaster arms within a few dozen queries.

Reported per phase: mean/p95 service time per system, plus totals.
"""

from __future__ import annotations

import numpy as np

from bench_common import bench_once
from repro.suts.analytic import (
    AnalyticDriver,
    AnalyticWorkload,
    LearnedOptimizerSUT,
    TraditionalOptimizerSUT,
    build_analytic_catalog,
)
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import AbruptDrift

RATE = 15.0
SEG = 20.0
#: Value region that exists only after the mid-run bulk load.
NEW_LO, NEW_HI = 1000.0, 1200.0


def _make_workload(seed: int) -> AnalyticWorkload:
    drift = AbruptDrift(
        [UniformDistribution(0.0, 150.0), UniformDistribution(NEW_LO, NEW_HI - 80)],
        [SEG],
    )
    return AnalyticWorkload(threshold_drift=drift, window=80.0,
                            join_fraction=0.8, seed=seed)


def _inject(catalog, rng) -> None:
    """Bulk-load 1,500 orders with amounts in the new region."""
    orders = catalog.get("orders")
    rows = [
        {
            "oid": 100_000 + i,
            "cid": int(rng.integers(0, 400)),
            "amount": float(rng.uniform(NEW_LO, NEW_HI)),
        }
        for i in range(1500)
    ]
    orders.append_rows(rows)


def test_learned_optimizer_stale_statistics(benchmark, figure_sink):
    results = {}

    def run_all():
        for name, factory in (
            ("traditional-optimizer", TraditionalOptimizerSUT),
            ("learned-optimizer", LearnedOptimizerSUT),
        ):
            catalog = build_analytic_catalog(n_orders=4000, n_customers=400, seed=9)
            rng = np.random.default_rng(29)
            sut = factory(catalog)
            results[name] = AnalyticDriver(seed=17).run(
                sut,
                [
                    ("before-load", _make_workload(3), SEG, RATE),
                    ("after-load", _make_workload(3), SEG, RATE),
                ],
                scenario_name="stale-statistics",
                segment_hooks={"after-load": lambda: _inject(catalog, rng)},
            )

    bench_once(benchmark, run_all)

    rows = [
        "A3 — stale statistics: traditional vs learned optimization",
        "(bulk load lands in a region ANALYZE never saw; predicates follow)",
        f"{'system':<24s} {'segment':<12s} {'mean svc ms':>12s} {'p95 svc ms':>11s}",
    ]
    summary = {}
    for name, result in results.items():
        for segment in ("before-load", "after-load"):
            cols = result.columns
            services = cols.service_times[
                cols.segment_codes == cols.segment_vocab.index(segment)
            ]
            mean_ms = float(np.mean(services)) * 1000
            p95_ms = float(np.percentile(services, 95)) * 1000
            summary[(name, segment)] = mean_ms
            rows.append(f"{name:<24s} {segment:<12s} {mean_ms:12.3f} {p95_ms:11.3f}")

    trad_after = summary[("traditional-optimizer", "after-load")]
    learned_after = summary[("learned-optimizer", "after-load")]
    rows.append(
        f"after-load speedup from learning: {trad_after / learned_after:.1f}x"
    )

    # Shape checks: before the load the two are comparable; after it the
    # stale-statistics optimizer degrades hard while the learned one
    # stays in the same regime.
    trad_before = summary[("traditional-optimizer", "before-load")]
    assert trad_after > trad_before * 3  # the stale-stats disaster
    assert learned_after < trad_after / 2  # learning avoids it

    figure_sink("learned_optimizer", "\n".join(rows))
