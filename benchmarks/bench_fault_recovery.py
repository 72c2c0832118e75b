"""FR — fault recovery: chaos injection through the batched pipeline.

Runs one 80k-query scenario (B+ tree store, steady uniform reads) three
ways:

* fault-free (the baseline twin),
* faulted — a latency window, a full stall, and a crash with a recovery
  outage,
* fault-free with an *out-of-horizon* plan — every fault lands after the
  run ends, so the fault machinery is armed but never fires.

The asserts pin two contracts the fault subsystem guarantees (the third,
bit-identity with the scalar oracle under faults, is pinned by
``tests/core/test_faults.py``):

1. **Determinism**: re-running the faulted scenario reproduces the
   exact columns.
2. **Zero cost when dormant**: the out-of-horizon run's columns equal
   the no-plan run's bit for bit, and its wall time stays within noise
   of the no-plan run.

Then the resilience kernels score the faulted run against its twin
(recovery per fault, degraded-window SLA mass, area lost) and the
figure renders a Fig 1c-style view of the outage. Writes
``BENCH_faults.json`` into ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_common import bench_once
from repro.core.driver import VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.faults import CrashFault, FaultPlan, LatencyFault, StallFault
from repro.metrics.resilience import resilience_report
from repro.metrics.sla import calibrate_sla
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec

RATE = 800.0
DURATION = 100.0
N_KEYS = 50_000
KEY_DOMAIN = 100_000.0

PLAN = FaultPlan([
    LatencyFault(start=20.0, end=30.0, multiplier=8.0),
    StallFault(at=45.0, duration=3.0),
    CrashFault(at=70.0, recovery_seconds=2.0),
])

#: Same shape, entirely after the horizon: armed but never firing.
DORMANT_PLAN = FaultPlan([
    LatencyFault(start=DURATION * 10, end=DURATION * 11, multiplier=8.0),
    StallFault(at=DURATION * 12, duration=3.0),
])

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def build_scenario(plan=None) -> Scenario:
    spec = simple_spec(
        "steady", UniformDistribution(0, KEY_DOMAIN), rate=RATE
    )
    return Scenario(
        name="fault-recovery-80k",
        segments=[Segment(spec=spec, duration=DURATION)],
        seed=42,
        initial_keys=np.linspace(0.0, KEY_DOMAIN, N_KEYS),
        fault_plan=plan,
    )


def _run(plan=None):
    t0 = time.perf_counter()
    result = VirtualClockDriver().run(TraditionalKVStore(), build_scenario(plan))
    return result, time.perf_counter() - t0


def _assert_identical(a, b, context):
    for name in ("arrivals", "starts", "completions", "op_codes",
                 "segment_codes"):
        assert np.array_equal(
            getattr(a.columns, name), getattr(b.columns, name)
        ), f"column {name!r} diverged: {context}"


def test_fault_recovery(benchmark, figure_sink):
    baseline, baseline_s = _run(plan=None)

    state = {}

    def faulted_run():
        state["result"], state["seconds"] = _run(plan=PLAN)

    bench_once(benchmark, faulted_run)
    faulted, faulted_s = state["result"], state["seconds"]
    n = faulted.columns.arrivals.size
    assert n == int(RATE * DURATION)

    # 1. Determinism: same seed, same plan, same bits.
    replay, _ = _run(plan=PLAN)
    _assert_identical(faulted, replay, "faulted replay")

    # 2. Dormant plan == no plan, bit for bit and (loosely) in time.
    dormant, dormant_s = _run(plan=DORMANT_PLAN)
    _assert_identical(baseline, dormant, "dormant plan vs no plan")
    assert dormant_s < baseline_s * 1.5 + 0.5, (
        f"dormant fault plan cost wall time: {dormant_s:.2f}s vs "
        f"no-plan {baseline_s:.2f}s"
    )

    # Score the outage against the fault-free twin.
    sla = calibrate_sla(baseline, percentile=99.0, headroom=1.5)
    report = resilience_report(
        faulted, plan=PLAN, sla=sla, baseline=baseline, window=2.0
    )
    assert len(report.impacts) == 3
    assert report.area_lost > 0.0
    assert report.degraded_sla_mass > 0.0

    record = {
        "bench": "fault_recovery",
        "n_queries": int(n),
        "plan": PLAN.describe(),
        "baseline_s": round(baseline_s, 4),
        "faulted_s": round(faulted_s, 4),
        "dormant_s": round(dormant_s, 4),
        "sla_ms": round(sla * 1000, 4),
        "degraded_sla_mass_s": round(report.degraded_sla_mass, 4),
        "area_lost_query_seconds": round(report.area_lost, 2),
        "recovered_faults": report.recovered_faults,
        "worst_recovery_s": (
            round(report.worst_recovery_seconds, 3)
            if report.worst_recovery_seconds is not None else None
        ),
        "identical_columns": True,
    }
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    with open(os.path.join(_RESULTS_DIR, "BENCH_faults.json"), "w") as handle:
        json.dump(record, handle, indent=2)

    lines = [
        f"chaos benchmark on {n:,} queries "
        f"(B+ tree store, SLA {sla * 1000:.2f} ms)",
        f"  baseline : {baseline_s:6.2f}s wall   "
        f"dormant plan: {dormant_s:6.2f}s (bit-identical)",
        f"  faulted  : {faulted_s:6.2f}s wall",
        "  per-fault recovery:",
    ]
    for impact in report.impacts:
        recovered = ("not recovered" if impact.recovery_seconds is None
                     else f"{impact.recovery_seconds:6.2f}s")
        lines.append(
            f"    {impact.kind:<12} at {impact.at:6.1f}s  ->  {recovered}"
        )
    lines.append(
        f"  degraded SLA mass: {report.degraded_sla_mass:8.2f}s over SLA"
    )
    lines.append(
        f"  area lost:         {report.area_lost:8.1f} query-seconds"
    )
    figure_sink("fault_recovery", "\n".join(lines))
