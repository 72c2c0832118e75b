"""SV — multi-tenant serving: zero drops, accounted admissions, scaling.

Two claims pinned here. First, the *serve-smoke contract*: offering 10
tenants to ``repro serve`` with a burst-8 token bucket must admit
exactly 8, reject exactly 2 (with the rejection recorded on each
tenant's report), complete every admitted tenant, and drop none — the
ledger reconciles (``offered == admitted + rejected``,
``admitted == completed + failed + violations``) and the CLI exits 0.
The smoke drives the real CLI entry point in-process, so argument
parsing, the shared worker pool, per-tenant SLA accounting, and the
JSON export are all on the hook. Second, *tenants-vs-throughput
scaling*: serving windows of 1/2/4/8 tenants records aggregate service
throughput (completed queries per wall second) per window size — the
EXPERIMENTS.md T9 curve. Per-tenant summaries must be identical whether
the window runs serially or concurrently (the determinism contract).

Writes ``BENCH_serve.json`` into ``benchmarks/results/`` (ledger,
per-window scaling rows, determinism verdict). Scale knob:
``REPRO_BENCH_SERVE_QUERIES`` overrides the 8000 queries/tenant
default.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from bench_common import bench_once
from repro.cli import main as cli_main
from repro.core.scenario import Scenario, Segment
from repro.core.tenancy import BenchmarkServer, TenantSpec
from repro.observability import Tracer
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec

RATE = 1500.0
QUERIES_PER_TENANT = int(os.environ.get("REPRO_BENCH_SERVE_QUERIES", 8_000))
N_KEYS = 20_000
KEY_DOMAIN = 100_000.0
OFFERED = 10
BURST = 8
SLA = 0.050

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_RECORD_PATH = os.path.join(_RESULTS_DIR, "BENCH_serve.json")


def _scenario(seed: int) -> Scenario:
    """One tenant's stream: a single uniform segment at RATE."""
    duration = QUERIES_PER_TENANT / RATE
    return Scenario(
        name="serve-tenant",
        segments=[
            Segment(
                spec=simple_spec(
                    "w", UniformDistribution(0, KEY_DOMAIN), rate=RATE
                ),
                duration=duration,
            )
        ],
        seed=seed,
        initial_keys=np.linspace(0.0, KEY_DOMAIN, N_KEYS),
    )


def _tenants(n: int) -> list:
    return [
        TenantSpec(
            name=f"tenant-{i:02d}",
            sut_factory=TraditionalKVStore,
            scenario=_scenario(seed=100 + i),
        )
        for i in range(n)
    ]


def _update_record(**fields):
    """Merge fields into ``BENCH_serve.json`` (tests run separately)."""
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record.update(fields)
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)


def test_serve_smoke_cli(tmp_path, figure_sink):
    """10 offered through ``repro serve``: 8 admitted, 2 rejected, 0 dropped."""
    export = tmp_path / "serve-report.json"
    rc = cli_main([
        "serve",
        "--tenants", str(OFFERED),
        "--sut", "btree-kv", "hash-kv",
        "--admit-burst", str(BURST),
        "--admit-rate", "0",
        "--workers", "2",
        "--keys", "5000",
        "--rate", "800",
        "--duration", str(QUERIES_PER_TENANT / 800),
        "--sla", str(SLA),
        "--export", str(export),
    ])
    assert rc == 0, "serve CLI reported dropped or failed tenants"
    with open(export) as handle:
        report = json.load(handle)

    assert report["offered"] == OFFERED
    assert report["admitted"] == BURST
    assert report["rejected"] == OFFERED - BURST
    assert report["completed"] == BURST
    assert report["failed"] == 0
    assert report["dropped"] == 0, "an admitted tenant vanished"
    assert report["offered"] == report["admitted"] + report["rejected"]
    assert report["admitted"] == (
        report["completed"] + report["failed"] + report["violations"]
    )
    statuses = [t["status"] for t in report["tenants"]]
    assert statuses.count("rejected") == OFFERED - BURST
    for tenant in report["tenants"]:
        if tenant["status"] == "completed":
            assert tenant["summary"]["num_queries"] > 0
            assert tenant["sla_report"]["mean_throughput"] > 0
        else:
            assert "token bucket empty" in tenant["error"]

    _update_record(
        bench="serve",
        smoke={
            "offered": report["offered"],
            "admitted": report["admitted"],
            "rejected": report["rejected"],
            "completed": report["completed"],
            "dropped": report["dropped"],
            "workers": report["workers"],
            "wall_s": round(report["wall_seconds"], 2),
        },
    )
    figure_sink(
        "serve_smoke",
        "\n".join(
            [
                f"serve smoke: {report['offered']} offered -> "
                f"{report['admitted']} admitted + "
                f"{report['rejected']} rejected (burst {BURST})",
                f"  completed : {report['completed']}  "
                f"failed: {report['failed']}  dropped: {report['dropped']}",
                f"  pool      : {report['workers']} workers, "
                f"{report['wall_seconds']:.2f}s wall",
            ]
        ),
    )


def test_tenants_vs_throughput_scaling(benchmark, figure_sink):
    """Windows of 1/2/4/8 tenants: the T9 service-throughput curve."""
    cpus = os.cpu_count() or 1
    rows = []

    def sweep():
        for n in (1, 2, 4, 8):
            tracer = Tracer()
            server = BenchmarkServer(workers=min(4, max(1, cpus)), tracer=tracer)
            t0 = time.perf_counter()
            report = server.serve(_tenants(n), sla=SLA)
            wall = time.perf_counter() - t0
            assert report.completed == n and report.dropped == 0
            queries = sum(t.summary.num_queries for t in report.tenants)
            # Resident workers: with no failed attempt a window forks
            # once per slot it can fill (one inline slot forks nothing).
            forks = tracer.counters.get("pool.forks", 0)
            slots = min(report.workers, n)
            assert forks == (slots if report.workers > 1 else 0)
            rows.append(
                {
                    "tenants": n,
                    "queries": queries,
                    "wall_s": round(wall, 2),
                    "service_qps": round(queries / wall, 1),
                    "workers": report.workers,
                    "pool_forks": forks,
                }
            )

    bench_once(benchmark, sweep)

    # Determinism across concurrency: the 4-tenant window re-run
    # serially must reproduce every per-tenant summary exactly.
    concurrent = BenchmarkServer(workers=min(4, max(1, cpus))).serve(
        _tenants(4), sla=SLA
    )
    serial = BenchmarkServer(workers=1).serve(_tenants(4), sla=SLA)
    identical = all(
        a.summary.to_dict() == b.summary.to_dict()
        for a, b in zip(serial.tenants, concurrent.tenants)
    )
    assert identical, "per-tenant summaries depend on the concurrency level"

    _update_record(
        queries_per_tenant=QUERIES_PER_TENANT,
        cpu_count=cpus,
        scaling=rows,
        deterministic_across_workers=True,
    )
    figure_sink(
        "serve_scaling",
        "\n".join(
            [
                f"tenants vs service throughput "
                f"({QUERIES_PER_TENANT:,} queries/tenant, {cpus} CPUs)",
            ]
            + [
                f"  {row['tenants']} tenant(s): {row['wall_s']:6.2f}s wall, "
                f"{row['service_qps']:10,.1f} q/s aggregate "
                f"({row['workers']} workers)"
                for row in rows
            ]
            + ["  determinism  : serial == concurrent, bit-identical"]
        ),
    )
