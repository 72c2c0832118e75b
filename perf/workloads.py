"""The five workloads: one per run kind, each stressing different layers.

Every workload is built from ``--seed`` alone; the program receives only
the built ``Scenario`` / tenant objects. Simulated time is open-loop
(the scenario's arrival process); host time is a closed loop with one
client — ops run back to back, the next starting when the previous one
returns. Sizes are the constants below; ``scale`` shrinks simulated
durations only (the self-tests run at 1/50).

Protocol the harness drives::

    w = cls(seed, scale, workdir)       # part of set-up
    inputs = w.prepare()                # untimed, per op
    outcome = w.run_op(inputs, tr)      # timed: the user-visible cell
    digest, failed, errors = w.check(outcome)
    errors = w.final_check(digest)      # once, after the timed ops (if defined)
    metrics, missing = w.layers(tr, outcome)   # traced pass only
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

from perf import checks, layers
from perf import entrypoints as ep
from perf.layers import SLA, timed
from perf.tracing import NoTracing

KEYS = 50_000
KEY_DOMAIN = 1e5
BLOCK_SIZE = 65_536


@dataclass
class Outcome:
    """What one timed call produced.

    Attributes:
        queries: Simulated queries executed (the us/query denominator).
        evidence: Whatever :meth:`Workload.check` needs to verify it.
        events: Training events of the run (traced pass).
    """

    queries: int
    evidence: object
    events: list = field(default_factory=list)


def projected_queries(scenario) -> int:
    """Arrivals the scenario's arrival processes will generate."""
    return sum(
        s.spec.arrivals.projected_count(0.0, s.duration) for s in scenario.segments
    )


def linspace_keys() -> np.ndarray:
    return np.linspace(0.0, KEY_DOMAIN, KEYS)


class Workload:
    """Base: bookkeeping shared by all five workloads."""

    name = ""
    #: Ops one timed call stands for (a serve window is one op per tenant).
    ops_per_call = 1
    #: True when checking an op allocates more than the op itself, so
    #: checks must wait until peak RSS has been read.
    defer_checks = False
    #: Probes the traced pass runs, in order.
    probes: Tuple = ()
    #: Metrics whose time lies inside ``driver.run_s``; the rest is the
    #: driver's own.
    inside_run: Tuple[str, ...] = ()

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)

    def prepare(self) -> dict:
        return {}

    #: Optional once-per-run check, ``final_check(digest) -> errors``.
    final_check = None

    def context(self, tr, outcome) -> SimpleNamespace:
        raise NotImplementedError

    def layers(self, tr, outcome) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Run every probe; return ``(metrics, unavailable reasons)``."""
        ctx = self.context(tr, outcome)
        metrics: Dict[str, float] = dict(ctx.metrics)
        missing: Dict[str, str] = {}
        for probe in self.probes:
            try:
                metrics.update(probe(ctx))
            except Exception as exc:  # a moved layer must not fail the op
                for name in probe.provides:
                    missing[name] = f"{type(exc).__name__}: {exc}"
        run_s = metrics["driver.run_s"]
        inside = [n for n in self.inside_run if n not in missing]
        if len(inside) == len(self.inside_run):
            self_s = run_s - sum(metrics[n] for n in inside)
            metrics["driver.self_s"] = self_s
            metrics["driver.self_share"] = self_s / run_s
        else:
            reason = "a layer inside the run is unavailable"
            missing["driver.self_s"] = missing["driver.self_share"] = reason
        return metrics, missing


_SUT_TIMES = (
    "suts.setup_s",
    "suts.offline_train_s",
    "suts.execute_batch_s",
    "suts.on_tick_s",
)
_GENERATION_TIMES = ("workloads.arrivals_s", "workloads.next_batch_s")


class InMemoryKV(Workload):
    """``Benchmark.run`` + ``build_report`` on a B+ tree store."""

    probes = (
        layers.dataset,
        layers.generation,
        layers.sut,
        layers.bulk_hits,
        layers.index,
        layers.queueing,
        layers.recorder,
    )
    inside_run = _SUT_TIMES + _GENERATION_TIMES + (
        "queueing.fifo_s",
        "results.append_s",
        "results.build_s",
    )
    build_keys = staticmethod(linspace_keys)

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self.config = ep.BenchmarkConfig()
        self.scenario = ep.Scenario(
            name=f"perf-{self.name}",
            segments=[ep.Segment(spec=self.spec(), duration=self.DURATION * scale)],
            seed=self.seed,
            initial_keys=self.build_keys(),
        )
        self.expected = projected_queries(self.scenario)

    def run_op(self, inputs, tr) -> Outcome:
        sut = tr.wrap_sut(ep.TraditionalKVStore())
        bench = ep.Benchmark(self.config, tracer=tr.program_tracer)
        with tr.span("driver.run"):
            result = bench.run(sut, self.scenario)
        with tr.span("metrics.report"):
            ep.build_report(result, self.scenario, sla=SLA)
        return Outcome(result.num_queries, result.columns, events=result.training_events)

    def check(self, outcome):
        errors = checks.column_errors(outcome.evidence, self.expected)
        return checks.digest(outcome.evidence), int(bool(errors)), errors

    def context(self, tr, outcome):
        rec = tr.recorder
        return SimpleNamespace(
            workload=self,
            tr=tr,
            scenario=self.scenario,
            config=self.config,
            columns=outcome.evidence,
            training_events=outcome.events,
            metrics={
                "driver.run_s": rec.total("driver.run"),
                "metrics.report_s": rec.total("metrics.report"),
            },
        )


class ReadSteady(InMemoryKV):
    """The batched fast path: generation, FIFO kernel and columnar
    recording do most of the work, the SUT about a third."""

    name = "read_steady"
    DURATION = 200.0  # x 2,500 q/s = 500k queries per op

    def spec(self):
        return ep.simple_spec(
            "steady", ep.UniformDistribution(0.0, KEY_DOMAIN), rate=2500.0
        )


class WriteMix(InMemoryKV):
    """Same ``suts`` layer used the other way: every write is a scalar
    barrier, so ``execute_batch`` is nearly the whole op."""

    name = "write_mix"
    DURATION = 1.0  # x 1,500 q/s = 1,500 queries per op

    def spec(self):
        return ep.WorkloadSpec(
            name="write-mix",
            mix=ep.OperationMix(
                {
                    ep.KVOperation.READ: 0.5,
                    ep.KVOperation.UPDATE: 0.3,
                    ep.KVOperation.INSERT: 0.2,
                }
            ),
            key_drift=ep.NoDrift(ep.UniformDistribution(0.0, KEY_DOMAIN)),
            arrivals=ep.ConstantArrivals(1500.0),
        )


def hotspot_segments(low, high, fractions, rate, duration):
    """Segments whose hot range sits at each of ``fractions`` of the domain
    (``None`` = uniform)."""
    span = high - low
    out = []
    for i, fraction in enumerate(fractions):
        if fraction is None:
            dist = ep.UniformDistribution(low, high)
        else:
            dist = ep.HotspotDistribution(
                low,
                high,
                hot_start=low + fraction * span,
                hot_width=0.05 * span,
                hot_fraction=0.9,
            )
        label = f"seg-{i:02d}"
        out.append(
            ep.Segment(
                spec=ep.simple_spec(label, dist, rate=rate),
                duration=duration,
                label=label,
            )
        )
    return out


class DriftStream(Workload):
    """``run_streaming`` with spill on an adaptive learned store: the
    bounded-memory path, where the SUT is only a fifth of the op."""

    name = "drift_stream"
    defer_checks = True
    SEGMENTS = 8
    SEGMENT_DURATION = 25.0  # x 2,500 q/s x 8 = 500k queries per op
    probes = (
        layers.dataset,
        layers.generation,
        layers.sut,
        layers.bulk_hits,
        layers.index,
        layers.queueing,
        layers.fold,
        layers.spill,
    )
    inside_run = _SUT_TIMES + _GENERATION_TIMES + (
        "queueing.fifo_s",
        "metrics.fold_s",
        "metrics.finalize_s",
        "streaming.spill_write_s",
    )

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        keys = self.build_keys()
        self.config = ep.BenchmarkConfig(block_size=BLOCK_SIZE)
        self.scenario = ep.Scenario(
            name="perf-drift-stream",
            segments=hotspot_segments(
                float(keys[0]),
                float(keys[-1]),
                [0.1, 0.7] * (self.SEGMENTS // 2),
                rate=2500.0,
                duration=self.SEGMENT_DURATION * scale,
            ),
            seed=self.seed,
            initial_keys=keys,
            initial_training=ep.TrainingPhase(budget_seconds=10.0),
        )
        self.expected = projected_queries(self.scenario)
        self._spills = 0

    #: The dataset's shape is part of the workload, not of the seed: with
    #: the ``osm`` clusters re-drawn per seed the op cost ranged 1.24-2.31 s
    #: over seeds 1-8, with them fixed 1.62-1.85 s (the access stream,
    #: which does follow ``--seed``, accounts for the rest).
    DATASET_SEED = 42

    def build_keys(self) -> np.ndarray:
        return ep.build_dataset("osm", KEYS, seed=self.DATASET_SEED).keys

    @staticmethod
    def sut_factory():
        return ep.LearnedKVStore(max_fanout=160, retrain_cooldown=2.0)

    def prepare(self) -> dict:
        self._spills += 1
        return {"spill": self.workdir / f"spill-{self._spills:04d}"}

    def stream(self, inputs, tr):
        """The timed call, shared by ops and the paired spill probe."""
        sut = tr.wrap_sut(self.sut_factory())
        bench = ep.Benchmark(self.config, tracer=tr.program_tracer)
        return bench.run_streaming(
            sut, self.scenario, sla=SLA, spill_dir=inputs["spill"]
        )

    def run_op(self, inputs, tr) -> Outcome:
        with tr.span("streaming.run"):
            summary = self.stream(inputs, tr)
        return Outcome(summary.num_queries, summary, events=summary.training_events)

    @staticmethod
    def discard(directory) -> None:
        shutil.rmtree(directory, ignore_errors=True)

    def check(self, outcome):
        summary = outcome.evidence
        columns = ep.load_spilled_columns(summary.spill["directory"])
        self.discard(summary.spill["directory"])
        errors = checks.column_errors(columns, self.expected)
        if summary.num_queries != self.expected:
            errors.append(f"summary counts {summary.num_queries} queries")
        return checks.digest(columns), int(bool(errors)), errors

    def final_check(self, digest):
        """Spilled columns must equal one in-memory ``run()``, bit for bit."""
        result = ep.Benchmark().run(self.sut_factory(), self.scenario)
        if checks.digest(result.columns) != digest:
            return ["spilled columns differ from the in-memory run"]
        return []

    def context(self, tr, outcome):
        run_s = tr.recorder.total("streaming.run")
        return SimpleNamespace(
            workload=self,
            tr=tr,
            no_tracing=NoTracing(),
            scenario=self.scenario,
            config=self.config,
            columns=ep.load_spilled_columns(outcome.evidence.spill["directory"]),
            training_events=outcome.events,
            metrics={"driver.run_s": run_s, "streaming.run_s": run_s},
        )


class ServeSharded(Workload):
    """``Benchmark.serve``: the only workload where fork, pipe, pickle,
    merge and admission do the work; wall vs CPU shows parallel efficiency."""

    name = "serve_sharded"
    TENANTS = 12
    ops_per_call = TENANTS
    SHARDS = 2
    SEGMENT_QUERIES = 100_000  # x 2 segments = 200k queries per tenant
    RATE = 1500.0  # low enough that shard boundaries drain
    probes = (
        layers.dataset,
        layers.generation,
        layers.sut,
        layers.bulk_hits,
        layers.index,
        layers.queueing,
        layers.fold,
        layers.sharded,
    )
    inside_run = _SUT_TIMES + _GENERATION_TIMES + (
        "queueing.fifo_s",
        "metrics.fold_s",
        "metrics.finalize_s",
    )
    build_keys = staticmethod(linspace_keys)
    sut_factory = ep.TraditionalKVStore

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self.config = ep.BenchmarkConfig(jitter_arrivals=False)
        self.workers = min(2, os.cpu_count() or 1)
        keys = self.build_keys()
        duration = self.SEGMENT_QUERIES * scale / self.RATE
        self.tenants = [
            ep.TenantSpec(
                name=f"tenant-{i:02d}",
                sut_factory=self.sut_factory,
                scenario=ep.Scenario(
                    name=f"perf-serve-{i:02d}",
                    segments=hotspot_segments(
                        0.0, KEY_DOMAIN, [None, 0.1], self.RATE, duration
                    ),
                    seed=self.seed * 1000 + i,
                    initial_keys=keys,
                ),
                shards=self.SHARDS,
            )
            for i in range(self.TENANTS)
        ]
        self.expected = [projected_queries(t.scenario) for t in self.tenants]
        self.sampled = self.seed % self.TENANTS
        self.tenant_walls: List[float] = []
        self._last_report = None

    def run_op(self, inputs, tr) -> Outcome:
        bench = ep.Benchmark(self.config)
        with tr.span("tenancy.window"):
            report = bench.serve(self.tenants, workers=self.workers, sla=SLA)
        queries = sum(t.summary.num_queries for t in report.tenants if t.summary)
        return Outcome(queries, report)

    def check(self, outcome):
        report = outcome.evidence
        self._last_report = report
        self.tenant_walls.extend(t.wall_seconds for t in report.tenants)
        errors = []
        if report.offered != report.admitted + report.rejected:
            errors.append("ledger: offered != admitted + rejected")
        if report.failed or report.dropped:
            errors.append(f"ledger: {report.failed} failed, {report.dropped} dropped")
        if len(report.tenants) != self.TENANTS:
            errors.append(f"{len(report.tenants)} tenant reports")
        if errors:
            return "", self.TENANTS, errors
        failed = 0
        for tenant, expected in zip(report.tenants, self.expected):
            problem = None
            if tenant.status != "completed":
                problem = f"status {tenant.status}: {tenant.error}"
            elif tenant.summary.num_queries != expected:
                problem = f"{tenant.summary.num_queries} queries, {expected} projected"
            elif not tenant.summary.sharding["boundaries_drained"]:
                problem = "shard boundaries did not drain"
            if problem:
                failed += 1
                errors.append(f"{tenant.tenant}: {problem}")
        summaries = [t.summary for t in report.tenants if t.summary]
        return checks.summary_digest(summaries), failed, errors

    def _unsharded(self, tr):
        spec = self.tenants[self.sampled]
        bench = ep.Benchmark(self.config, tracer=tr.program_tracer)
        return bench.run_streaming(
            tr.wrap_sut(spec.sut_factory()), spec.scenario, sla=SLA
        )

    def final_check(self, digest):
        """One tenant's served summary must equal its unsharded session."""
        tenants = self._last_report.tenants if self._last_report else ()
        served = tenants[self.sampled].summary if self.sampled < len(tenants) else None
        if served is None:
            # The window's own check has already counted this tenant as failed.
            return []
        alone = self._unsharded(NoTracing())
        if checks.exact_summary(served) != checks.exact_summary(alone):
            return [f"tenant {self.sampled}: served summary != unsharded session"]
        return []

    def context(self, tr, outcome):
        report = outcome.evidence
        window_s = tr.recorder.total("tenancy.window")
        attempts = [a for t in report.tenants for a in t.attempts]
        busy = sum(t.wall_seconds for t in report.tenants)
        walls_ms = np.asarray(self.tenant_walls) * 1e3
        scenario = self.tenants[self.sampled].scenario
        _, unsharded_s = timed(self._unsharded, tr)
        result = ep.Benchmark(self.config).run(self.sut_factory(), scenario)
        return SimpleNamespace(
            workload=self,
            tr=tr,
            scenario=scenario,
            config=self.config,
            columns=result.columns,
            training_events=result.training_events,
            unsharded_s=unsharded_s,
            metrics={
                "driver.run_s": unsharded_s,
                "sharded.unsharded_s": unsharded_s,
                "tenancy.window_s": window_s,
                "tenancy.offered": report.offered,
                "tenancy.admitted": report.admitted,
                "tenancy.completed": report.completed,
                "tenancy.failed": report.failed,
                "tenancy.dropped": report.dropped,
                "tenancy.tenant_wall_ms_p50": float(np.percentile(walls_ms, 50)),
                "tenancy.tenant_wall_ms_p90": float(np.percentile(walls_ms, 90)),
                "workers.tasks": len(attempts),
                "workers.attempts": sum(attempts),
                "workers.retries": sum(attempts) - len(attempts),
                "workers.overhead_share": (window_s - busy / report.workers)
                / window_s,
            },
        )


class AnalyticPlans(Workload):
    """``AnalyticDriver.run`` on the stale-statistics schedule: the second
    driver and ``engine/`` + the learned optimizer, none of the KV layers."""

    name = "analytic_plans"
    SEGMENT_DURATION = 20.0  # x 15 q/s x 2 segments = 600 plans per op
    RATE = 15.0
    NEW_LOW, NEW_HIGH = 1000.0, 1200.0
    probes = (layers.sut,)
    inside_run = ("suts.setup_s", "suts.execute_batch_s")

    def __init__(self, seed, scale, workdir) -> None:
        super().__init__(seed, scale, workdir)
        self.duration = self.SEGMENT_DURATION * scale
        self.expected = 2 * int(self.RATE * self.duration)

    def _workload(self):
        drift = ep.AbruptDrift(
            [
                ep.UniformDistribution(0.0, 150.0),
                ep.UniformDistribution(self.NEW_LOW, self.NEW_HIGH - 80.0),
            ],
            [self.duration],
        )
        return ep.AnalyticWorkload(
            threshold_drift=drift, window=80.0, join_fraction=0.8, seed=self.seed + 3
        )

    def prepare(self) -> dict:
        """A fresh catalog per op: the mid-run bulk load mutates it."""
        catalog = ep.build_analytic_catalog(
            n_orders=4000, n_customers=400, seed=self.seed
        )
        rng = np.random.default_rng(self.seed + 29)

        def bulk_load():
            catalog.get("orders").append_rows(
                [
                    {
                        "oid": 100_000 + i,
                        "cid": int(rng.integers(0, 400)),
                        "amount": float(rng.uniform(self.NEW_LOW, self.NEW_HIGH)),
                    }
                    for i in range(1500)
                ]
            )

        return {
            "sut": ep.LearnedOptimizerSUT(catalog, seed=self.seed),
            "segments": [
                ("before-load", self._workload(), self.duration, self.RATE),
                ("after-load", self._workload(), self.duration, self.RATE),
            ],
            "hooks": {"after-load": bulk_load},
        }

    def run_op(self, inputs, tr) -> Outcome:
        driver = ep.AnalyticDriver(seed=self.seed, tracer=tr.program_tracer)
        with tr.span("analytic.run"):
            result = driver.run(
                tr.wrap_sut(inputs["sut"]),
                inputs["segments"],
                scenario_name="perf-analytic-plans",
                segment_hooks=inputs["hooks"],
            )
        return Outcome(result.num_queries, result.columns)

    def check(self, outcome):
        errors = checks.column_errors(outcome.evidence, self.expected)
        return checks.digest(outcome.evidence), int(bool(errors)), errors

    def context(self, tr, outcome):
        run_s = tr.recorder.total("analytic.run")
        return SimpleNamespace(
            tr=tr,
            metrics={
                "driver.run_s": run_s,
                "analytic.run_s": run_s,
                "analytic.plans_per_s": outcome.queries / run_s,
            },
        )

    def layers(self, tr, outcome):
        metrics, missing = super().layers(tr, outcome)
        for ours, theirs in (
            ("analytic.execute_batch_s", "suts.execute_batch_s"),
            ("analytic.self_s", "driver.self_s"),
        ):
            if theirs in missing:
                missing[ours] = missing[theirs]
            else:
                metrics[ours] = metrics[theirs]
        return metrics, missing


WORKLOADS = {
    cls.name: cls
    for cls in (ReadSteady, WriteMix, DriftStream, ServeSharded, AnalyticPlans)
}
