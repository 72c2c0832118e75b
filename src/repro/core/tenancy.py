"""Multi-tenant benchmark serving (§V-A, long-running mode).

The paper proposes deploying the benchmark as a cloud service that
evaluates systems on behalf of users. :class:`BenchmarkServer` is the
scheduler for that mode: each *tenant* is one (SUT, scenario, seed)
streaming session, and a single ``serve()`` call multiplexes every
admitted tenant's shards onto one shared
:class:`~repro.core.workers.WorkerPool` through
:func:`~repro.core.sharded.run_shard_sessions` — the same dispatcher
``Benchmark.run_sharded_streaming`` runs its one session on.

The serving pipeline, in order:

1. **Admission control.** Tenants pass a deterministic token bucket
   keyed on their *virtual* ``arrival_time`` (no wall clock — replaying
   the same tenant list yields the same admit/reject split). Rejected
   tenants never touch the hold-out vault or the pool.
2. **Hold-out vault.** A tenant naming a sealed ``holdout`` checks it
   out of the :class:`~repro.core.holdout.HoldoutRegistry`; the
   single-shot rule surfaces as a ``"violation"`` tenant status rather
   than aborting the other tenants. A hold-out tenant that ends
   ``"failed"`` has its checkout refunded, and so does every hold-out
   of a serve call that raises. Its report is sealed: no seed, no spill
   manifest, and the summary's scenario description is only the name
   and fingerprint.
3. **Fair-share scheduling.** Every tenant's shard plan is interleaved
   round-robin — shard 0 of every tenant, then shard 1, … — so one
   large tenant cannot starve the rest of the pool.
4. **SLA accounting.** Each completed session's merged
   :class:`~repro.core.streaming.StreamingRunSummary` is distilled into
   a per-tenant SLA report (:func:`sla_accounting`), reusing the
   streaming ``sla``/``latency``/``throughput``/``resilience``
   accumulator payloads from :mod:`repro.metrics`.

Per-tenant results are deterministic at fixed seeds: each shard runs on
the virtual clock in its own process, so the concurrency level changes
wall time but never a summary (pinned by ``tests/core/test_tenancy.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.benchmark import BenchmarkConfig
from repro.core.holdout import HoldoutRegistry
from repro.core.scenario import Scenario
from repro.core.sharded import ShardSession, run_shard_sessions
from repro.core.streaming import ShardSpec, StreamingRunSummary
from repro.core.sut import SystemUnderTest
from repro.core.workers import WorkerPool, format_task_error
from repro.errors import HoldoutViolationError, TenancyError
from repro.observability import NULL_TRACER

__all__ = [
    "AdmissionPolicy",
    "BenchmarkServer",
    "ServiceReport",
    "TenantReport",
    "TenantSpec",
    "TokenBucket",
    "sla_accounting",
]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Token-bucket admission knobs for a serving window.

    Attributes:
        burst: Bucket capacity — tenants admitted back-to-back before
            the bucket must refill.
        refill_rate: Tokens regained per second of *virtual* arrival
            time. ``0`` makes ``burst`` a hard cap on the window.
    """

    burst: int = 8
    refill_rate: float = 1.0


class TokenBucket:
    """Deterministic token bucket over virtual arrival times.

    Admission decisions depend only on the tenants' declared
    ``arrival_time`` values, never the wall clock, so a serve call is
    replayable: the same tenant list always yields the same
    admit/reject split.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        """Validate the policy and start with a full bucket."""
        if policy.burst < 1:
            raise TenancyError(f"burst must be >= 1, got {policy.burst}")
        if policy.refill_rate < 0:
            raise TenancyError(
                f"refill_rate must be >= 0, got {policy.refill_rate}"
            )
        self.policy = policy
        self._tokens = float(policy.burst)
        self._last = 0.0

    def admit(self, now: float) -> bool:
        """Spend one token at virtual time ``now`` if one is available.

        ``now`` values must be non-decreasing across calls (the server
        sorts tenants by arrival time before admitting).
        """
        if now < self._last:
            raise TenancyError(
                f"arrival times must be non-decreasing; got {now} after "
                f"{self._last}"
            )
        self._tokens = min(
            float(self.policy.burst),
            self._tokens + (now - self._last) * self.policy.refill_rate,
        )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass
class TenantSpec:
    """One tenant: a (SUT, scenario, seed) streaming session request.

    Attributes:
        name: Unique tenant name within a serve call (also the tenant's
            spill subdirectory when spilling is on).
        sut_factory: Zero-argument callable building a fresh SUT; each
            shard process builds its own instance.
        scenario: The scenario to stream. Exactly one of ``scenario``
            and ``holdout`` must be set.
        holdout: Name of a sealed hold-out in the server's registry;
            checked out single-shot per SUT name.
        seed: Optional seed override applied to ``scenario`` (forbidden
            for hold-out tenants — sealed contents are immutable).
        sla: Per-tenant SLA threshold; falls back to the serve-call SLA.
        shards: Shard count for this tenant's session (see
            :func:`~repro.core.sharded.plan_shards`).
        arrival_time: Virtual submission time used by admission control
            and nothing else.
    """

    name: str
    sut_factory: Callable[[], SystemUnderTest]
    scenario: Optional[Scenario] = None
    holdout: Optional[str] = None
    seed: Optional[int] = None
    sla: Optional[float] = None
    shards: int = 1
    arrival_time: float = 0.0


@dataclass
class TenantReport:
    """Outcome of one tenant's session.

    Attributes:
        tenant: The tenant's name.
        sut_name: Name of the SUT evaluated (empty for rejected tenants
            — the factory is never invoked for them).
        scenario_name: Name of the scenario streamed ("" if the tenant
            never reached one).
        seed: The effective scenario seed, when a scenario was resolved;
            ``None`` for hold-out tenants (sealed).
        status: ``"completed"``, ``"failed"`` (a shard exhausted its
            retry budget), ``"rejected"`` (admission control), or
            ``"violation"`` (hold-out single-shot rule).
        error: Failure detail for non-completed tenants.
        attempts: Per-shard attempt counts, in shard order.
        shards: Number of shards the session planned.
        wall_seconds: Summed wall time of the resolving attempts.
        fingerprint: The scenario's content hash (verifiable
            provenance; always published for hold-out tenants).
        summary: The merged streaming summary for completed sessions.
            A hold-out tenant's ``scenario_description`` is only
            ``{"name", "fingerprint"}`` and its ``spill`` is ``None``.
        sla_report: :func:`sla_accounting` distillation for completed
            sessions.
    """

    tenant: str
    sut_name: str = ""
    scenario_name: str = ""
    seed: Optional[int] = None
    status: str = "completed"
    error: Optional[str] = None
    attempts: List[int] = field(default_factory=list)
    shards: int = 0
    wall_seconds: float = 0.0
    fingerprint: Optional[str] = None
    summary: Optional[StreamingRunSummary] = None
    sla_report: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Whether the session completed and produced a summary."""
        return self.status == "completed"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (the report's wire format)."""
        return {
            "tenant": self.tenant,
            "sut_name": self.sut_name,
            "scenario_name": self.scenario_name,
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "attempts": list(self.attempts),
            "shards": self.shards,
            "wall_seconds": self.wall_seconds,
            "fingerprint": self.fingerprint,
            "summary": self.summary.to_dict() if self.summary else None,
            "sla_report": self.sla_report,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TenantReport":
        """Reconstruct a report from :meth:`to_dict` output."""
        summary = data.get("summary")
        return cls(
            tenant=data["tenant"],
            sut_name=data.get("sut_name", ""),
            scenario_name=data.get("scenario_name", ""),
            seed=data.get("seed"),
            status=data.get("status", "completed"),
            error=data.get("error"),
            attempts=list(data.get("attempts", [])),
            shards=data.get("shards", 0),
            wall_seconds=data.get("wall_seconds", 0.0),
            fingerprint=data.get("fingerprint"),
            summary=(
                StreamingRunSummary.from_dict(summary) if summary else None
            ),
            sla_report=data.get("sla_report"),
        )


@dataclass
class ServiceReport:
    """One serve call's outcome: per-tenant reports plus the ledger.

    The counters must reconcile: ``offered == admitted + rejected`` and
    ``admitted == completed + failed + violations + dropped``, with
    ``dropped`` (admitted tenants that produced no outcome) pinned to
    zero by the smoke benchmark.
    """

    tenants: List[TenantReport] = field(default_factory=list)
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    violations: int = 0
    completed: int = 0
    failed: int = 0
    dropped: int = 0
    workers: int = 0
    wall_seconds: float = 0.0

    def tenant(self, name: str) -> TenantReport:
        """Look up one tenant's report by name."""
        for report in self.tenants:
            if report.tenant == name:
                return report
        raise TenancyError(
            f"no tenant {name!r} in report; tenants: "
            f"{[r.tenant for r in self.tenants]}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (the report's wire format)."""
        return {
            "tenants": [report.to_dict() for report in self.tenants],
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "violations": self.violations,
            "completed": self.completed,
            "failed": self.failed,
            "dropped": self.dropped,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceReport":
        """Reconstruct a report from :meth:`to_dict` output."""
        return cls(
            tenants=[
                TenantReport.from_dict(entry)
                for entry in data.get("tenants", [])
            ],
            offered=data.get("offered", 0),
            admitted=data.get("admitted", 0),
            rejected=data.get("rejected", 0),
            violations=data.get("violations", 0),
            completed=data.get("completed", 0),
            failed=data.get("failed", 0),
            dropped=data.get("dropped", 0),
            workers=data.get("workers", 0),
            wall_seconds=data.get("wall_seconds", 0.0),
        )


def sla_accounting(
    summary: StreamingRunSummary, sla: Optional[float]
) -> Dict[str, Any]:
    """Distill a session summary into a per-tenant SLA report.

    Reuses the streaming accumulator payloads already in
    ``summary.metrics`` — ``throughput``, ``latency``, ``sla`` bands,
    and the :mod:`repro.metrics.resilience` rollup when the scenario
    carried a fault plan — so serving adds zero extra passes over the
    stream.
    """
    report: Dict[str, Any] = {
        "sla": sla,
        "queries": summary.num_queries,
        "mean_throughput": summary.mean_throughput(),
    }
    throughput = summary.metrics.get("throughput")
    if throughput is not None:
        report["mean_throughput"] = throughput.get(
            "mean_throughput", report["mean_throughput"]
        )
        report["throughput_cv"] = throughput.get("cv", 0.0)
    latency = summary.metrics.get("latency")
    if latency is not None:
        report["latency_mean"] = latency.get("mean", 0.0)
        report["latency_max"] = latency.get("max", 0.0)
    bands = summary.metrics.get("sla")
    if bands is not None:
        within = sum(int(row[1]) for row in bands.get("bands", []))
        violated = sum(int(row[2]) for row in bands.get("bands", []))
        total = within + violated
        report["within_sla"] = within
        report["violated_sla"] = violated
        report["violation_fraction"] = violated / total if total else 0.0
        report["meets_sla"] = violated == 0
    resilience = summary.metrics.get("resilience")
    if resilience is not None:
        impacts = resilience.get("impacts", [])
        recoveries = [
            impact["recovery_seconds"]
            for impact in impacts
            if impact.get("recovery_seconds") is not None
        ]
        report["faults"] = len(impacts)
        report["recovered_faults"] = len(recoveries)
        report["worst_recovery_seconds"] = (
            max(recoveries) if recoveries else None
        )
        report["degraded_sla_mass"] = resilience.get("degraded_sla_mass")
    return report


class BenchmarkServer:
    """Long-running multi-tenant scheduler over the shared worker pool.

    Args:
        config: Benchmark knobs shared by every tenant session.
        workers: Concurrent worker-process slots for the shared pool;
            ``None`` sizes to ``min(cpu_count, total shards)``. ``1``
            (with no ``tenant_timeout``) runs sessions inline, which
            keeps non-picklable SUT factories (lambdas) working.
        admission: Token-bucket admission policy; ``None`` disables
            admission control (every tenant is admitted).
        registry: The hold-out vault tenants may check scenarios out
            of; a fresh empty registry by default.
        max_attempts: Per-shard attempt budget (crashes, raises, and
            timeouts all consume it).
        tenant_timeout: Per-attempt wall-clock kill deadline in seconds.
        retry_backoff: Base of the exponential retry backoff.
        tracer: Optional :class:`~repro.observability.Tracer`; the
            server emits ``service.*`` counters and per-phase spans.
    """

    def __init__(
        self,
        config: Optional[BenchmarkConfig] = None,
        workers: Optional[int] = None,
        admission: Optional[AdmissionPolicy] = None,
        registry: Optional[HoldoutRegistry] = None,
        max_attempts: int = 2,
        tenant_timeout: Optional[float] = None,
        retry_backoff: float = 0.25,
        tracer=None,
    ) -> None:
        """Validate the knobs and wire the vault + tracer."""
        if workers is not None and workers < 1:
            raise TenancyError(f"workers must be >= 1, got {workers}")
        self.config = config or BenchmarkConfig()
        self.workers = workers
        self.admission = admission
        self.registry = registry or HoldoutRegistry()
        self.max_attempts = int(max_attempts)
        self.tenant_timeout = tenant_timeout
        self.retry_backoff = float(retry_backoff)
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def publish_holdout(self, scenario: Scenario) -> str:
        """Operator API: seal a scenario into the server's vault."""
        return self.registry.register(scenario)

    def serve(
        self,
        tenants: Sequence[TenantSpec],
        sla: Optional[float] = None,
        spill_dir=None,
        accumulator_factory=None,
    ) -> ServiceReport:
        """Run every tenant session; return the full service ledger.

        Tenant isolation is the contract: one tenant failing (or being
        rejected, or violating the hold-out rule) never aborts the
        others, and every offered tenant comes back with exactly one
        :class:`TenantReport`.

        Args:
            tenants: The serving window's tenant specs (unique names).
            sla: Default SLA threshold for tenants that set none.
            spill_dir: When set, each tenant spills per-query columns
                under ``spill_dir/<tenant name>``.
            accumulator_factory: Optional picklable
                ``scenario -> accumulators`` override shared by all
                tenants.
        """
        specs = list(tenants)
        self._validate(specs)
        start = time.perf_counter()
        reports: List[Optional[TenantReport]] = [None] * len(specs)
        checkouts: List[Tuple[str, str]] = []
        try:
            with self._tracer.span("serve", phase="serve", tenants=len(specs)):
                planned = self._admit(
                    specs, reports, sla, spill_dir, accumulator_factory,
                    checkouts,
                )
                entries = _fair_share(
                    [session for _i, _name, session in planned]
                )
                # The explicit setting, else bounded by cpus and shard load.
                workers = self.workers or max(
                    1, min(os.cpu_count() or 1, len(entries))
                )
                if entries:
                    pool = WorkerPool(
                        workers=workers,
                        max_attempts=self.max_attempts,
                        timeout=self.tenant_timeout,
                        retry_backoff=self.retry_backoff,
                    )
                    run_shard_sessions(
                        entries, self.config.driver_config(), pool,
                        self._tracer,
                    )
                for i, sut_name, session in planned:
                    reports[i] = self._report(
                        sut_name, session, specs[i].holdout
                    )
        except BaseException:
            # A call that raises returns no report: refund its hold-outs.
            for holdout, sut_name in checkouts:
                self.registry.release(holdout, sut_name)
            raise
        ledger = [report for report in reports if report is not None]
        assert len(ledger) == len(specs)
        counts = {"rejected": 0, "violation": 0, "completed": 0, "failed": 0}
        for report in ledger:
            counts[report.status] = counts.get(report.status, 0) + 1
        admitted = len(specs) - counts["rejected"]
        return ServiceReport(
            tenants=ledger,
            offered=len(specs),
            admitted=admitted,
            rejected=counts["rejected"],
            violations=counts["violation"],
            completed=counts["completed"],
            failed=counts["failed"],
            dropped=admitted
            - counts["completed"]
            - counts["failed"]
            - counts["violation"],
            workers=workers,
            wall_seconds=time.perf_counter() - start,
        )

    # -- request validation ------------------------------------------------------------

    def _validate(self, specs: List[TenantSpec]) -> None:
        """Reject malformed windows before any tenant spends anything."""
        seen = set()
        for spec in specs:
            if spec.name in seen:
                raise TenancyError(f"duplicate tenant name {spec.name!r}")
            seen.add(spec.name)
            if (spec.scenario is None) == (spec.holdout is None):
                raise TenancyError(
                    f"tenant {spec.name!r} must set exactly one of "
                    "scenario and holdout"
                )
            if spec.holdout is not None:
                if spec.holdout not in self.registry.names():
                    raise TenancyError(
                        f"tenant {spec.name!r} names unknown hold-out "
                        f"{spec.holdout!r}; registered: "
                        f"{self.registry.names()}"
                    )
                if spec.seed is not None:
                    raise TenancyError(
                        f"tenant {spec.name!r} cannot override the seed "
                        "of a sealed hold-out"
                    )
            if spec.shards < 1:
                raise TenancyError(
                    f"tenant {spec.name!r}: shards must be >= 1, got "
                    f"{spec.shards}"
                )
            if spec.arrival_time < 0:
                raise TenancyError(
                    f"tenant {spec.name!r}: arrival_time must be >= 0, "
                    f"got {spec.arrival_time}"
                )

    # -- admission + session planning --------------------------------------------------

    def _admit(
        self,
        specs: List[TenantSpec],
        reports: List[Optional[TenantReport]],
        sla: Optional[float],
        spill_dir,
        accumulator_factory,
        checkouts: List[Tuple[str, str]],
    ) -> List[Tuple[int, str, ShardSession]]:
        """Admit tenants in arrival order; plan a session for each.

        Returns ``(spec index, SUT name, session)`` per planned session
        and appends every hold-out checkout it makes to ``checkouts``.
        Rejected tenants get their report here and never touch the
        hold-out vault; hold-out violations and factories that raise
        get theirs without aborting the window.
        """
        bucket = TokenBucket(self.admission) if self.admission else None
        admitted: List[Tuple[int, str, ShardSession]] = []
        order = sorted(
            range(len(specs)), key=lambda i: (specs[i].arrival_time, i)
        )
        for i in order:
            spec = specs[i]
            if bucket is not None and not bucket.admit(spec.arrival_time):
                self._tracer.counter("service.rejected")
                reports[i] = TenantReport(
                    tenant=spec.name,
                    status="rejected",
                    error=(
                        "admission control: token bucket empty "
                        f"(burst={self.admission.burst}, "
                        f"refill_rate={self.admission.refill_rate}/s)"
                    ),
                )
                continue
            self._tracer.counter("service.admitted")
            try:
                sut_name = spec.sut_factory().name
            except Exception as exc:  # isolation: only this tenant fails
                self._tracer.counter("service.failed")
                reports[i] = TenantReport(
                    tenant=spec.name,
                    status="failed",
                    error=format_task_error(exc),
                )
                continue
            if spec.holdout is not None:
                try:
                    scenario = self.registry.checkout(spec.holdout, sut_name)
                except HoldoutViolationError as exc:
                    self._tracer.counter("service.violations")
                    reports[i] = TenantReport(
                        tenant=spec.name,
                        sut_name=sut_name,
                        scenario_name=spec.holdout,
                        status="violation",
                        error=str(exc),
                        fingerprint=self.registry.fingerprint(spec.holdout),
                    )
                    continue
                checkouts.append((spec.holdout, sut_name))
            else:
                scenario = spec.scenario
                if spec.seed is not None and spec.seed != scenario.seed:
                    scenario = replace(scenario, seed=spec.seed)
            session = ShardSession.open(
                spec.name,
                spec.sut_factory,
                scenario,
                spec.shards,
                accumulator_factory=accumulator_factory,
                sla=spec.sla if spec.sla is not None else sla,
                spill_dir=(
                    Path(spill_dir) / spec.name
                    if spill_dir is not None
                    else None
                ),
            )
            admitted.append((i, sut_name, session))
        return admitted

    # -- reporting ---------------------------------------------------------------------

    def _report(
        self, sut_name: str, session: ShardSession, holdout: Optional[str]
    ) -> TenantReport:
        """One resolved session's tenant report.

        A failed hold-out session is refunded: it produced no result,
        so the same SUT name may run the hold-out again. A hold-out
        report is sealed — it carries the SUT's results but neither the
        seed, ``scenario.describe()`` nor the spill manifest (the
        operator reads the columns from ``spill_dir/<tenant>``).
        """
        fingerprint = session.scenario.fingerprint()
        report = TenantReport(
            tenant=session.name,
            sut_name=sut_name,
            scenario_name=session.scenario.name,
            seed=None if holdout is not None else session.scenario.seed,
            attempts=session.attempts,
            shards=len(session.plan),
            wall_seconds=session.wall_seconds,
            fingerprint=fingerprint,
        )
        if session.error is not None:
            self._tracer.counter("service.failed")
            report.status, report.error = "failed", session.error
            if holdout is not None:
                self.registry.release(holdout, sut_name)
            return report
        self._tracer.counter("service.completed")
        report.summary = session.summary
        if holdout is not None:
            report.summary = replace(
                session.summary,
                scenario_description={"name": holdout, "fingerprint": fingerprint},
                spill=None,
            )
        report.sla_report = sla_accounting(session.summary, session.sla)
        return report


def _fair_share(
    sessions: List[ShardSession],
) -> List[Tuple[ShardSession, ShardSpec]]:
    """Round-robin interleave of every session's shard plan.

    Shard 0 of every tenant dispatches before any tenant's shard 1, so
    pool slots rotate across tenants instead of draining one tenant's
    whole plan first — fair share without a priority queue. (Execution
    order never affects results; sessions are deterministic per shard.)
    """
    entries: List[Tuple[ShardSession, ShardSpec]] = []
    width = max((len(session.plan) for session in sessions), default=0)
    for position in range(width):
        for session in sessions:
            if position < len(session.plan):
                entries.append((session, session.plan[position]))
    return entries
