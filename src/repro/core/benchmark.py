"""The benchmark facade.

:class:`Benchmark` bundles a driver configuration and provides the two
entry points users need: run one SUT through a scenario, or run several
SUTs through the same scenario for comparison. All heavy lifting lives
in :class:`~repro.core.driver.VirtualClockDriver`; this layer exists so
examples and benchmark harnesses read like the paper's workflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.hardware import CPU, HardwareProfile
from repro.core.results import RunResult
from repro.core.scenario import Scenario
from repro.core.sut import SystemUnderTest
from repro.errors import RunnerError


@dataclass
class BenchmarkConfig:
    """User-facing benchmark configuration.

    Attributes:
        online_hardware: Hardware profile charged for online retraining.
        jitter_arrivals: Randomize sub-second arrival offsets.
        max_queries: Per-run query-count safety valve.
        servers: Parallel service slots (concurrency level).
        block_size: Cap on queries per batched execution block (see
            :class:`~repro.core.driver.DriverConfig`); ``None`` means the
            driver's default bound of 65,536, not "unbounded".
    """

    online_hardware: HardwareProfile = CPU
    jitter_arrivals: bool = True
    max_queries: int = 2_000_000
    servers: int = 1
    block_size: Optional[int] = None

    def driver_config(self) -> DriverConfig:
        """Translate to the driver's configuration object."""
        return DriverConfig(
            online_hardware=self.online_hardware,
            jitter_arrivals=self.jitter_arrivals,
            max_queries=self.max_queries,
            servers=self.servers,
            block_size=self.block_size,
        )


class Benchmark:
    """Runs scenarios against systems under test.

    Args:
        config: Benchmark knobs (defaults throughout).
        tracer: Optional :class:`~repro.observability.Tracer` shared by
            every run this facade executes; ``None`` keeps the no-op
            default (zero overhead).
    """

    def __init__(
        self, config: Optional[BenchmarkConfig] = None, tracer=None
    ) -> None:
        """Build the facade and its underlying driver."""
        self.config = config or BenchmarkConfig()
        self._tracer = tracer
        self._driver = VirtualClockDriver(self.config.driver_config(), tracer=tracer)

    def run(self, sut: SystemUnderTest, scenario: Scenario) -> RunResult:
        """Run one SUT through ``scenario``."""
        return self._driver.run(sut, scenario)

    def run_streaming(
        self,
        sut: SystemUnderTest,
        scenario: Scenario,
        accumulators=None,
        sla: Optional[float] = None,
        spill_dir=None,
    ):
        """Run one SUT through ``scenario`` in bounded memory.

        Passthrough to
        :meth:`~repro.core.driver.VirtualClockDriver.run_streaming`;
        returns a :class:`~repro.core.streaming.StreamingRunSummary`.
        """
        return self._driver.run_streaming(
            sut,
            scenario,
            accumulators=accumulators,
            sla=sla,
            spill_dir=spill_dir,
        )

    def run_sharded_streaming(
        self,
        sut_factory: Callable[[], SystemUnderTest],
        scenario: Scenario,
        shards: int = 2,
        accumulator_factory=None,
        sla: Optional[float] = None,
        spill_dir=None,
        max_attempts: int = 2,
        shard_timeout: Optional[float] = None,
    ):
        """Run one SUT through ``scenario`` across shard processes.

        Takes a factory rather than an instance — each shard process
        builds its own SUT from it, so the factory must be picklable;
        this process never calls it. The run is one
        :class:`~repro.core.sharded.ShardSession` on a pool with one slot
        per planned shard — the dispatcher :meth:`serve` runs tenants on
        (see :mod:`repro.core.sharded` for the equivalence contract).
        Returns the merged
        :class:`~repro.core.streaming.StreamingRunSummary`; a shard that
        exhausts ``max_attempts`` raises
        :class:`~repro.errors.RunnerError` once the other shards finish.
        """
        from repro.core.sharded import ShardSession, run_shard_sessions
        from repro.core.workers import WorkerPool

        session = ShardSession.open(
            scenario.name,
            sut_factory,
            scenario,
            shards,
            accumulator_factory=accumulator_factory,
            sla=sla,
            spill_dir=spill_dir,
        )
        pool = WorkerPool(
            workers=len(session.plan),
            max_attempts=max_attempts,
            timeout=shard_timeout,
        )
        entries = [(session, shard) for shard in session.plan]
        run_shard_sessions(
            entries, self.config.driver_config(), pool, self._tracer
        )
        if session.error is not None:
            raise RunnerError(session.error)
        return session.summary

    def serve(
        self,
        tenants,
        workers: Optional[int] = None,
        admission=None,
        registry=None,
        sla: Optional[float] = None,
        spill_dir=None,
        max_attempts: int = 2,
        tenant_timeout: Optional[float] = None,
    ):
        """Run a multi-tenant serving window over this configuration.

        Builds a :class:`~repro.core.tenancy.BenchmarkServer` sharing
        this facade's config and serves the given
        :class:`~repro.core.tenancy.TenantSpec` list; returns the
        :class:`~repro.core.tenancy.ServiceReport` ledger. See the
        tenancy module for admission control, fair-share scheduling,
        and hold-out vault semantics.
        """
        from repro.core.tenancy import BenchmarkServer

        server = BenchmarkServer(
            config=self.config,
            workers=workers,
            admission=admission,
            registry=registry,
            max_attempts=max_attempts,
            tenant_timeout=tenant_timeout,
            tracer=self._tracer,
        )
        return server.serve(tenants, sla=sla, spill_dir=spill_dir)

    def compare(
        self,
        sut_factories: Sequence[Callable[[], SystemUnderTest]],
        scenario: Scenario,
    ) -> Dict[str, RunResult]:
        """Run several SUTs through the same scenario.

        Takes factories rather than instances so every SUT starts from a
        clean state; returns results keyed by SUT name.
        """
        out: Dict[str, RunResult] = {}
        for factory in sut_factories:
            sut = factory()
            out[sut.name] = self.run(sut, scenario)
        return out
