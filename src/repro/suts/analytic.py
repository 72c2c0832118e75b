"""Analytic (query-optimization) systems under test.

These SUTs host the learned-query-optimization experiments from §II of
the paper: the same relational engine executes every plan, but *which*
physical plan runs is chosen either by a traditional cost-based
optimizer with (potentially stale) histogram statistics, or by a learned
component — Bao-style bandit steering, optionally fed by a learned
cardinality model that trains online from executed queries' observed
cardinalities.

Analytic SUTs are ordinary :class:`~repro.core.sut.SystemUnderTest`
subclasses whose queries are plans instead of KV operations, and they
run on the one benchmark driver: :class:`AnalyticDriver` only adapts a
``(label, workload, duration, rate)`` schedule into a
:class:`~repro.core.scenario.Scenario` of plan-shaped batches
(:class:`PlanBatch`) and hands it to
:class:`~repro.core.driver.VirtualClockDriver`. Segment slicing, fault
injection, queueing, recording and streaming are the shared core's, so
every Fig 1 metric applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from repro.core.driver import VirtualClockDriver
from repro.core.results import RunResult
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.optimizer_base import CostBasedOptimizer
from repro.engine.plans import Aggregate, Filter, Join, LogicalPlan, Scan
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.learned.cardinality import HistogramEstimator, LearnedCardinalityEstimator
from repro.learned.optimizer import BanditPlanSteering
from repro.suts.cost_models import WORK_UNIT_SECONDS
from repro.workloads.drift import DriftModel
from repro.workloads.patterns import ConstantArrivals


@dataclass(frozen=True)
class AnalyticQuery:
    """One analytic query instance.

    Attributes:
        plan: The logical plan to optimize and execute.
        arrival_time: Virtual arrival timestamp.
        kind: Template label ("filter" or "join").
    """

    plan: LogicalPlan
    arrival_time: float
    kind: str


@dataclass
class PlanBatch:
    """Plan-shaped counterpart of :class:`~repro.workloads.generators.QueryBatch`.

    Carries what the driver reads from a batch — ascending ``arrivals``,
    ``ops`` codes into the class-level ``op_names``, :meth:`slice`,
    :meth:`query` — with the plans riding along as the payload.
    """

    op_names: ClassVar[Tuple[str, ...]] = ("filter", "join")
    queries: List[AnalyticQuery]
    arrivals: np.ndarray
    ops: np.ndarray

    def __len__(self) -> int:
        return int(self.arrivals.size)

    def query(self, i: int) -> AnalyticQuery:
        """Row ``i`` as the :class:`AnalyticQuery` a SUT executes."""
        return self.queries[i]

    def slice(self, a: int, b: int) -> "PlanBatch":
        """Rows ``[a, b)`` (array columns are views)."""
        return PlanBatch(self.queries[a:b], self.arrivals[a:b], self.ops[a:b])


class AnalyticWorkload:
    """Generates filter/join queries with drifting predicate ranges.

    Queries follow two templates over an orders/customers schema:

    * ``filter``: ``SELECT avg(amount) FROM orders WHERE amount BETWEEN
      θ AND θ+w`` with θ drawn from a (driftable) distribution.
    * ``join``: the same filter joined to ``customers`` on ``cid``.

    Args:
        threshold_drift: Distribution (over the ``amount`` domain) the
            filter's lower bound is drawn from; drifting it changes
            which selectivity regime queries hit.
        window: Width of the BETWEEN range.
        join_fraction: Share of queries using the join template.
        seed: Generator seed.
    """

    def __init__(
        self,
        threshold_drift: DriftModel,
        window: float = 50.0,
        join_fraction: float = 0.5,
        seed: int = 0,
    ) -> None:
        """Bind the templates to a seeded private RNG."""
        if not 0.0 <= join_fraction <= 1.0:
            raise ConfigurationError("join_fraction must be in [0,1]")
        self.threshold_drift = threshold_drift
        self.window = window
        self.join_fraction = join_fraction
        self._rng = np.random.default_rng(seed)

    def next_query(self, t: float) -> AnalyticQuery:
        """Generate the query arriving at virtual time ``t``."""
        theta = float(self.threshold_drift.at(t).sample(self._rng, 1)[0])
        use_join = bool(self._rng.uniform() < self.join_fraction)
        return self._build(t, theta, use_join)

    def next_batch(self, times: np.ndarray) -> PlanBatch:
        """Generate the queries arriving at ``times`` in one pass.

        Thresholds are drawn in bulk from the drift model, then the
        template coin flips — so the per-query random streams differ from
        repeated :meth:`next_query` calls, but the batch is deterministic
        at a fixed seed and statistically identical.
        """
        times = np.asarray(times, dtype=np.float64)
        thetas = self.threshold_drift.sample_at(self._rng, times)
        joins = self._rng.uniform(0.0, 1.0, times.size) < self.join_fraction
        queries = [
            self._build(float(t), float(theta), bool(use_join))
            for t, theta, use_join in zip(times, thetas, joins)
        ]
        # ``joins`` doubles as the op-code column: op_names[1] == "join".
        return PlanBatch(queries, times, joins.astype(np.int8))

    def _build(self, t: float, theta: float, use_join: bool) -> AnalyticQuery:
        predicate = col("amount").between(theta, theta + self.window)
        filtered = Filter(Scan("orders"), predicate)
        if use_join:
            joined = Join(filtered, Scan("customers"), "cid", "cid")
            plan: LogicalPlan = Aggregate(joined, "count")
            kind = "join"
        else:
            plan = Aggregate(filtered, "avg", "amount")
            kind = "filter"
        return AnalyticQuery(plan=plan, arrival_time=t, kind=kind)


class AnalyticSUT(SystemUnderTest):
    """Base analytic system: owns a catalog, executes chosen plans.

    Plan optimization and execution are inherently per-plan, so the
    inherited ``execute_batch`` loop is the batch hook: the batched
    driver's win comes from queueing and recording, not from the SUT.
    """

    def __init__(self, name: str, catalog: Catalog) -> None:
        """Register ``name`` and build an executor over ``catalog``."""
        super().__init__(name)
        self.catalog = catalog
        self.executor = Executor(catalog)

    def setup(self, pairs=()) -> None:
        """Collect statistics; ``pairs`` (the KV initial load) is ignored."""


class TraditionalOptimizerSUT(AnalyticSUT):
    """Cost-based optimizer over histogram statistics.

    Statistics are collected once at :meth:`setup` (``ANALYZE``); if the
    data changes afterwards, the estimates go stale — the classical
    failure mode that motivates learned cardinalities.

    Args:
        name: SUT name.
        catalog: Tables to query.
        plan_overhead_s: Virtual seconds charged per optimization call.
    """

    def __init__(
        self,
        catalog: Catalog,
        name: str = "traditional-optimizer",
        plan_overhead_s: float = 100e-6,
    ) -> None:
        """Wire a histogram estimator into a cost-based optimizer."""
        super().__init__(name, catalog)
        self.estimator = HistogramEstimator()
        self.optimizer = CostBasedOptimizer(self.estimator)
        self.plan_overhead_s = plan_overhead_s

    def setup(self, pairs=()) -> None:
        """``ANALYZE`` every table once; statistics go stale afterwards."""
        for table_name in self.catalog.names():
            self.estimator.analyze(self.catalog, table_name)

    def execute(self, query: AnalyticQuery, now: float) -> float:
        """Optimize + execute ``query.plan``; return virtual service time."""
        chosen = self.optimizer.optimize(query.plan, self.catalog)
        result = self.executor.execute(chosen.plan)
        return self.plan_overhead_s + result.work * WORK_UNIT_SECONDS


class LearnedOptimizerSUT(AnalyticSUT):
    """Bandit plan steering, optionally with learned cardinalities.

    Every executed query feeds back its observed work to the bandit and
    (when enabled) its observed per-node cardinalities to the learned
    cardinality model — online learning whose early exploration cost is
    visible to the adaptability metrics.

    Args:
        catalog: Tables to query.
        name: SUT name.
        use_learned_cardinality: Train/use a learned estimator for the
            steering arms' cost model (after a warm-up of observed
            queries); otherwise arms use histograms.
        seed: Bandit RNG seed.
        plan_overhead_s: Virtual seconds charged per optimization call.
        warmup_queries: Observed queries before the learned estimator
            replaces the histogram inside the arms.
    """

    def __init__(
        self,
        catalog: Catalog,
        name: str = "learned-optimizer",
        use_learned_cardinality: bool = True,
        seed: int = 0,
        plan_overhead_s: float = 150e-6,
        warmup_queries: int = 50,
    ) -> None:
        """Build the bandit over histograms plus the idle learned model."""
        super().__init__(name, catalog)
        self.histograms = HistogramEstimator()
        self.use_learned_cardinality = use_learned_cardinality
        self.warmup_queries = warmup_queries
        self.learned_cards = LearnedCardinalityEstimator(
            tracked_columns=[("orders", "amount")]
        )
        self.steering = BanditPlanSteering(self.histograms, seed=seed)
        self.plan_overhead_s = plan_overhead_s
        self._seed = seed
        self._observed = 0

    def attach_tracer(self, tracer) -> None:
        """Propagate the run tracer into the bandit steering."""
        super().attach_tracer(tracer)
        self.steering.tracer = tracer

    def setup(self, pairs=()) -> None:
        """Collect histograms and bind them to the learned model."""
        for table_name in self.catalog.names():
            self.histograms.analyze(self.catalog, table_name)
        self.learned_cards.bind_statistics(self.catalog)

    def execute(self, query: AnalyticQuery, now: float) -> float:
        """Steer, execute, and learn from one plan; return service time."""
        if (
            self.use_learned_cardinality
            and self._observed >= self.warmup_queries
        ):
            self.steering._estimator = self.learned_cards  # switched-in model
        choice = self.steering.choose(query.plan, self.catalog)
        executed = choice.plan_cost.plan
        result = self.executor.execute(executed)
        self.steering.learn(choice, result.work)
        if self.use_learned_cardinality:
            # Ground truth collected during execution, per §IV: every
            # Filter/Join node of the executed plan yields one label.
            stack = [executed]
            while stack:
                node = stack.pop()
                if isinstance(node, (Filter, Join)):
                    card = result.cardinalities.get(node.canonical())
                    if card is not None:
                        self.learned_cards.observe(node, float(card), self.catalog)
                stack.extend(node.children())
        self._observed += 1
        return self.plan_overhead_s + result.work * WORK_UNIT_SECONDS

    def on_crash(self, now: float) -> Optional[float]:
        """Cold restart: the online-learned state dies with the process.

        The bandit's arm statistics and the learned cardinality model
        are in-memory artifacts of the query stream, so a crash resets
        both (and the warm-up counter); the histogram statistics are
        treated as durable (rebuilt cheaply from the catalog). No extra
        virtual recovery time is charged — the cost of the crash shows
        up as renewed exploration, which is exactly what the Fig 1c
        adaptability metrics measure.
        """
        self._observed = 0
        self.learned_cards = LearnedCardinalityEstimator(
            tracked_columns=[("orders", "amount")]
        )
        self.learned_cards.bind_statistics(self.catalog)
        self.steering = BanditPlanSteering(self.histograms, seed=self._seed)
        self.steering.tracer = self.tracer
        self.tracer.counter("optimizer.crash_resets")
        return None

    def describe(self) -> dict:
        """Base description plus the learned state's size."""
        out = super().describe()
        out.update(
            arm_counts=self.steering.arm_counts,
            learned_examples=self.learned_cards.trained_examples,
        )
        return out


class _ScheduleArrivals(ConstantArrivals):
    """``int(rate * duration)`` sorted uniform draws from the run-wide RNG.

    The driver asks for segment-local times and adds the segment start;
    ``uniform(0, d) + s`` is bit-equal to ``uniform(s, s + d)`` whenever
    ``(s + d) - s == d`` in float64, which holds for every in-tree
    schedule (golden, perf, bench, example).
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__(rate)
        self._rng = rng

    def projected_count(self, start: float, end: float) -> int:
        return int(self._rate * (end - start))

    def arrivals(self, rng, start: float, end: float, jitter: bool = True):
        # The driver's per-segment ``rng`` goes unused: every segment
        # draws from the one generator seeded with the run seed.
        count = self.projected_count(start, end)
        return np.sort(self._rng.uniform(start, end, count))


class _ScheduleSegment:
    """One ``(label, workload, duration, rate)`` entry as the driver sees it.

    Both the segment's spec (``name``, ``arrivals``, ``describe()``,
    ``build_workload(seed)``) and the workload that spec builds
    (``spec``, ``next_batch``): an :class:`AnalyticWorkload` is a live,
    RNG-owning object, so there is nothing to construct per run.
    """

    def __init__(self, label, workload, arrivals, hook) -> None:
        self.name = label
        self.arrivals = arrivals
        self.next_batch = workload.next_batch
        self._hook = hook

    @property
    def spec(self) -> "_ScheduleSegment":
        return self

    def build_workload(self, seed: int = 0) -> "_ScheduleSegment":
        """Segment start: fire the hook before any arrival or query draw."""
        if self._hook is not None:
            self._hook()
        return self

    def describe(self) -> dict:
        return {"name": self.name, "arrivals": self.arrivals.describe()}


class AnalyticDriver:
    """Runs a ``(label, workload, duration, rate)`` schedule on the shared driver.

    A thin adaptor: the schedule becomes a :class:`Scenario` that
    :class:`VirtualClockDriver` executes. Analytic SUTs have no
    ``on_tick``, so the driver never ticks them and a fault-free segment
    is one ``execute_batch`` per 65,536 plans.
    The schedule is validated up front, before the SUT is set up or any
    hook fires: ``rate < 0`` raises :class:`ConfigurationError`; a
    ``duration <= 0`` or an empty schedule raises ``ScenarioError``.

    Args:
        seed: Arrival-process seed.
        tracer: Observability sink (default: no-op tracer).
        fault_plan: Optional :class:`~repro.faults.FaultPlan` injected
            during the run.
    """

    def __init__(
        self,
        seed: int = 0,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        """Bind the knobs to a :class:`VirtualClockDriver`."""
        self.seed = seed
        self.fault_plan = fault_plan
        self._driver = VirtualClockDriver(tracer=tracer)

    def run(
        self,
        sut: AnalyticSUT,
        segments: List[Tuple[str, AnalyticWorkload, float, float]],
        scenario_name: str = "analytic",
        segment_hooks: Optional[dict] = None,
    ) -> RunResult:
        """Run the segment schedule against ``sut``.

        Args:
            segment_hooks: Optional ``{label: callable}`` map; a hook runs
                once when its segment starts (e.g., to inject data into
                the catalog mid-run — the stale-statistics scenario).
        """
        scenario = self._scenario(segments, scenario_name, segment_hooks)
        return self._driver.run(sut, scenario)

    def run_streaming(
        self,
        sut: AnalyticSUT,
        segments: List[Tuple[str, AnalyticWorkload, float, float]],
        scenario_name: str = "analytic",
        segment_hooks: Optional[dict] = None,
        **streaming,
    ):
        """Run the schedule in bounded memory; return the summary.

        ``streaming`` (``accumulators``, ``sla``, ``spill_dir``) goes to
        :meth:`~repro.core.driver.VirtualClockDriver.run_streaming`.
        """
        scenario = self._scenario(segments, scenario_name, segment_hooks)
        return self._driver.run_streaming(sut, scenario, **streaming)

    def _scenario(self, segments, name: str, segment_hooks) -> Scenario:
        """Validate the schedule and wrap it as a :class:`Scenario`."""
        hooks = segment_hooks or {}
        rng = np.random.default_rng(self.seed)
        schedule = []
        for label, workload, duration, rate in segments:
            spec = _ScheduleSegment(
                label, workload, _ScheduleArrivals(rate, rng), hooks.get(label)
            )
            schedule.append(Segment(spec=spec, duration=duration, label=label))
        return Scenario(
            name=name,
            segments=schedule,
            seed=self.seed,
            fault_plan=self.fault_plan,
        )


def build_analytic_catalog(
    n_orders: int = 4000, n_customers: int = 400, seed: int = 0
) -> Catalog:
    """Standard orders/customers catalog for the analytic experiments."""
    from repro.engine.schema import ColumnType, Schema
    from repro.engine.table import Table

    rng = np.random.default_rng(seed)
    orders = Table.from_columns(
        "orders",
        Schema.of(
            ("oid", ColumnType.INT),
            ("cid", ColumnType.INT),
            ("amount", ColumnType.FLOAT),
        ),
        {
            "oid": np.arange(n_orders),
            "cid": rng.integers(0, n_customers, n_orders),
            "amount": rng.exponential(100.0, n_orders),
        },
    )
    customers = Table.from_columns(
        "customers",
        Schema.of(("cid", ColumnType.INT), ("region", ColumnType.INT)),
        {
            "cid": np.arange(n_customers),
            "region": rng.integers(0, 10, n_customers),
        },
    )
    catalog = Catalog()
    catalog.register(orders)
    catalog.register(customers)
    return catalog
