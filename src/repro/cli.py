"""Command-line interface.

``python -m repro <command>``:

* ``list`` — available datasets, scenarios, and systems under test.
* ``run`` — run a scenario against one or more SUTs and print the full
  report (optionally exporting the query log / throughput as CSV).
* ``run-matrix`` — fan a (SUT × scenario × seed) matrix across a process
  pool with content-addressed result caching; prints the run manifest.
  Hardening flags: ``--timeout`` (per-job kill), ``--max-attempts`` /
  ``--retry-backoff`` (retry budget), ``--checkpoint`` + ``--resume``
  (survive interrupted invocations).
* ``serve`` — multi-tenant benchmark service: admit N concurrent
  tenants (token-bucket admission control), stream each tenant's
  (SUT, scenario, seed) session on the shared worker pool, and print
  per-tenant SLA reports plus the service ledger.
* ``faults`` — chaos benchmark: inject a fault plan (stalls, crashes,
  latency/throughput degradation windows) into a scenario, run it next
  to its fault-free twin, and print the resilience report.
* ``trace`` — print the telemetry rollup (per-phase wall time and
  counters) of a saved run-matrix manifest.
* ``quality`` — score a built-in dataset (or a file of keys) with the
  §V-C quality tool.
* ``synthesize`` — fit a shareable synthetic workload to a trace file of
  keys and report its fidelity.
* ``replay`` — replay a recorded query trace (CSV) through the
  driver at configurable time dilation; ``--fit`` closes the §V-C
  round trip (fit the synthesizer to the trace and print the
  generator-vs-trace ``RoundTripReport``), ``--export-spec`` writes the
  fitted generator as shareable JSON.

The CLI wraps the same public API the examples use; anything it does can
be reproduced programmatically.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.driver import DriverConfig
from repro.core.runner import MatrixRunner, matrix_jobs
from repro.core.sut import SystemUnderTest
from repro.data.datasets import build_dataset, dataset_names
from repro.errors import RunnerError
from repro.metrics.sla import calibrate_sla
from repro.reporting.export import queries_csv, throughput_csv
from repro.reporting.report import build_report
from repro.scenarios import (
    abrupt_shift,
    bursty_diurnal,
    drift_axis,
    expected_access_sample,
    gradual_shift,
    specialization_ladder,
)
from repro.suts.kv_learned import LearnedKVStore, StaticLearnedKVStore
from repro.suts.kv_traditional import HashKVStore, TraditionalKVStore
from repro.suts.kv_variants import AlexKVStore, PGMKVStore
from repro.workloads.quality import score_dataset

#: name -> scenario builder(dataset, rate, duration) -> Scenario
SCENARIOS: Dict[str, Callable] = {
    "abrupt-shift": lambda ds, rate, duration: abrupt_shift(
        ds, rate=rate, segment_duration=duration / 2
    ),
    "gradual-shift": lambda ds, rate, duration: gradual_shift(
        ds, rate=rate, total_duration=duration
    ),
    "specialization-ladder": lambda ds, rate, duration: specialization_ladder(
        ds, rate=rate, segment_duration=duration / 6
    )[0],
    "bursty-diurnal": lambda ds, rate, duration: bursty_diurnal(
        ds, base_rate=rate, duration=duration
    ),
    "drift-axis": lambda ds, rate, duration: drift_axis(
        ds, factor=0.5, rate=rate, segment_duration=duration / 2
    ),
}


def _sut_factories(sample) -> Dict[str, Callable[[], SystemUnderTest]]:
    # Partials of classes (not lambdas) so factories pickle cleanly into
    # the matrix runner's worker processes.
    return {
        "learned-kv": partial(
            LearnedKVStore,
            max_fanout=160, retrain_cooldown=2.0, expected_access_sample=sample,
        ),
        "static-learned-kv": partial(
            StaticLearnedKVStore, max_fanout=160, expected_access_sample=sample
        ),
        "btree-kv": TraditionalKVStore,
        "hash-kv": HashKVStore,
        "alex-kv": AlexKVStore,
        "pgm-kv": PGMKVStore,
    }


def _pick_suts(
    names: Sequence[str], factories: Dict[str, Callable[[], SystemUnderTest]]
) -> Optional[Dict[str, Callable[[], SystemUnderTest]]]:
    """The factories for ``names``; ``None`` after reporting unknown ones."""
    unknown = [name for name in names if name not in factories]
    if unknown:
        print(f"unknown SUT(s) {', '.join(unknown)}; "
              f"try: {', '.join(sorted(factories))}", file=sys.stderr)
        return None
    return {name: factories[name] for name in names}


def _export_path(prefix: str, sut_name: str, suffix: str) -> Path:
    """Build ``<prefix>-<sut>-<suffix>`` with parent directories created.

    The prefix may carry directory components (``out/run1``); joining
    with pathlib and pre-creating the parent keeps exports from failing
    on a fresh output tree.
    """
    path = Path(f"{prefix}-{sut_name}-{suffix}")
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list``: show datasets, scenarios, and SUTs."""
    print("datasets:   " + ", ".join(dataset_names()))
    print("scenarios:  " + ", ".join(sorted(SCENARIOS)))
    print("suts:       " + ", ".join(sorted(_sut_factories(None))))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: run a scenario against SUTs, print full reports."""
    import json

    from repro.serialization import scenario_from_dict, scenario_to_dict

    if not args.stream and (args.shards > 1 or args.spill_dir):
        print("run: --shards/--spill-dir require --stream", file=sys.stderr)
        return 2
    dataset = build_dataset(args.dataset, n=args.keys, seed=args.seed)
    builder = SCENARIOS[args.scenario]
    if args.scenario_file:
        with open(args.scenario_file) as handle:
            scenario = scenario_from_dict(json.load(handle),
                                          initial_keys=dataset.keys)
        print(f"loaded scenario {scenario.name!r} from {args.scenario_file} "
              f"(fingerprint {scenario.fingerprint()[:16]}…)\n")
    else:
        scenario = builder(dataset, args.rate, args.duration)
    if args.save_scenario:
        with open(args.save_scenario, "w") as handle:
            json.dump(scenario_to_dict(scenario), handle, indent=2)
        print(f"wrote scenario definition to {args.save_scenario}\n")
    factories = _sut_factories(expected_access_sample(scenario))
    suts = _pick_suts(args.sut, factories)
    if suts is None:
        return 2
    bench = Benchmark(
        BenchmarkConfig(servers=args.servers, block_size=args.block_size)
    )

    sla: Optional[float] = None
    if args.sla_baseline:
        # §V-D2: the baseline runs the workload under test. A scenario
        # file is taken as is; built-ins are rebuilt at 0.6x the rate.
        baseline_scenario = scenario if args.scenario_file else builder(
            dataset, args.rate * 0.6, args.duration
        )
        baseline = bench.run(factories["btree-kv"](), baseline_scenario)
        sla = calibrate_sla(baseline, percentile=99.0, headroom=1.5)
        print(f"SLA calibrated from btree baseline: {sla*1000:.3f} ms\n")

    for name, factory in suts.items():
        if args.stream:
            spill_dir = None
            if args.spill_dir:
                spill_dir = Path(args.spill_dir) / name
                spill_dir.mkdir(parents=True, exist_ok=True)
            if args.shards > 1:
                summary = bench.run_sharded_streaming(
                    factory, scenario, shards=args.shards,
                    sla=sla, spill_dir=spill_dir,
                )
            else:
                summary = bench.run_streaming(
                    factory(), scenario, sla=sla, spill_dir=spill_dir
                )
            print(f"== {summary.sut_name} on {summary.scenario_name} "
                  "(streaming) ==")
            if summary.sharding:
                print(f"shards: {summary.sharding['shards']}, "
                      f"boundaries drained: "
                      f"{summary.sharding['boundaries_drained']}")
            print(f"queries: {summary.num_queries}, "
                  f"horizon: {summary.horizon:.3f}s, "
                  f"mean throughput: {summary.mean_throughput():.1f} q/s")
            for metric_name in sorted(summary.metrics):
                payload = summary.metrics[metric_name]
                keys = ", ".join(sorted(payload)) if isinstance(
                    payload, dict) else str(payload)
                print(f"  {metric_name}: {keys}")
            if spill_dir:
                print(f"  spilled columns: {spill_dir}")
            if args.export_prefix:
                spath = _export_path(args.export_prefix, name,
                                     "streaming.json")
                with open(spath, "w") as handle:
                    json.dump(summary.to_dict(), handle)
                print(f"exported {spath}")
            print()
            continue
        result = bench.run(factory(), scenario)
        report = build_report(result, scenario, sla=sla)
        print(report.render())
        print()
        if args.export_prefix:
            qpath = _export_path(args.export_prefix, name, "queries.csv")
            tpath = _export_path(args.export_prefix, name, "throughput.csv")
            with open(qpath, "w") as handle:
                handle.write(queries_csv(result))
            with open(tpath, "w") as handle:
                handle.write(throughput_csv(result))
            print(f"exported {qpath}, {tpath}\n")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    """``repro run-matrix``: parallel (SUT × scenario × seed) matrix.

    Jobs fan out across a process pool; results land in a
    content-addressed cache so a re-run only executes jobs whose inputs
    changed. Prints one manifest row per job plus totals.

    ``--drift-factors`` adds the drift-intensity axis: one
    ``drift-axis@<f>`` scenario per factor joins the matrix, and every
    cell's manifest row carries the *computed* Φ between its scenario's
    first and last segments (measured from realized probe streams, not
    assumed from labels).
    """
    from repro.metrics.similarity import scenario_phi

    dataset = build_dataset(args.dataset, n=args.keys, seed=args.seed)
    # --trace alone runs just the replay cell; explicit --scenario names
    # (or no --trace at all) keep the parametric cells in the matrix.
    names = args.scenario
    if names is None:
        names = [] if args.trace else ["abrupt-shift"]
    scenarios = [
        SCENARIOS[name](dataset, args.rate, args.duration) for name in names
    ]
    if args.trace:
        from repro.core.scenario import Scenario
        from repro.errors import ConfigurationError
        from repro.workloads.trace import load_trace

        try:
            trace = load_trace(args.trace)
            scenarios.append(
                Scenario.from_trace(
                    trace,
                    dilation=args.trace_dilate,
                    initial_keys=np.unique(trace.keys),
                )
            )
        except ConfigurationError as exc:
            print(f"run-matrix: {exc}", file=sys.stderr)
            return 2
    if args.drift_factors:
        factors = sorted(set(args.drift_factors))
        bad = [f for f in factors if not 0.0 <= f <= 1.0]
        if bad:
            print(f"drift factors must be in [0, 1]; got {bad}", file=sys.stderr)
            return 2
        scenarios.extend(
            drift_axis(dataset, factor=f, rate=args.rate,
                       segment_duration=args.duration / 2)
            for f in factors
        )
    suts = _pick_suts(
        args.sut, _sut_factories(expected_access_sample(scenarios[0]))
    )
    if suts is None:
        return 2
    jobs = matrix_jobs(suts, scenarios, seeds=args.seeds or ())
    try:
        runner = MatrixRunner(
            driver_config=DriverConfig(servers=args.servers),
            workers=args.workers,
            cache_dir=None if args.no_cache else args.cache_dir,
            max_attempts=args.max_attempts,
            job_timeout=args.timeout,
            retry_backoff=args.retry_backoff,
            checkpoint=args.checkpoint,
            resume=args.resume,
        )
    except RunnerError as exc:
        print(f"run-matrix: {exc}", file=sys.stderr)
        return 2
    outcome = runner.run(jobs)
    manifest = outcome.manifest

    # Stamp every cell's computed Φ (deterministic per scenario × seed,
    # so the same cell always reports the same value regardless of
    # cache hits or worker assignment).
    by_name = {scenario.name: scenario for scenario in scenarios}
    phi_cache: Dict[tuple, Dict[str, float]] = {}
    for record in manifest.jobs:
        scenario = by_name.get(record.scenario_name)
        if scenario is None:
            continue
        cell = (record.scenario_name, record.seed)
        if cell not in phi_cache:
            phi_cache[cell] = scenario_phi(scenario, seed=record.seed)
        record.phi = dict(phi_cache[cell])

    width = max(len(j.label) for j in manifest.jobs)
    for record, result in zip(manifest.jobs, outcome.results):
        line = f"  {record.label:<{width}}  {record.status:<7}"
        if record.status == "failed":
            line += f"  {record.error}"
        else:
            line += f"  {record.wall_seconds:7.2f}s"
            if result is not None:
                line += f"  {result.mean_throughput():10.1f} q/s"
            if record.phi is not None:
                line += f"  phi={record.phi['phi']:.4f}"
        print(line)
    print(f"\n{manifest.summary()}")
    if not args.no_cache:
        print(f"cache: {args.cache_dir}")
    if args.manifest:
        manifest.save(args.manifest)
        print(f"wrote manifest to {args.manifest}")
    return 1 if manifest.failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run a multi-tenant serving window.

    Fans ``--tenants`` sessions out over the SUT list (round-robin,
    seeds ``--seed-base + i``), admits them through a token bucket, and
    multiplexes every admitted tenant's shards onto one shared worker
    pool. Prints one row per tenant plus the service ledger; exits
    non-zero if any admitted tenant was dropped or failed.
    """
    from repro.core.tenancy import AdmissionPolicy, BenchmarkServer, TenantSpec

    dataset = build_dataset(args.dataset, n=args.keys, seed=args.seed)
    scenario = SCENARIOS[args.scenario](dataset, args.rate, args.duration)
    suts = _pick_suts(args.sut, _sut_factories(expected_access_sample(scenario)))
    if suts is None:
        return 2
    tenants = []
    for i in range(args.tenants):
        sut_name = args.sut[i % len(args.sut)]
        tenants.append(TenantSpec(
            name=f"tenant-{i:02d}-{sut_name}",
            sut_factory=suts[sut_name],
            scenario=scenario,
            seed=args.seed_base + i,
            shards=args.shards,
            arrival_time=i * args.arrival_spacing,
        ))
    server = BenchmarkServer(
        config=BenchmarkConfig(servers=args.servers),
        workers=args.workers,
        admission=AdmissionPolicy(burst=args.admit_burst,
                                  refill_rate=args.admit_rate),
        max_attempts=args.max_attempts,
        tenant_timeout=args.timeout,
    )
    report = server.serve(tenants, sla=args.sla)

    width = max(len(t.tenant) for t in report.tenants)
    print(f"  {'tenant':<{width}}  {'status':<9}  {'queries':>8}  "
          f"{'q/s':>9}  {'sla':>5}  {'wall':>8}")
    for tenant in report.tenants:
        if tenant.ok:
            sla_cell = "-"
            if tenant.sla_report and "meets_sla" in tenant.sla_report:
                sla_cell = "ok" if tenant.sla_report["meets_sla"] else "VIOL"
            print(f"  {tenant.tenant:<{width}}  {tenant.status:<9}  "
                  f"{tenant.summary.num_queries:>8}  "
                  f"{tenant.sla_report['mean_throughput']:>9.1f}  "
                  f"{sla_cell:>5}  {tenant.wall_seconds:>7.2f}s")
        else:
            print(f"  {tenant.tenant:<{width}}  {tenant.status:<9}  "
                  f"{tenant.error}")
    print(f"\noffered {report.offered}, admitted {report.admitted}, "
          f"rejected {report.rejected}, completed {report.completed}, "
          f"failed {report.failed}, violations {report.violations}, "
          f"dropped {report.dropped} "
          f"({report.workers} workers, {report.wall_seconds:.2f}s)")
    if args.export:
        path = Path(args.export)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"wrote service report to {path}")
    return 0 if report.dropped == 0 and report.failed == 0 else 1


def cmd_faults(args: argparse.Namespace) -> int:
    """``repro faults``: chaos benchmark — inject faults, score resilience.

    Builds a :class:`~repro.faults.FaultPlan` from the command-line
    fault flags (or ``--plan-file``), runs the scenario twice — once
    fault-free, once with the plan — and prints the resilience report:
    per-fault recovery times, over-SLA latency mass inside degraded
    windows, and progress area lost to the faults.
    """
    from dataclasses import replace as dc_replace

    from repro.faults import (
        CrashFault,
        DegradationFault,
        FaultPlan,
        LatencyFault,
        StallFault,
    )
    from repro.metrics.resilience import resilience_report

    faults: list = []
    for at, duration in args.stall or []:
        faults.append(StallFault(at=at, duration=duration))
    for at, recovery in args.crash or []:
        faults.append(CrashFault(at=at, recovery_seconds=recovery))
    for start, end, multiplier in args.slow or []:
        faults.append(LatencyFault(start=start, end=end, multiplier=multiplier))
    for start, end, added in args.degrade or []:
        faults.append(
            DegradationFault(start=start, end=end, added_seconds=added)
        )
    if args.plan_file:
        with open(args.plan_file) as handle:
            plan = FaultPlan.from_dict(json.load(handle))
        if faults:
            print("faults: use either fault flags or --plan-file, not both",
                  file=sys.stderr)
            return 2
    else:
        if not faults:
            print("faults: no faults given; add --stall/--crash/--slow/"
                  "--degrade or --plan-file", file=sys.stderr)
            return 2
        plan = FaultPlan(faults)
    if args.export_plan:
        with open(args.export_plan, "w") as handle:
            json.dump(plan.describe(), handle, indent=2)
        print(f"wrote fault plan to {args.export_plan}\n")

    dataset = build_dataset(args.dataset, n=args.keys, seed=args.seed)
    scenario = SCENARIOS[args.scenario](dataset, args.rate, args.duration)
    faulted_scenario = dc_replace(scenario, fault_plan=plan)
    suts = _pick_suts(
        [args.sut], _sut_factories(expected_access_sample(scenario))
    )
    if suts is None:
        return 2
    factory = suts[args.sut]
    bench = Benchmark(BenchmarkConfig(servers=args.servers))

    baseline = bench.run(factory(), scenario)
    sla = args.sla if args.sla is not None else calibrate_sla(
        baseline, percentile=99.0, headroom=1.5
    )
    faulted = bench.run(factory(), faulted_scenario)
    report = resilience_report(
        faulted, plan=plan, sla=sla, baseline=baseline
    )

    print(f"chaos benchmark: {args.sut} on {scenario.name!r} "
          f"({len(plan)} fault(s), SLA {sla*1000:.3f} ms)")
    print(f"  baseline: {baseline.num_queries} queries, "
          f"{baseline.mean_throughput():.1f} q/s mean")
    print(f"  faulted:  {faulted.num_queries} queries, "
          f"{faulted.mean_throughput():.1f} q/s mean")
    print("\nper-fault recovery:")
    for impact in report.impacts:
        recovered = ("not recovered" if impact.recovery_seconds is None
                     else f"{impact.recovery_seconds:8.3f}s")
        print(f"  {impact.kind:<12} at {impact.at:8.2f}s  ->  {recovered}")
    print(f"\nrecovered faults:      {report.recovered_faults}"
          f"/{len(report.impacts)}")
    if report.worst_recovery_seconds is not None:
        print(f"worst recovery:        {report.worst_recovery_seconds:.3f}s")
    print(f"degraded SLA mass:     {report.degraded_sla_mass:.3f}s over SLA")
    print(f"area lost to faults:   {report.area_lost:.1f} query·seconds")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: telemetry rollup of a saved run-matrix manifest.

    Prints the matrix-wide phase/counter aggregation, then (with
    ``--jobs``) one phase row per traced job.
    """
    from repro.core.runner import RunManifest
    from repro.observability import PHASES, Trace

    try:
        with open(args.manifest) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read manifest {args.manifest!r}: {exc}", file=sys.stderr)
        return 2
    if "jobs" not in payload:
        print(f"{args.manifest!r} is not a run-matrix manifest (no 'jobs' key)",
              file=sys.stderr)
        return 2
    manifest = RunManifest.from_dict(payload)
    telemetry = manifest.telemetry()
    print(f"manifest: {args.manifest}")
    print(f"  {manifest.summary()}")
    print(f"  traced jobs: {telemetry['traced_jobs']}/{len(manifest.jobs)}")
    print("\nphase wall time (self-time attribution):")
    phase_seconds = telemetry["phase_seconds"]
    total = sum(phase_seconds.values())
    for phase in PHASES:
        seconds = phase_seconds[phase]
        share = (seconds / total * 100.0) if total > 0 else 0.0
        print(f"  {phase:<8} {seconds:12.6f}s  {share:5.1f}%")
    counters = telemetry["counters"]
    if counters:
        print("\ncounters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]:,.0f}")
    if args.jobs:
        traced = [job for job in manifest.jobs if job.trace]
        if traced:
            print("\nper-job phase seconds:")
            width = max(len(job.label) for job in traced)
            header = "  ".join(f"{phase:>12}" for phase in PHASES)
            print(f"  {'job':<{width}}  {header}")
            for job in traced:
                phases = Trace.from_dict(job.trace).phase_seconds()
                row = "  ".join(f"{phases[phase]:12.6f}" for phase in PHASES)
                print(f"  {job.label:<{width}}  {row}")
    return 0


def cmd_quality(args: argparse.Namespace) -> int:
    """``repro quality``: score a dataset with the §V-C tool."""
    if args.dataset in dataset_names():
        keys = build_dataset(args.dataset, n=args.keys, seed=args.seed).keys
        source = f"builtin dataset {args.dataset!r}"
    else:
        keys = np.loadtxt(args.dataset, dtype=np.float64).ravel()
        source = f"file {args.dataset!r}"
    report = score_dataset(keys)
    print(f"quality of {source} ({len(keys)} keys):")
    print(f"  non-uniformity: {report.non_uniformity:.3f}")
    print(f"  multimodality:  {report.multimodality:.3f}")
    print(f"  tail weight:    {report.tail_weight:.3f}")
    print(f"  overall:        {report.overall:.3f}  (grade {report.grade()})")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    """``repro synthesize``: fit a shareable workload to a key trace."""
    from repro.workloads.synthesizer import fit_workload

    keys = np.loadtxt(args.trace, dtype=np.float64).ravel()
    spec, fidelity = fit_workload("synthesized", keys)
    print(f"fitted workload from {len(keys)} keys "
          f"(KS={fidelity.ks_distance:.4f}, "
          f"high fidelity: {fidelity.high_fidelity})")
    if args.out:
        rng = np.random.default_rng(args.seed)
        synthetic = spec.key_drift.at(0.0).sample(rng, args.emit)
        np.savetxt(args.out, synthetic)
        print(f"wrote {args.emit} synthetic keys to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """``repro replay``: replay a recorded trace, optionally round-trip it.

    Loads and validates the trace file, builds a single-segment replay
    scenario (``Scenario.from_trace`` — the SUT is preloaded with the
    trace's distinct keys), and runs it against each requested SUT. The
    replayed query columns are the trace rows themselves, bit-identical
    on the scalar, batched, and streaming driver paths.

    With ``--fit``, the §V-C synthesizer is fitted to the trace and the
    generator-vs-trace divergence is printed as a ``RoundTripReport``
    (KS over keys, total variation over op histograms, arrival-rate
    error). ``--export-spec`` writes the fitted parametric spec as
    shareable JSON (implies ``--fit``).
    """
    from repro.core.scenario import Scenario
    from repro.errors import ConfigurationError
    from repro.workloads.trace import load_trace, round_trip

    try:
        trace = load_trace(args.trace)
    except ConfigurationError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = Scenario.from_trace(
            trace,
            dilation=args.dilate,
            max_queries=args.max_queries,
            max_span=args.max_span,
            initial_keys=np.unique(trace.keys),
            seed=args.seed,
        )
    except ConfigurationError as exc:
        print(f"replay: {exc}", file=sys.stderr)
        return 2
    replayed = scenario.segments[0].spec.trace
    ops = ", ".join(f"{op}={n}" for op, n in sorted(replayed.op_histogram().items()))
    print(f"trace {trace.name!r}: {trace.n} queries over {trace.span:.3f}s "
          f"({ops})")
    print(f"  content: {trace.content_hash()[:16]}…  "
          f"scenario: {scenario.fingerprint()[:16]}…")
    if args.dilate != 1.0 or replayed.n != trace.n:
        print(f"  replaying {replayed.n} queries over {replayed.span:.3f}s "
              f"(dilation ×{args.dilate:g})")

    suts = _pick_suts(args.sut, _sut_factories(expected_access_sample(scenario)))
    if suts is None:
        return 2
    bench = Benchmark(BenchmarkConfig(servers=args.servers))
    for name, factory in suts.items():
        result = bench.run(factory(), scenario)
        latency = result.columns.completions - result.columns.arrivals
        print(f"\n== {name} ==")
        print(f"  queries:         {result.columns.arrivals.size}")
        print(f"  mean throughput: {result.mean_throughput():.1f} q/s")
        print(f"  mean latency:    {float(latency.mean())*1000:.3f} ms  "
              f"(p99 {float(np.quantile(latency, 0.99))*1000:.3f} ms)")

    if args.fit or args.export_spec:
        spec, synthesis, report = round_trip(trace, seed=args.seed)
        print(f"\nsynthesizer round trip (seed {args.seed}):")
        print(f"  key-fit KS:         {synthesis.ks_distance:.4f}  "
              f"(high fidelity: {synthesis.high_fidelity})")
        print(f"  stream KS (keys):   {report.ks_keys:.4f}")
        print(f"  stream TV (ops):    {report.tv_ops:.4f}")
        print(f"  arrival-rate error: {report.arrival_rate_error:.4f}")
        print(f"  phi:                {report.phi:.4f}  "
              f"({report.n_synthetic} synthetic vs {report.n_trace} recorded)")
        if args.export_spec:
            path = Path(args.export_spec)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as handle:
                json.dump(spec.describe(), handle, indent=2)
            print(f"  wrote fitted spec to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Benchmark for learned data management systems "
        "(ICDE 2021 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common() -> argparse.ArgumentParser:
        # A fresh parent per subcommand: argparse shares a parent's action
        # objects, so serve's set_defaults would otherwise reach the rest.
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--dataset", choices=dataset_names(), default="osm")
        parent.add_argument("--keys", type=int, default=50_000)
        parent.add_argument("--rate", type=float, default=3200.0)
        parent.add_argument("--duration", type=float, default=60.0)
        parent.add_argument("--servers", type=int, default=1)
        return parent

    sub.add_parser("list", help="list datasets, scenarios, and SUTs").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", parents=[common()],
                         help="run a scenario against SUTs")
    run.add_argument("--scenario", choices=sorted(SCENARIOS),
                     default="abrupt-shift")
    run.add_argument("--sut", nargs="+", default=["learned-kv", "btree-kv"])
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--sla-baseline", action="store_true",
                     help="calibrate an SLA from a btree baseline run")
    run.add_argument("--export-prefix", default=None,
                     help="write <prefix>-<sut>-{queries,throughput}.csv")
    run.add_argument("--scenario-file", default=None,
                     help="load the scenario definition from this JSON file "
                          "(overrides --scenario)")
    run.add_argument("--save-scenario", default=None,
                     help="write the scenario definition to this JSON file")
    run.add_argument("--stream", action="store_true",
                     help="run the bounded-memory streaming pipeline and "
                          "print the online-metric summary instead of the "
                          "full report")
    run.add_argument("--block-size", type=int, default=None,
                     help="cap queries per execution block (bit-identical "
                          "results at any size; bounds working-set memory)")
    run.add_argument("--spill-dir", default=None,
                     help="with --stream: spill raw query columns to "
                          "sharded files under <dir>/<sut>")
    run.add_argument("--shards", type=int, default=1,
                     help="with --stream: fan the run out over this many "
                          "worker processes and merge their accumulators "
                          "(1 = in-process, no workers)")
    run.set_defaults(func=cmd_run)

    mat = sub.add_parser(
        "run-matrix",
        parents=[common()],
        help="run a (SUT × scenario × seed) matrix in parallel with caching",
    )
    mat.add_argument("--scenario", nargs="+", choices=sorted(SCENARIOS),
                     default=None,
                     help="parametric scenarios to run (default: "
                          "abrupt-shift, or none when --trace is given)")
    mat.add_argument("--trace", default=None,
                     help="add a trace-replay cell: replay this recorded "
                          "trace file (CSV); its cache key hashes "
                          "the trace content")
    mat.add_argument("--trace-dilate", type=float, default=1.0,
                     help="time-dilation factor for the --trace cell "
                          "(> 1 slows replay)")
    mat.add_argument("--sut", nargs="+", default=["learned-kv", "btree-kv"])
    mat.add_argument("--seeds", nargs="*", type=int, default=None,
                     help="seed overrides (one job per seed; default: "
                          "each scenario's own seed)")
    mat.add_argument("--drift-factors", nargs="*", type=float, default=None,
                     help="sweep the drift-intensity axis: add one "
                          "drift-axis scenario per factor (each in "
                          "[0, 1]; 0 = base workload, 1 = target)")
    mat.add_argument("--seed", type=int, default=7,
                     help="dataset seed (scenario seeds come from --seeds)")
    mat.add_argument("--workers", type=int, default=None,
                     help="process-pool size (default: one per job, "
                          "capped at the CPU count)")
    mat.add_argument("--cache-dir", default=".repro-cache",
                     help="result-cache directory (default: .repro-cache)")
    mat.add_argument("--no-cache", action="store_true",
                     help="disable the result cache entirely")
    mat.add_argument("--manifest", default=None,
                     help="write the run manifest (JSON) to this path")
    mat.add_argument("--max-attempts", type=int, default=2,
                     help="executions per job before it is marked failed "
                          "(crashes, timeouts, and exceptions all count)")
    mat.add_argument("--timeout", type=float, default=None,
                     help="per-job wall-clock budget in seconds; a job "
                          "over budget is killed (consumes one attempt)")
    mat.add_argument("--retry-backoff", type=float, default=0.25,
                     help="base of the exponential backoff between "
                          "attempts (seconds)")
    mat.add_argument("--checkpoint", default=None,
                     help="atomically rewrite the manifest here after "
                          "every finished job")
    mat.add_argument("--resume", action="store_true",
                     help="reuse completed jobs from --checkpoint "
                          "(results served from the cache)")
    mat.set_defaults(func=cmd_matrix)

    srv = sub.add_parser(
        "serve",
        parents=[common()],
        help="run a multi-tenant serving window with admission control",
    )
    srv.add_argument("--scenario", choices=sorted(SCENARIOS),
                     default="abrupt-shift")
    srv.add_argument("--sut", nargs="+", default=["learned-kv", "btree-kv"],
                     help="SUT pool; tenants cycle through it round-robin")
    srv.add_argument("--tenants", type=int, default=8,
                     help="number of tenant sessions to offer")
    srv.add_argument("--seed", type=int, default=7,
                     help="dataset seed (tenant seeds come from --seed-base)")
    srv.add_argument("--seed-base", type=int, default=100,
                     help="tenant i runs with scenario seed seed-base + i")
    srv.add_argument("--shards", type=int, default=1,
                     help="shards per tenant session")
    srv.add_argument("--workers", type=int, default=None,
                     help="shared worker-pool size (default: CPU-bound)")
    srv.add_argument("--arrival-spacing", type=float, default=0.0,
                     help="virtual seconds between tenant arrivals (feeds "
                          "admission-control refill)")
    srv.add_argument("--admit-burst", type=int, default=8,
                     help="token-bucket capacity (tenants admitted "
                          "back-to-back)")
    srv.add_argument("--admit-rate", type=float, default=1.0,
                     help="token refill per virtual second")
    srv.add_argument("--sla", type=float, default=None,
                     help="SLA threshold in seconds for per-tenant "
                          "accounting")
    srv.add_argument("--max-attempts", type=int, default=2,
                     help="per-shard attempt budget")
    srv.add_argument("--timeout", type=float, default=None,
                     help="per-attempt wall-clock kill deadline (seconds)")
    srv.add_argument("--export", default=None,
                     help="write the service report (JSON) to this path")
    srv.set_defaults(func=cmd_serve, duration=30.0)

    fl = sub.add_parser(
        "faults",
        parents=[common()],
        help="chaos benchmark: inject faults into a scenario and score "
             "resilience",
    )
    fl.add_argument("--scenario", choices=sorted(SCENARIOS),
                    default="abrupt-shift")
    fl.add_argument("--sut", default="learned-kv")
    fl.add_argument("--seed", type=int, default=7)
    fl.add_argument("--stall", nargs=2, type=float, action="append",
                    metavar=("AT", "DURATION"),
                    help="full-stop stall: all servers blocked for "
                         "DURATION seconds at AT (repeatable)")
    fl.add_argument("--crash", nargs=2, type=float, action="append",
                    metavar=("AT", "RECOVERY"),
                    help="crash/restart at AT: RECOVERY seconds of "
                         "outage, then a cold-cache retrain (repeatable)")
    fl.add_argument("--slow", nargs=3, type=float, action="append",
                    metavar=("START", "END", "MULTIPLIER"),
                    help="latency window: service times ×MULTIPLIER for "
                         "arrivals in [START, END) (repeatable)")
    fl.add_argument("--degrade", nargs=3, type=float, action="append",
                    metavar=("START", "END", "SECONDS"),
                    help="throughput degradation window: +SECONDS per "
                         "query for arrivals in [START, END) (repeatable)")
    fl.add_argument("--plan-file", default=None,
                    help="load the fault plan from this JSON file "
                         "(FaultPlan.describe() format)")
    fl.add_argument("--export-plan", default=None,
                    help="write the fault plan (JSON) to this path")
    fl.add_argument("--sla", type=float, default=None,
                    help="SLA threshold in seconds (default: p99 × 1.5 "
                         "calibrated from the fault-free baseline)")
    fl.set_defaults(func=cmd_faults)

    trace = sub.add_parser(
        "trace", help="print the telemetry rollup of a saved run manifest"
    )
    trace.add_argument("manifest", help="manifest JSON written by run-matrix")
    trace.add_argument("--jobs", action="store_true",
                       help="also print per-job phase rows")
    trace.set_defaults(func=cmd_trace)

    quality = sub.add_parser("quality", help="score a dataset (§V-C tool)")
    quality.add_argument("dataset",
                         help="builtin dataset name or a text file of keys")
    quality.add_argument("--keys", type=int, default=50_000)
    quality.add_argument("--seed", type=int, default=7)
    quality.set_defaults(func=cmd_quality)

    synth = sub.add_parser(
        "synthesize", help="fit a synthetic workload to a key-trace file"
    )
    synth.add_argument("trace", help="text file with one key per line")
    synth.add_argument("--out", default=None,
                       help="write synthetic keys to this file")
    synth.add_argument("--emit", type=int, default=10_000)
    synth.add_argument("--seed", type=int, default=7)
    synth.set_defaults(func=cmd_synthesize)

    replay = sub.add_parser(
        "replay",
        help="replay a recorded query trace; --fit closes the §V-C "
             "synthesizer round trip",
    )
    replay.add_argument("trace",
                        help="trace file (.csv; see "
                             "docs/trace-replay.md for the format)")
    replay.add_argument("--sut", nargs="+", default=["btree-kv"])
    replay.add_argument("--dilate", type=float, default=1.0,
                        help="time-dilation factor (> 1 stretches the "
                             "trace, lowering the offered rate)")
    replay.add_argument("--max-queries", type=int, default=None,
                        help="replay at most this many leading rows")
    replay.add_argument("--max-span", type=float, default=None,
                        help="replay only the first SPAN seconds "
                             "(after dilation)")
    replay.add_argument("--servers", type=int, default=1)
    replay.add_argument("--seed", type=int, default=0,
                        help="seed for the synthetic round-trip draw")
    replay.add_argument("--fit", action="store_true",
                        help="fit the synthesizer to the trace and print "
                             "the generator-vs-trace RoundTripReport")
    replay.add_argument("--export-spec", default=None,
                        help="write the fitted workload spec (JSON) to "
                             "this path (implies --fit)")
    replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
