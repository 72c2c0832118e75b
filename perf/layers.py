"""Standalone layer probes for the traced pass.

Each probe calls one layer's public function on the traced op's own
inputs or result columns and returns ``{metric name: value}``. The
harness runs every probe behind one ``try``: a probe whose symbol moved
(:class:`perf.entrypoints.Unavailable`) or whose call shape changed
reports the names it ``provides`` as unavailable and the op still
counts as correct.

``ctx`` is a namespace the workload fills: ``workload``, ``tr`` (the
:class:`perf.tracing.Tracing`), ``scenario``, ``config``, ``columns``
(the op's result columns) and ``training_events``.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path

import numpy as np

from perf import entrypoints as ep

SLA = 1e-3


def provides(*names):
    """Declare the metric names a probe reports."""

    def mark(fn):
        fn.provides = names
        return fn

    return mark


def timed(fn, *args, **kwargs):
    """``(result, wall seconds)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def slice_bounds(columns, scenario, block_size=None) -> np.ndarray:
    """Row offsets at which the driver cut the run into blocks.

    The batched driver executes tick-bounded slices (never crossing a
    segment boundary), further capped at ``block_size`` — replaying a
    layer at these cuts gives it the call pattern it had inside the run.
    """
    n = int(columns.arrivals.size)
    tick = scenario.tick_interval
    ticks = np.arange(0.0, scenario.total_duration + tick, tick)
    cuts = [
        np.searchsorted(columns.arrivals, ticks, side="left"),
        np.flatnonzero(np.diff(columns.segment_codes)) + 1,
        [0, n],
    ]
    bounds = np.unique(np.concatenate(cuts))
    if block_size is not None:
        bounds = np.unique(
            np.concatenate(
                [np.arange(a, b, block_size) for a, b in zip(bounds[:-1], bounds[1:])]
                + [[n]]
            )
        )
    return bounds


@provides("data.build_dataset_s")
def dataset(ctx):
    _, seconds = timed(ctx.workload.build_keys)
    return {"data.build_dataset_s": seconds}


@provides("workloads.arrivals_s", "workloads.next_batch_s", "workloads.queries")
def generation(ctx):
    scenario = ctx.scenario
    arrivals_s = batch_s = 0.0
    queries = 0
    for i, segment in enumerate(scenario.segments):
        rng = np.random.default_rng(scenario.seed + i)
        arrivals, seconds = timed(
            segment.spec.arrivals.arrivals,
            rng,
            0.0,
            segment.duration,
            jitter=ctx.config.jitter_arrivals,
        )
        arrivals_s += seconds
        workload = segment.spec.build_workload(seed=scenario.seed + i)
        batch, seconds = timed(workload.next_batch, arrivals)
        batch_s += seconds
        queries += len(batch)
    return {
        "workloads.arrivals_s": arrivals_s,
        "workloads.next_batch_s": batch_s,
        "workloads.queries": queries,
    }


@provides(
    "suts.setup_s",
    "suts.offline_train_s",
    "suts.execute_batch_s",
    "suts.on_tick_s",
    "suts.execute_batch_calls",
    "suts.queries_per_call",
    "suts.read_run_mean_len",
)
def sut(ctx):
    return ctx.tr.proxy.counters()


@provides("suts.bulk_hit_share")
def bulk_hits(ctx):
    """The program's own ``kv.bulk_hit_queries`` counter over proxy-counted reads."""
    reads = ctx.tr.proxy.read_queries
    hits = ctx.tr.program_tracer.finish().counter("kv.bulk_hit_queries")
    return {"suts.bulk_hit_share": hits / reads if reads else 0.0}


@provides(
    "indexes.node_accesses",
    "indexes.comparisons",
    "indexes.model_evaluations",
    "indexes.retrains",
    "learned.training_events",
    "learned.training_nominal_s",
)
def index(ctx):
    stats = ctx.tr.proxy.wrapped.index.stats
    events = ctx.training_events
    return {
        "indexes.node_accesses": stats.node_accesses,
        "indexes.comparisons": stats.comparisons,
        "indexes.model_evaluations": stats.model_evaluations,
        "indexes.retrains": stats.retrains,
        "learned.training_events": len(events),
        "learned.training_nominal_s": sum(e.nominal_seconds for e in events),
    }


@provides("queueing.fifo_s", "queueing.waited_share")
def queueing(ctx):
    """Replay the FIFO kernel slice by slice and require the run's own timestamps.

    The free time entering a slice is recovered from the columns: a first
    query that waited started exactly when the server came free (which
    also carries any retrain that blocked it); one that did not wait saw
    a server free no later than the previous completion.
    """
    fifo = ep.probe("fifo_single_server")
    cols = ctx.columns
    arrivals, starts, completions = cols.arrivals, cols.starts, cols.completions
    services = completions - starts
    bounds = slice_bounds(cols, ctx.scenario, ctx.config.block_size)
    replayed = np.empty_like(completions)
    seconds = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        if starts[a] > arrivals[a]:
            free = float(starts[a])
        else:
            free = float(completions[a - 1]) if a else 0.0
        (_, replayed[a:b], _), elapsed = timed(fifo, arrivals[a:b], services[a:b], free)
        seconds += elapsed
    if not np.allclose(replayed, completions, rtol=1e-12, atol=0.0):
        raise RuntimeError("FIFO replay does not reproduce the run's completions")
    return {
        "queueing.fifo_s": seconds,
        "queueing.waited_share": float(np.mean(starts > arrivals)),
    }


@provides("results.append_s", "results.build_s", "results.reallocations")
def recorder(ctx):
    cols = ctx.columns
    rec = ep.probe("ColumnarRecorder")()
    bounds = slice_bounds(cols, ctx.scenario, ctx.config.block_size)
    for op in cols.op_vocab:
        rec.intern_op(op)
    for label in cols.segment_vocab:
        rec.intern_segment(label)
    rows = np.bincount(cols.segment_codes)
    current = -1
    start = time.perf_counter()
    for a, b in zip(bounds[:-1], bounds[1:]):
        code = int(cols.segment_codes[a])
        if code != current:
            # The driver reserves a segment's rows, then appends its blocks.
            rec.reserve(int(rows[code]))
            current = code
        rec.append_block(
            cols.arrivals[a:b],
            cols.starts[a:b],
            cols.completions[a:b],
            cols.op_codes[a:b],
            code,
        )
    append_s = time.perf_counter() - start
    _, build_s = timed(rec.build)
    return {
        "results.append_s": append_s,
        "results.build_s": build_s,
        "results.reallocations": rec.reallocations,
    }


@provides("metrics.fold_s", "metrics.finalize_s")
def fold(ctx):
    block_type = ep.probe("StreamBlock")
    accumulators = ep.probe("streaming_accumulators")(ctx.scenario, sla=SLA)
    cols = ctx.columns
    bounds = slice_bounds(cols, ctx.scenario, ctx.config.block_size)
    start = time.perf_counter()
    for a, b in zip(bounds[:-1], bounds[1:]):
        block = block_type(
            cols.arrivals[a:b],
            cols.starts[a:b],
            cols.completions[a:b],
            cols.op_codes[a:b],
            cols.segment_codes[a:b],
        )
        for accumulator in accumulators:
            accumulator.fold(block)
    fold_s = time.perf_counter() - start
    horizon = max(ctx.scenario.total_duration, float(cols.completions.max()))
    start = time.perf_counter()
    for accumulator in accumulators:
        accumulator.finalize(horizon)
    return {
        "metrics.fold_s": fold_s,
        "metrics.finalize_s": time.perf_counter() - start,
    }


@provides(
    "streaming.spill_write_s",
    "streaming.spill_bytes",
    "streaming.bytes_per_query",
    "streaming.spill_load_s",
)
def spill(ctx):
    """Spill cost as a paired difference: same run with and without it."""
    workload = ctx.workload
    spilled, with_s = timed(workload.stream, workload.prepare(), ctx.no_tracing)
    plain = workload.prepare()
    plain["spill"] = None
    _, without_s = timed(workload.stream, plain, ctx.no_tracing)
    directory = Path(spilled.spill["directory"])
    size = sum(f.stat().st_size for f in directory.iterdir())
    _, load_s = timed(ep.load_spilled_columns, directory)
    workload.discard(directory)
    return {
        "streaming.spill_write_s": with_s - without_s,
        "streaming.spill_bytes": size,
        "streaming.bytes_per_query": size / spilled.num_queries,
        "streaming.spill_load_s": load_s,
    }


@provides(
    "sharded.plan_s",
    "sharded.run_s",
    "sharded.speedup",
    "sharded.merge_s",
    "sharded.payload_bytes",
)
def sharded(ctx):
    """One tenant's session, sharded vs not, plus the merge in isolation."""
    scenario, config, shards = ctx.scenario, ctx.config, ctx.workload.SHARDS
    plan, plan_s = timed(ep.probe("plan_shards"), scenario, shards)
    _, run_s = timed(
        ep.Benchmark(config).run_sharded_streaming,
        ctx.workload.sut_factory,
        scenario,
        shards=shards,
        sla=SLA,
    )
    driver = ep.probe("VirtualClockDriver")(config.driver_config())
    make = ep.probe("streaming_accumulators")
    payloads = [
        driver.run_streaming_shard(
            ctx.workload.sut_factory(), scenario, shard, make(scenario, sla=SLA)
        )
        for shard in plan
    ]
    _, merge_s = timed(
        ep.probe("merge_shard_payloads"),
        scenario,
        plan,
        payloads,
        [1] * len(plan),
        make(scenario, sla=SLA),
    )
    return {
        "sharded.plan_s": plan_s,
        "sharded.run_s": run_s,
        "sharded.speedup": ctx.unsharded_s / run_s,
        "sharded.merge_s": merge_s,
        "sharded.payload_bytes": sum(len(pickle.dumps(p)) for p in payloads),
    }
