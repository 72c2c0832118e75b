"""The frozen public entry points keep exactly these parameters.

``perf/README.md`` ("Frozen public entry points") lists the calls every
timed op of the repo benchmark goes through. A parameter added to one of
them is an option every later refactor has to carry, so adding one means
editing this pin — and saying which two callers need different values.
The FIFO kernel is pinned too: ``perf/layers.py`` probes it by name and
replays run columns through it.

The harness's own knobs are pinned the same way: ``DriverConfig``'s
fields, the ``AnalyticDriver``, ``StreamingRecorder`` and
``MatrixRunner`` constructors, and ``streaming_accumulators``, whose
settings are the accumulators' constructor defaults.

So are the Fig 1 metric entry points that fold a run through their
online accumulator as one block, and the ``StreamBlock`` constructor
``perf/layers.py`` calls positionally: the single definition of each
metric takes no knob the batch call did not already take.

And the key-value write path every ``write_mix`` op runs: the index's
bulk kernels, the store's ``execute_batch`` and the key buffer's shift
and merge.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.core.benchmark import Benchmark
from repro.core.driver import DriverConfig
from repro.core.queueing import fifo_single_server
from repro.core.results import RunResult
from repro.core.runner import MatrixRunner
from repro.core.streaming import StreamBlock, StreamingRecorder, load_spilled_columns
from repro.indexes.base import OrderedIndex
from repro.indexes.keybuffer import SortedKeyBuffer
from repro.metrics import streaming_accumulators
from repro.metrics.adaptability import (
    adaptability_report,
    area_vs_ideal,
    cumulative_curve,
    recovery_time,
)
from repro.metrics.resilience import degraded_sla_mass, fault_recovery_times
from repro.metrics.sla import adjustment_speed, latency_bands
from repro.metrics.specialization import specialization_report
from repro.reporting.report import build_report
from repro.suts.analytic import AnalyticDriver
from repro.suts.kv_base import KVStoreBase

FROZEN = [
    (Benchmark.run, ("self", "sut", "scenario")),
    (
        Benchmark.run_streaming,
        ("self", "sut", "scenario", "accumulators", "sla", "spill_dir"),
    ),
    (
        Benchmark.run_sharded_streaming,
        ("self", "sut_factory", "scenario", "shards", "accumulator_factory",
         "sla", "spill_dir", "max_attempts", "shard_timeout"),
    ),
    (
        Benchmark.serve,
        ("self", "tenants", "workers", "admission", "registry", "sla",
         "spill_dir", "max_attempts", "tenant_timeout"),
    ),
    (
        build_report,
        ("result", "scenario", "sla", "trace"),
    ),
    (load_spilled_columns, ("directory",)),
    (fifo_single_server, ("arrivals", "services", "free")),
    (AnalyticDriver.__init__, ("self", "seed", "tracer", "fault_plan")),
    (StreamingRecorder.__init__, ("self", "accumulators", "spiller")),
    (
        MatrixRunner.__init__,
        ("self", "driver_config", "workers", "cache_dir", "max_attempts",
         "job_timeout", "retry_backoff", "checkpoint", "resume"),
    ),
    (streaming_accumulators, ("scenario", "sla", "plan")),
    (
        StreamBlock.__init__,
        ("self", "arrivals", "starts", "completions", "op_codes", "segment_codes"),
    ),
    (RunResult.throughput_series, ("self", "interval")),
    (cumulative_curve, ("result", "resolution")),
    (area_vs_ideal, ("result", "ideal_rate", "resolution")),
    (recovery_time, ("result", "change_time", "window", "recovery_fraction")),
    (adaptability_report, ("result", "change_time", "resolution")),
    (latency_bands, ("result", "sla", "interval")),
    (adjustment_speed, ("result", "change_time", "n_queries", "sla")),
    (
        specialization_report,
        ("result", "scenario", "interval", "baseline_label", "phi_sample_size",
         "holdout_labels", "phi_seed"),
    ),
    (degraded_sla_mass, ("result", "sla", "plan")),
    (fault_recovery_times, ("result", "plan", "window", "recovery_fraction")),
    (OrderedIndex.bulk_lookup, ("self", "keys", "ranks")),
    (OrderedIndex.bulk_apply, ("self", "keys", "ranks", "writes", "values")),
    (KVStoreBase.execute_batch, ("self", "batch", "now")),
    (SortedKeyBuffer.insert_at, ("self", "pos", "key")),
    (SortedKeyBuffer.merge, ("self", "points", "keys")),
]

DRIVER_CONFIG_FIELDS = (
    "online_hardware",
    "max_queries",
    "jitter_arrivals",
    "servers",
    "block_size",
)


def test_parameter_names_are_pinned():
    actual = [(f, tuple(inspect.signature(f).parameters)) for f, _ in FROZEN]
    assert actual == FROZEN


def test_driver_config_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(DriverConfig))
    assert fields == DRIVER_CONFIG_FIELDS
