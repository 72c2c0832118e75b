"""The one place the benchmark names symbols of the program.

Two tiers:

* **Frozen public entry points** — what a user of the package calls, and
  what every timed op goes through. Later refactors must keep these
  importable under these names with these call shapes (they are listed
  in ``perf/README.md``). They are imported eagerly: if one is gone the
  benchmark cannot run and says so.
* **Layer probes** — public functions of single layers that the traced
  pass calls standalone to attribute time. They are resolved lazily by
  :func:`probe`; a symbol that has moved makes its metrics
  ``unavailable`` and never fails an op.
"""

from __future__ import annotations

import importlib

# -- frozen: the timed surface ---------------------------------------------------------
from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.reporting.report import build_report
from repro.suts.analytic import AnalyticDriver

# -- frozen: the vocabulary needed to build inputs for that surface ---------------------
from repro.core.phases import TrainingPhase
from repro.core.scenario import Scenario, Segment
from repro.core.streaming import load_spilled_columns
from repro.core.tenancy import TenantSpec
from repro.data.datasets import build_dataset
from repro.suts.analytic import (
    AnalyticWorkload,
    LearnedOptimizerSUT,
    build_analytic_catalog,
)
from repro.suts.kv_learned import LearnedKVStore
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import HotspotDistribution, UniformDistribution
from repro.workloads.drift import AbruptDrift, NoDrift
from repro.workloads.generators import (
    KV_OP_CODES,
    KVOperation,
    OperationMix,
    WorkloadSpec,
    simple_spec,
)
from repro.workloads.patterns import ConstantArrivals

READ_CODE = KV_OP_CODES[KVOperation.READ]

__all__ = [
    "AbruptDrift",
    "AnalyticDriver",
    "AnalyticWorkload",
    "Benchmark",
    "BenchmarkConfig",
    "ConstantArrivals",
    "HotspotDistribution",
    "KVOperation",
    "LearnedKVStore",
    "LearnedOptimizerSUT",
    "NoDrift",
    "OperationMix",
    "READ_CODE",
    "Scenario",
    "Segment",
    "TenantSpec",
    "TraditionalKVStore",
    "TrainingPhase",
    "UniformDistribution",
    "Unavailable",
    "WorkloadSpec",
    "build_analytic_catalog",
    "build_dataset",
    "build_report",
    "load_spilled_columns",
    "probe",
    "simple_spec",
]

#: Layer probes: short name -> "module:attribute".
PROBES = {
    "Tracer": "repro.observability:Tracer",
    "fifo_single_server": "repro.core.queueing:fifo_single_server",
    "ColumnarRecorder": "repro.core.results:ColumnarRecorder",
    "StreamBlock": "repro.core.streaming:StreamBlock",
    "streaming_accumulators": "repro.metrics:streaming_accumulators",
    "plan_shards": "repro.core.sharded:plan_shards",
    "merge_shard_payloads": "repro.core.sharded:merge_shard_payloads",
    "VirtualClockDriver": "repro.core.driver:VirtualClockDriver",
}


class Unavailable(Exception):
    """A layer probe's symbol is not where the benchmark expects it."""


def probe(name: str):
    """Resolve one layer-probe symbol or raise :class:`Unavailable`."""
    module_name, attribute = PROBES[name].split(":")
    try:
        return getattr(importlib.import_module(module_name), attribute)
    except (ImportError, AttributeError) as exc:
        raise Unavailable(f"{PROBES[name]} not found ({exc})") from exc
