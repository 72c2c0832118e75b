"""The benchmark framework — the paper's primary contribution.

Implements the benchmark sketched in §V: scenarios whose workload and
data distributions vary within a single run, a discrete-event driver with
a virtual clock, training as a first-class phase (offline and online),
hardware profiles for training-cost accounting, and sealed hold-out
scenarios for out-of-sample evaluation.
"""

from repro.core.benchmark import Benchmark, BenchmarkConfig
from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.hardware import CPU, GPU, TPU, HardwareProfile
from repro.core.holdout import HoldoutRegistry
from repro.core.phases import TrainingEvent, TrainingPhase
from repro.core.results import RunResult
from repro.core.runner import (
    MatrixJob,
    MatrixOutcome,
    MatrixRunner,
    ResultCache,
    RunManifest,
    matrix_jobs,
)
from repro.core.scenario import Scenario, Segment
from repro.core.sharded import plan_shards
from repro.core.streaming import (
    ColumnSpiller,
    ShardSpec,
    StreamingRecorder,
    StreamingRunSummary,
    load_spilled_columns,
)
from repro.core.sut import SystemUnderTest, TrainingSummary
from repro.core.tenancy import (
    AdmissionPolicy,
    BenchmarkServer,
    ServiceReport,
    TenantReport,
    TenantSpec,
)
from repro.core.workers import WorkerOutcome, WorkerPool, WorkerTask

__all__ = [
    "AdmissionPolicy",
    "BenchmarkServer",
    "ServiceReport",
    "TenantReport",
    "TenantSpec",
    "WorkerOutcome",
    "WorkerPool",
    "WorkerTask",
    "ShardSpec",
    "StreamingRecorder",
    "StreamingRunSummary",
    "ColumnSpiller",
    "load_spilled_columns",
    "plan_shards",
    "HardwareProfile",
    "CPU",
    "GPU",
    "TPU",
    "SystemUnderTest",
    "TrainingSummary",
    "TrainingPhase",
    "TrainingEvent",
    "Scenario",
    "Segment",
    "RunResult",
    "DriverConfig",
    "VirtualClockDriver",
    "Benchmark",
    "BenchmarkConfig",
    "MatrixJob",
    "MatrixOutcome",
    "MatrixRunner",
    "ResultCache",
    "RunManifest",
    "matrix_jobs",
    "HoldoutRegistry",
]
