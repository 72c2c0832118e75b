"""Trace ingestion and replay (§V-C, ROADMAP item 3 — the Redbench direction).

The paper argues a learned-systems benchmark must ingest *real*
deployments, not only parametric generators. This module provides the
whole round trip:

* a versioned on-disk **trace format** (CSV) with a validating loader —
  see :data:`TRACE_FORMAT_VERSION` and ``docs/trace-replay.md``;
* :class:`QueryTrace`, the in-memory columnar trace with content
  hashing, rebasing, time-dilation, and truncation;
* :class:`TraceArrivalProcess` and :class:`TraceWorkload`, which replay
  the recorded stream through the driver **bit-identically** on the
  scalar, batched, and streaming paths (the trace rows *are* the query
  columns — no RNG is consumed);
* :class:`TraceWorkloadSpec` + :func:`trace_spec`, the declarative
  wrapper whose ``describe()`` embeds the trace content hash so scenario
  fingerprints (and every cache key derived from them) change whenever
  the trace content does;
* the round-trip closer: :func:`fit_trace_workload` fits the
  §V-C synthesizer to a loaded trace, and :func:`round_trip` scores the
  fitted generator against the original stream as a
  :class:`RoundTripReport` (two-sample KS over keys, total variation
  over op histograms, arrival-rate error) using the Fig 1a similarity
  kernels in :mod:`repro.metrics.similarity`.

Replay determinism: a :class:`TraceWorkload` consumes trace rows
positionally and ignores its RNG entirely, so replaying the same trace
at the same dilation always produces byte-identical query columns —
the property the golden tests pin.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DriverError, TraceFormatError
from repro.workloads.distributions import UniformDistribution
from repro.workloads.drift import NoDrift
from repro.workloads.generators import (
    KV_OP_CODES,
    KV_OPERATIONS,
    KVOperation,
    KVQuery,
    KVWorkload,
    OperationMix,
    QueryBatch,
    WorkloadSpec,
)
from repro.workloads.patterns import ArrivalProcess

#: On-disk trace format version this build reads and writes. Bumped on
#: any incompatible column/semantics change; the loader rejects traces
#: declaring a newer version.
TRACE_FORMAT_VERSION = 1

#: CSV header of a v1 trace (``scan_length`` is optional on load).
TRACE_COLUMNS = ("timestamp", "op", "key", "scan_length")

_VERSION_RE = re.compile(r"#\s*repro-trace\s+v(\d+)\s*$")
_OP_BY_NAME = {op.value: code for op, code in KV_OP_CODES.items()}


@dataclass(eq=False)
class QueryTrace:
    """A recorded query stream in columnar form (one row per query).

    Attributes:
        timestamps: float64 arrival times in seconds, non-decreasing.
        ops: int8 operation codes into
            :data:`~repro.workloads.generators.KV_OPERATIONS`.
        keys: float64 target keys (scan start keys for scans).
        scan_lengths: int64 scan lengths (0 for non-scans).
        name: Display name (defaults to the source file stem on load).
        source: Provenance string (file path); informational only — it
            does **not** enter :meth:`describe` or the content hash, so
            the same content loaded from two paths is one cache cell.
    """

    timestamps: np.ndarray
    ops: np.ndarray
    keys: np.ndarray
    scan_lengths: np.ndarray
    name: str = "trace"
    source: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        self.timestamps = np.ascontiguousarray(self.timestamps, dtype=np.float64)
        self.ops = np.ascontiguousarray(self.ops, dtype=np.int8)
        self.keys = np.ascontiguousarray(self.keys, dtype=np.float64)
        self.scan_lengths = np.ascontiguousarray(self.scan_lengths, dtype=np.int64)
        n = self.timestamps.size
        if n == 0:
            raise TraceFormatError("a trace needs at least one row")
        for label, arr in (
            ("ops", self.ops),
            ("keys", self.keys),
            ("scan_lengths", self.scan_lengths),
        ):
            if arr.size != n:
                raise TraceFormatError(
                    f"column length mismatch: {n} timestamps vs "
                    f"{arr.size} {label}"
                )
        if not np.isfinite(self.timestamps).all():
            raise TraceFormatError("timestamps must be finite")
        if not np.isfinite(self.keys).all():
            raise TraceFormatError("keys must be finite")
        if np.any(np.diff(self.timestamps) < 0):
            bad = int(np.flatnonzero(np.diff(self.timestamps) < 0)[0]) + 1
            raise TraceFormatError(
                f"timestamps must be non-decreasing (row {bad} goes backwards)"
            )
        if np.any((self.ops < 0) | (self.ops >= len(KV_OPERATIONS))):
            raise TraceFormatError(
                f"op codes must be in [0, {len(KV_OPERATIONS)}), see KV_OPERATIONS"
            )
        if np.any(self.scan_lengths < 0):
            raise TraceFormatError("scan lengths must be >= 0")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def n(self) -> int:
        """Number of recorded queries."""
        return int(self.timestamps.size)

    @property
    def span(self) -> float:
        """Seconds between the first and last recorded arrival."""
        return float(self.timestamps[-1] - self.timestamps[0])

    def content_hash(self) -> str:
        """SHA-256 over the format version and all four column buffers.

        Any change to any row (or the format version) changes the hash;
        ``name``/``source`` do not participate, so renaming a file never
        invalidates caches.
        """
        digest = hashlib.sha256()
        digest.update(f"repro-trace-v{TRACE_FORMAT_VERSION}".encode())
        for arr in (self.timestamps, self.ops, self.keys, self.scan_lengths):
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def op_histogram(self) -> Dict[str, int]:
        """Per-operation row counts keyed by operation name."""
        counts = np.bincount(
            self.ops.astype(np.int64), minlength=len(KV_OPERATIONS)
        )
        return {
            op.value: int(count)
            for op, count in zip(KV_OPERATIONS, counts)
            if count
        }

    def describe(self) -> dict:
        """JSON-friendly content summary (feeds scenario fingerprints)."""
        return {
            "version": TRACE_FORMAT_VERSION,
            "name": self.name,
            "n": self.n,
            "span": self.span,
            "content_hash": self.content_hash(),
            "ops": self.op_histogram(),
        }

    def rebased(self) -> "QueryTrace":
        """The same trace with timestamps shifted to start at 0."""
        if float(self.timestamps[0]) == 0.0:
            return self
        return QueryTrace(
            timestamps=self.timestamps - self.timestamps[0],
            ops=self.ops,
            keys=self.keys,
            scan_lengths=self.scan_lengths,
            name=self.name,
            source=self.source,
        )

    def dilated(self, factor: float) -> "QueryTrace":
        """Scale inter-arrival times by ``factor`` (time dilation).

        ``factor > 1`` stretches the trace (slower replay, lower offered
        rate); ``factor < 1`` compresses it. The first timestamp is the
        fixed point, so a rebased trace stays rebased and
        ``dilated(f).timestamps - start == f * (timestamps - start)``
        exactly (elementwise float product — the dilation-linearity
        property tests rely on this). ``factor == 1`` returns ``self``.
        """
        factor = float(factor)
        if not factor > 0.0 or not np.isfinite(factor):
            raise ConfigurationError(
                f"dilation factor must be finite and > 0, got {factor}"
            )
        if factor == 1.0:
            return self
        start = self.timestamps[0]
        return QueryTrace(
            timestamps=start + (self.timestamps - start) * factor,
            ops=self.ops,
            keys=self.keys,
            scan_lengths=self.scan_lengths,
            name=f"{self.name}@x{factor:g}",
            source=self.source,
        )

    def truncated(
        self,
        max_queries: Optional[int] = None,
        max_span: Optional[float] = None,
    ) -> "QueryTrace":
        """Prefix of the trace: at most ``max_queries`` rows and/or the
        rows arriving within ``max_span`` seconds of the first arrival.

        Returns ``self`` when no limit bites.
        """
        n = self.n
        if max_queries is not None:
            if max_queries < 1:
                raise ConfigurationError(
                    f"max_queries must be >= 1, got {max_queries}"
                )
            n = min(n, int(max_queries))
        if max_span is not None:
            if max_span < 0:
                raise ConfigurationError(
                    f"max_span must be >= 0, got {max_span}"
                )
            cutoff = float(self.timestamps[0]) + float(max_span)
            n = min(n, int(np.searchsorted(self.timestamps, cutoff, side="right")))
        if n >= self.n:
            return self
        if n == 0:
            raise ConfigurationError(
                "truncation removed every row; widen max_span"
            )
        return QueryTrace(
            timestamps=self.timestamps[:n],
            ops=self.ops[:n],
            keys=self.keys[:n],
            scan_lengths=self.scan_lengths[:n],
            name=self.name,
            source=self.source,
        )

    def to_batch(self) -> QueryBatch:
        """Zero-copy :class:`~repro.workloads.generators.QueryBatch` view."""
        return QueryBatch(
            ops=self.ops,
            keys=self.keys,
            scan_lengths=self.scan_lengths,
            arrivals=self.timestamps,
        )


def replay_duration(trace: QueryTrace) -> float:
    """Segment duration that covers every arrival of a rebased ``trace``.

    Segments generate arrivals over the half-open window ``[0,
    duration)``, so the duration must exceed the last timestamp:
    ``floor(span) + 1`` is the smallest whole-second window that does
    (whole seconds keep the driver's tick stream aligned with the usual
    scenarios).
    """
    return float(np.floor(trace.span)) + 1.0


# -- on-disk format ------------------------------------------------------------------


def _parse_version(line: str, path: Path) -> int:
    match = _VERSION_RE.match(line.strip())
    if not match:
        raise TraceFormatError(
            f"{path}: unrecognized version comment {line.strip()!r}; "
            f"expected '# repro-trace v{TRACE_FORMAT_VERSION}'"
        )
    return int(match.group(1))


def _load_csv(path: Path, name: str) -> QueryTrace:
    """Parse a v1 CSV trace (see ``docs/trace-replay.md`` for the spec)."""
    version = TRACE_FORMAT_VERSION
    with open(path, newline="") as handle:
        first = handle.readline()
        if first.lstrip().startswith("#"):
            version = _parse_version(first, path)
            header_line = handle.readline()
        else:
            header_line = first
        if version > TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: trace format v{version} is newer than this "
                f"build's v{TRACE_FORMAT_VERSION}"
            )
        header = [col.strip() for col in header_line.strip().split(",")]
        required = list(TRACE_COLUMNS[:3])
        if header[: len(required)] != required or not set(header) <= set(
            TRACE_COLUMNS
        ):
            raise TraceFormatError(
                f"{path}: bad header {header}; a v1 trace needs columns "
                f"{', '.join(TRACE_COLUMNS[:3])}[, scan_length]"
            )
        has_scan = "scan_length" in header
        timestamps, ops, keys, scans = [], [], [], []
        for row_no, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise TraceFormatError(
                    f"{path}: row {row_no} has {len(row)} fields, "
                    f"expected {len(header)}"
                )
            try:
                timestamps.append(float(row[0]))
                keys.append(float(row[2]))
                scans.append(int(row[3]) if has_scan else 0)
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}: row {row_no}: {exc}"
                ) from None
            op_name = row[1].strip()
            if op_name not in _OP_BY_NAME:
                raise TraceFormatError(
                    f"{path}: row {row_no}: unknown op {op_name!r}; "
                    f"expected one of {sorted(_OP_BY_NAME)}"
                )
            ops.append(_OP_BY_NAME[op_name])
    if not timestamps:
        raise TraceFormatError(f"{path}: trace has no data rows")
    return QueryTrace(
        timestamps=np.asarray(timestamps, dtype=np.float64),
        ops=np.asarray(ops, dtype=np.int8),
        keys=np.asarray(keys, dtype=np.float64),
        scan_lengths=np.asarray(scans, dtype=np.int64),
        name=name,
        source=str(path),
    )


def _save_csv(trace: QueryTrace, path: Path) -> None:
    """Write a v1 CSV trace (full-precision ``repr`` floats)."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# repro-trace v{TRACE_FORMAT_VERSION}\n")
        handle.write(",".join(TRACE_COLUMNS) + "\n")
        writer = csv.writer(handle)
        for t, op, key, scan in zip(
            trace.timestamps.tolist(),
            trace.ops.tolist(),
            trace.keys.tolist(),
            trace.scan_lengths.tolist(),
        ):
            writer.writerow([repr(t), KV_OPERATIONS[op].value, repr(key), scan])


def _require_csv(path: Path) -> None:
    if path.suffix.lower() != ".csv":
        raise ConfigurationError(
            f"cannot infer trace format from {path.name!r}; "
            "only CSV traces (a .csv suffix) are supported"
        )


def load_trace(path: Union[str, Path], name: Optional[str] = None) -> QueryTrace:
    """Load and validate an on-disk trace.

    Args:
        path: Trace file (``.csv``).
        name: Trace display name (default: the file stem).

    Raises:
        TraceFormatError: Malformed file, unknown op, non-monotone or
            non-finite values, or a newer format version.
        ConfigurationError: Missing file, or a suffix other than ``.csv``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"trace file not found: {path}")
    _require_csv(path)
    return _load_csv(path, name or path.stem)


def save_trace(trace: QueryTrace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to disk in the versioned format; returns the path.

    CSV writes full-precision ``repr`` floats, so a save/load round trip
    reproduces every column bit-for-bit (the hypothesis tests pin this).
    """
    path = Path(path)
    _require_csv(path)
    _save_csv(trace, path)
    return path


# -- replay --------------------------------------------------------------------------


class TraceArrivalProcess(ArrivalProcess):
    """Arrival process that replays a trace's recorded timestamps.

    Unlike the parametric processes, :meth:`arrivals` ignores the RNG and
    the jitter flag entirely — the recorded timestamps inside the
    requested window *are* the arrivals, which is what makes replay
    deterministic and bit-identical across driver paths.
    """

    def __init__(self, trace: QueryTrace) -> None:
        """Bind the process to ``trace`` (timestamps used as recorded)."""
        self._trace = trace
        self._times = trace.timestamps

    @property
    def trace(self) -> QueryTrace:
        """The replayed trace."""
        return self._trace

    def rate(self, t: float) -> float:
        """Empirical rate: recorded arrivals in ``[t, t + 1)``."""
        lo = np.searchsorted(self._times, t, side="left")
        hi = np.searchsorted(self._times, t + 1.0, side="left")
        return float(hi - lo)

    def arrivals(
        self, rng: np.random.Generator, start: float, end: float, jitter: bool = True
    ) -> np.ndarray:
        """The recorded timestamps in ``[start, end)`` (rng/jitter unused)."""
        if end <= start:
            return np.empty(0, dtype=np.float64)
        lo = np.searchsorted(self._times, start, side="left")
        hi = np.searchsorted(self._times, end, side="left")
        return self._times[lo:hi].copy()

    def projected_count(self, start: float, end: float) -> int:
        """Exact number of recorded arrivals in ``[start, end)``."""
        if end <= start:
            return 0
        lo = np.searchsorted(self._times, start, side="left")
        hi = np.searchsorted(self._times, end, side="left")
        return int(hi - lo)

    def describe(self) -> dict:
        """JSON-friendly description (carries the trace content hash)."""
        return {
            "kind": "TraceArrivalProcess",
            "n": self._trace.n,
            "span": self._trace.span,
            "content_hash": self._trace.content_hash(),
        }


class TraceWorkload(KVWorkload):
    """Executable workload that replays trace rows positionally.

    Each :meth:`next_batch` call consumes the next ``len(times)`` rows of
    the trace front-to-back — the driver always asks for exactly the
    arrivals the :class:`TraceArrivalProcess` produced, so row *i* of the
    trace becomes query *i* of the stream. No RNG is consumed: replay is
    deterministic at any seed, which is what keeps the scalar, batched,
    and streaming paths bit-identical (truncated runs consume a prefix;
    sharded runs slice the full batch after generation).
    """

    def __init__(self, spec: "TraceWorkloadSpec", seed: int = 0) -> None:
        """Bind the replay cursor to the spec's trace."""
        if spec.trace is None:
            raise ConfigurationError("TraceWorkload needs a spec with a trace")
        super().__init__(spec, seed=seed)
        self._trace = spec.trace
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Number of trace rows consumed so far."""
        return self._cursor

    def next_batch(self, times: np.ndarray) -> QueryBatch:
        """Replay the next ``len(times)`` trace rows as a batch.

        ``times`` (the driver's arrival array, already offset to
        scenario coordinates) becomes the batch's arrival column; ops,
        keys, and scan lengths come verbatim from the trace rows.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        lo = self._cursor
        hi = lo + times.size
        if hi > self._trace.n:
            raise DriverError(
                f"trace {self._trace.name!r} exhausted: replay asked for "
                f"rows [{lo}, {hi}) of {self._trace.n}"
            )
        self._cursor = hi
        return QueryBatch(
            ops=self._trace.ops[lo:hi],
            keys=self._trace.keys[lo:hi],
            scan_lengths=self._trace.scan_lengths[lo:hi],
            arrivals=times,
        )

    def next_query(self, t: float) -> KVQuery:
        """Replay the next single trace row (advances the cursor)."""
        return self.next_batch(np.asarray([t], dtype=np.float64)).query(0)

    def sample_keys(self, t: float, n: int) -> np.ndarray:
        """Probe sample: draw ``n`` keys from the trace's empirical keys.

        Uses the same time-mixed probe RNG scheme as the parametric
        workload, so probes never disturb the replay cursor.
        """
        probe_rng = np.random.default_rng(
            np.random.SeedSequence(
                [self._seed & 0xFFFFFFFFFFFFFFFF, int(np.float64(t).view(np.uint64))]
            )
        )
        return probe_rng.choice(self._trace.keys, size=n, replace=True)


@dataclass
class TraceWorkloadSpec(WorkloadSpec):
    """A :class:`WorkloadSpec` backed by a recorded trace.

    The declarative fields (mix, key drift, arrivals, scan length) are
    the trace's *empirical* summaries — built by :func:`trace_spec` — so
    Φ similarity and quality scoring treat a replayed trace like any
    other workload. :meth:`build_workload` substitutes the replaying
    :class:`TraceWorkload`, and :meth:`describe` embeds the trace
    content summary, putting the content hash into every scenario
    fingerprint and cache key built from this spec.
    """

    trace: Optional[QueryTrace] = None

    def build_workload(self, seed: int = 0) -> KVWorkload:
        """Construct the replaying executable workload."""
        return TraceWorkload(self, seed=seed)

    def describe(self) -> dict:
        """Parent description plus the trace content summary."""
        out = super().describe()
        if self.trace is not None:
            out["trace"] = self.trace.describe()
        return out


def trace_spec(trace: QueryTrace, name: Optional[str] = None) -> TraceWorkloadSpec:
    """Build the declarative replay spec for ``trace``.

    The empirical summaries: operation mix from the trace's op
    histogram, key "distribution" as a fitted histogram over the
    recorded keys (uniform for degenerate single-point traces), arrivals
    from :class:`TraceArrivalProcess`, and the mean recorded scan
    length. Replay itself uses the raw rows (see
    :class:`TraceWorkload`); the summaries exist for Φ signatures and
    fingerprints.
    """
    counts = trace.op_histogram()
    mix = OperationMix(
        {KVOperation(op_name): float(c) for op_name, c in counts.items()}
    )
    lo, hi = float(trace.keys.min()), float(trace.keys.max())
    if trace.n >= 2 and hi > lo:
        from repro.workloads.synthesizer import fit_distribution

        dist = fit_distribution(trace.keys, buckets=min(256, trace.n))
    else:
        dist = UniformDistribution(lo, hi + 1.0)
    scan_mask = trace.ops == KV_OP_CODES[KVOperation.SCAN]
    scan_mean = (
        int(round(float(trace.scan_lengths[scan_mask].mean())))
        if scan_mask.any()
        else 0
    )
    return TraceWorkloadSpec(
        name=name or f"replay:{trace.name}",
        mix=mix,
        key_drift=NoDrift(dist),
        arrivals=TraceArrivalProcess(trace),
        scan_length_mean=scan_mean,
        trace=trace,
    )


# -- synthesizer round trip ----------------------------------------------------------


def fit_trace_workload(
    trace: QueryTrace,
    name: Optional[str] = None,
    buckets: int = 256,
    rate_window: float = 10.0,
):
    """Fit the §V-C synthesizer to a loaded trace.

    Rebases the trace and hands its keys and timestamps to
    :func:`repro.workloads.synthesizer.fit_workload`, with the trace's
    empirical operation mix and mean scan length. Returns the fitted
    parametric :class:`~repro.workloads.generators.WorkloadSpec` (a
    shareable generator — no trace data embedded) and its
    :class:`~repro.workloads.synthesizer.SynthesisReport`.
    """
    from repro.workloads.synthesizer import fit_workload

    rebased = trace.rebased()
    counts = rebased.op_histogram()
    mix = OperationMix(
        {KVOperation(op_name): float(c) for op_name, c in counts.items()}
    )
    scan_mask = rebased.ops == KV_OP_CODES[KVOperation.SCAN]
    scan_mean = (
        int(round(float(rebased.scan_lengths[scan_mask].mean())))
        if scan_mask.any()
        else 0
    )
    return fit_workload(
        name or f"{trace.name}-fit",
        keys=rebased.keys,
        timestamps=rebased.timestamps,
        buckets=buckets,
        rate_window=rate_window,
        mix=mix,
        scan_length_mean=scan_mean,
    )


@dataclass(frozen=True)
class RoundTripReport:
    """Generator-vs-trace divergence after a synthesizer round trip.

    All divergences compare the *original* trace stream against a fresh
    stream drawn from the fitted generator, using the Fig 1a similarity
    kernels. Lower is better for all three.

    Attributes:
        ks_keys: Two-sample KS statistic between recorded and synthetic
            key columns (``phi_data`` of
            :func:`repro.metrics.similarity.realized_stream_phi`).
        tv_ops: Total-variation distance between the op histograms
            (``phi_workload`` of the same kernel).
        arrival_rate_error: L1 error between per-window arrival counts,
            normalized by the trace length (0 = rates match exactly).
        phi: Mean of ``ks_keys`` and ``tv_ops`` — the stream Φ.
        key_fit_ks: Fit-time KS of the key distribution alone (the
            :class:`~repro.workloads.synthesizer.SynthesisReport` value).
        n_trace: Rows in the original trace.
        n_synthetic: Queries the fitted generator produced.
        seed: Seed used for the synthetic draw.
        rate_window: Window (seconds) for the arrival-rate comparison.
    """

    ks_keys: float
    tv_ops: float
    arrival_rate_error: float
    phi: float
    key_fit_ks: float
    n_trace: int
    n_synthetic: int
    seed: int
    rate_window: float

    @property
    def high_fidelity(self) -> bool:
        """Heuristic pass: KS and TV at most 0.05, rate error at most 0.1."""
        return (
            self.ks_keys <= 0.05
            and self.tv_ops <= 0.05
            and self.arrival_rate_error <= 0.1
        )

    def to_dict(self) -> dict:
        """JSON-friendly payload (what the golden test pins)."""
        return {
            "ks_keys": self.ks_keys,
            "tv_ops": self.tv_ops,
            "arrival_rate_error": self.arrival_rate_error,
            "phi": self.phi,
            "key_fit_ks": self.key_fit_ks,
            "n_trace": self.n_trace,
            "n_synthetic": self.n_synthetic,
            "seed": self.seed,
            "rate_window": self.rate_window,
            "high_fidelity": self.high_fidelity,
        }


def round_trip(
    trace: QueryTrace,
    name: Optional[str] = None,
    seed: int = 0,
    buckets: int = 256,
    rate_window: float = 10.0,
) -> Tuple[WorkloadSpec, "SynthesisReport", RoundTripReport]:
    """Close the loop: fit a generator to ``trace`` and score it.

    Fits via :func:`fit_trace_workload`, draws a synthetic stream from
    the fitted spec over the trace's replay window (deterministic at
    ``seed``, jitter off), and scores generator-vs-trace divergence with
    :func:`repro.metrics.similarity.realized_stream_phi` plus a windowed
    arrival-rate error. Deterministic for fixed inputs — every float in
    the returned :class:`RoundTripReport` is goldenable.

    Returns:
        ``(fitted spec, synthesis report, round-trip report)``.
    """
    from repro.metrics.similarity import realized_stream_phi

    if trace.n < 2:
        raise ConfigurationError(
            "round trip needs at least 2 trace rows to fit a generator"
        )
    rebased = trace.rebased()
    spec, synthesis = fit_trace_workload(
        rebased, name=name, buckets=buckets, rate_window=rate_window
    )
    duration = replay_duration(rebased)
    times = spec.arrivals.arrivals(
        np.random.default_rng(seed), 0.0, duration, jitter=False
    )
    if times.size == 0:
        raise ConfigurationError(
            "fitted arrival process produced no synthetic queries; "
            "the trace is too sparse for a round trip"
        )
    synthetic = KVWorkload(spec, seed=seed).next_batch(times)
    stream_phi = realized_stream_phi(rebased.to_batch(), synthetic)
    edges = np.arange(0.0, duration + rate_window, rate_window)
    recorded_counts, _ = np.histogram(rebased.timestamps, bins=edges)
    synthetic_counts, _ = np.histogram(times, bins=edges)
    rate_error = float(
        np.abs(recorded_counts - synthetic_counts).sum() / rebased.n
    )
    report = RoundTripReport(
        ks_keys=float(stream_phi["phi_data"]),
        tv_ops=float(stream_phi["phi_workload"]),
        arrival_rate_error=rate_error,
        phi=float(stream_phi["phi"]),
        key_fit_ks=float(synthesis.ks_distance),
        n_trace=rebased.n,
        n_synthetic=int(times.size),
        seed=int(seed),
        rate_window=float(rate_window),
    )
    return spec, synthesis, report
