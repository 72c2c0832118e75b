"""Run results: the raw material every metric is computed from.

A :class:`RunResult` is the complete record of one benchmark run: every
query's arrival/start/completion timestamps, segment boundaries, and all
training events. The Fig 1 metrics are pure functions of this record, so
results can be persisted as JSON and re-analyzed without re-running.

Storage is *columnar*: the query log lives in NumPy arrays (one column
per field, see :class:`QueryColumns`), built by the driver's
:class:`ColumnarRecorder` or from wire rows. Derived views the metric
kernels need — completion-sorted timestamps, latencies, the run as one
streaming block — are built once per result and cached; every Fig 1
kernel folds that block through its online accumulator, so the full
metric suite over a multi-million-query run costs one sort.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phases import TrainingEvent, event_from_telemetry, event_to_telemetry
from repro.errors import ReproError


def _intern(labels: Sequence[str]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """(codes, vocab) encoding of a string sequence (vocab sorted)."""
    if not len(labels):
        return np.zeros(0, dtype=np.int32), ()
    vocab, codes = np.unique(np.asarray(labels, dtype=object), return_inverse=True)
    return codes.astype(np.int32), tuple(str(v) for v in vocab)


@dataclass(eq=False)
class QueryColumns:
    """Columnar query log, in driver append (arrival) order.

    Attributes:
        arrivals / starts / completions: float64 timestamp columns.
        op_codes: int32 code per query into ``op_vocab``.
        op_vocab: Operation names, indexed by code.
        segment_codes: int32 code per query into ``segment_vocab``.
        segment_vocab: Segment labels, indexed by code.
    """

    arrivals: np.ndarray
    starts: np.ndarray
    completions: np.ndarray
    op_codes: np.ndarray
    op_vocab: Tuple[str, ...]
    segment_codes: np.ndarray
    segment_vocab: Tuple[str, ...]

    @property
    def size(self) -> int:
        """Number of queries."""
        return int(self.arrivals.size)

    @cached_property
    def latencies(self) -> np.ndarray:
        """End-to-end latencies (completion - arrival), record order."""
        return self.completions - self.arrivals

    @cached_property
    def service_times(self) -> np.ndarray:
        """Pure service times (completion - start), record order."""
        return self.completions - self.starts

    def ops(self) -> List[str]:
        """Per-query operation names (decoded)."""
        vocab = self.op_vocab
        return [vocab[i] for i in self.op_codes.tolist()]

    def segment_names(self) -> List[str]:
        """Per-query segment labels (decoded)."""
        vocab = self.segment_vocab
        return [vocab[i] for i in self.segment_codes.tolist()]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "QueryColumns":
        """Build columns from wire rows ``[arrival, start, completion, op, segment]``."""
        n = len(rows)
        numeric = np.asarray(
            [row[:3] for row in rows], dtype=np.float64
        ).reshape(n, 3)
        op_codes, op_vocab = _intern([row[3] for row in rows])
        seg_codes, seg_vocab = _intern([row[4] for row in rows])
        return cls(
            arrivals=np.ascontiguousarray(numeric[:, 0]),
            starts=np.ascontiguousarray(numeric[:, 1]),
            completions=np.ascontiguousarray(numeric[:, 2]),
            op_codes=op_codes,
            op_vocab=op_vocab,
            segment_codes=seg_codes,
            segment_vocab=seg_vocab,
        )


class ColumnarRecorder:
    """Preallocated append-only column buffers for the driver.

    The driver interns each segment label once per segment and each
    operation name once ever, then appends whole blocks; buffers grow
    geometrically and :meth:`reserve` pre-sizes them when the caller
    already knows how many arrivals a segment will produce.
    """

    def __init__(self, capacity: int = 1024) -> None:
        """Preallocate all five columns at ``capacity`` rows."""
        capacity = max(1, int(capacity))
        self._arrivals = np.empty(capacity, dtype=np.float64)
        self._starts = np.empty(capacity, dtype=np.float64)
        self._completions = np.empty(capacity, dtype=np.float64)
        self._op_codes = np.empty(capacity, dtype=np.int32)
        self._segment_codes = np.empty(capacity, dtype=np.int32)
        self._n = 0
        self._op_index: Dict[str, int] = {}
        self._op_vocab: List[str] = []
        self._segment_index: Dict[str, int] = {}
        self._segment_vocab: List[str] = []
        self.reallocations = 0

    def __len__(self) -> int:
        return self._n

    def intern_op(self, op: str) -> int:
        """Code for an operation name (added on first sight)."""
        code = self._op_index.get(op)
        if code is None:
            code = len(self._op_vocab)
            self._op_index[op] = code
            self._op_vocab.append(op)
        return code

    def intern_segment(self, label: str) -> int:
        """Code for a segment label (added on first sight)."""
        code = self._segment_index.get(label)
        if code is None:
            code = len(self._segment_vocab)
            self._segment_index[label] = code
            self._segment_vocab.append(label)
        return code

    def reserve(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more appends."""
        self._grow(self._n + int(extra))

    def _grow(self, needed: int) -> None:
        capacity = self._arrivals.size
        if needed <= capacity:
            return
        # Geometric doubling keeps appends amortized O(1): n appends cost
        # at most O(log2(n / initial_capacity)) reallocations, which the
        # public ``reallocations`` counter exposes for regression tests.
        new_cap = max(needed, capacity * 2)
        self.reallocations += 1
        for name in (
            "_arrivals",
            "_starts",
            "_completions",
            "_op_codes",
            "_segment_codes",
        ):
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def append_block(
        self,
        arrivals: np.ndarray,
        starts: np.ndarray,
        completions: np.ndarray,
        op_codes: np.ndarray,
        segment_code: int,
    ) -> None:
        """Record a whole slice of completed queries at once.

        ``op_codes`` are *recorder* codes (from :meth:`intern_op`);
        ``segment_code`` applies to every query in the block.
        """
        m = int(arrivals.size)
        if m == 0:
            return
        self._grow(self._n + m)
        i = self._n
        self._arrivals[i : i + m] = arrivals
        self._starts[i : i + m] = starts
        self._completions[i : i + m] = completions
        self._op_codes[i : i + m] = op_codes
        self._segment_codes[i : i + m] = segment_code
        self._n = i + m

    def build(self) -> QueryColumns:
        """Trimmed :class:`QueryColumns` of everything appended so far."""
        n = self._n
        return QueryColumns(
            arrivals=self._arrivals[:n].copy(),
            starts=self._starts[:n].copy(),
            completions=self._completions[:n].copy(),
            op_codes=self._op_codes[:n].copy(),
            op_vocab=tuple(self._op_vocab),
            segment_codes=self._segment_codes[:n].copy(),
            segment_vocab=tuple(self._segment_vocab),
        )


class RunResult:
    """Everything recorded during one benchmark run.

    The sorted views the metric kernels share are derived lazily from
    ``columns`` and cached.

    Attributes:
        sut_name: Name of the system under test.
        scenario_name: Name of the scenario executed.
        columns: The columnar query log.
        segments: ``(label, start, end)`` boundaries in query time.
        training_events: All training work performed.
        scenario_description: The scenario's ``describe()`` payload.
        sut_description: The SUT's ``describe()`` payload.
    """

    def __init__(
        self,
        sut_name: str,
        scenario_name: str,
        columns: QueryColumns,
        segments: Optional[Sequence[Tuple[str, float, float]]] = None,
        training_events: Optional[Iterable[TrainingEvent]] = None,
        scenario_description: Optional[dict] = None,
        sut_description: Optional[dict] = None,
    ) -> None:
        """Assemble a result around its query ``columns``."""
        self.sut_name = sut_name
        self.scenario_name = scenario_name
        self.segments: List[Tuple[str, float, float]] = list(segments or [])
        self.training_events: List[TrainingEvent] = list(training_events or [])
        self.scenario_description = scenario_description or {}
        self.sut_description = sut_description or {}
        self.columns = columns

    @property
    def num_queries(self) -> int:
        """Number of completed queries."""
        return self.columns.size

    # -- basic views ---------------------------------------------------------------

    @property
    def duration(self) -> float:
        """Query-time horizon of the run (end of the last segment)."""
        return self.segments[-1][2] if self.segments else 0.0

    @cached_property
    def completion_order(self) -> np.ndarray:
        """Permutation sorting the columns by completion time (stable)."""
        return np.argsort(self.columns.completions, kind="stable")

    @cached_property
    def completions_sorted(self) -> np.ndarray:
        """Completion timestamps, ascending (cached)."""
        return self.columns.completions[self.completion_order]

    @cached_property
    def latencies_sorted(self) -> np.ndarray:
        """Latencies in completion order (cached)."""
        return self.columns.latencies[self.completion_order]

    @cached_property
    def max_completion(self) -> float:
        """Largest completion timestamp (0.0 for an empty run)."""
        if self.completions_sorted.size == 0:
            return 0.0
        return float(self.completions_sorted[-1])

    @property
    def horizon(self) -> float:
        """Analysis horizon: max of segment end and last completion."""
        return max(self.duration, self.max_completion)

    @cached_property
    def block(self):
        """The run as one :class:`~repro.core.streaming.StreamBlock` (cached)."""
        from repro.core.streaming import StreamBlock

        return StreamBlock.of_columns(self.columns, self.completions_sorted)

    def fold(self, *accumulators) -> None:
        """Fold :attr:`block` into each accumulator (``None`` entries skipped)."""
        for accumulator in accumulators:
            if accumulator is not None:
                accumulator.fold(self.block)

    def completions(self) -> np.ndarray:
        """Completion timestamps, ascending."""
        return self.completions_sorted

    def latencies(self) -> np.ndarray:
        """Latencies in completion order."""
        return self.latencies_sorted

    def segment_mask(self, label: str) -> np.ndarray:
        """Boolean mask of queries whose *arrival* fell inside the named segment."""
        bounds = [(s, e) for name, s, e in self.segments if name == label]
        if not bounds:
            raise ReproError(f"unknown segment {label!r}")
        arrivals = self.columns.arrivals
        mask = np.zeros(arrivals.size, dtype=bool)
        for lo, hi in bounds:
            mask |= (arrivals >= lo) & (arrivals < hi)
        return mask

    def throughput_series(self, interval: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
        """(bucket start times, completed queries per interval)."""
        from repro.metrics.adaptability import OnlineThroughput

        throughput = OnlineThroughput(interval)
        self.fold(throughput)
        return throughput.series(self.horizon)

    def mean_throughput(self) -> float:
        """Completed queries per second over the run horizon."""
        horizon = self.horizon
        if horizon <= 0:
            return 0.0
        return self.num_queries / horizon

    def total_training_cost(self) -> float:
        """Dollar cost of all training events."""
        return sum(e.cost for e in self.training_events)

    def total_training_nominal_seconds(self) -> float:
        """Nominal CPU-seconds of training across all events."""
        return sum(e.nominal_seconds for e in self.training_events)

    # -- persistence ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict of the full result.

        This is the canonical wire format: the matrix runner ships results
        across process boundaries and stores them in its on-disk cache as
        exactly this payload (see :mod:`repro.serialization`).
        """
        cols = self.columns
        query_rows = [
            [arrival, start, completion, op, segment]
            for arrival, start, completion, op, segment in zip(
                cols.arrivals.tolist(),
                cols.starts.tolist(),
                cols.completions.tolist(),
                cols.ops(),
                cols.segment_names(),
            )
        ]
        return {
            "sut_name": self.sut_name,
            "scenario_name": self.scenario_name,
            "segments": [list(s) for s in self.segments],
            "scenario_description": self.scenario_description,
            "sut_description": self.sut_description,
            "training_events": [event_to_telemetry(e) for e in self.training_events],
            "queries": query_rows,
        }

    def to_json(self) -> str:
        """Serialize the full result to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Reconstruct a result from :meth:`to_dict` output."""
        return cls(
            sut_name=data["sut_name"],
            scenario_name=data["scenario_name"],
            columns=QueryColumns.from_rows(data["queries"]),
            segments=[tuple(s) for s in data["segments"]],
            training_events=[event_from_telemetry(e) for e in data["training_events"]],
            scenario_description=data.get("scenario_description", {}),
            sut_description=data.get("sut_description", {}),
        )

    @classmethod
    def from_json(cls, payload: str) -> "RunResult":
        """Reconstruct a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(payload))
