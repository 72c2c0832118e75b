"""Query-stream generators for key-value workloads.

A :class:`KVWorkload` combines three time-varying ingredients:

* an access-key :class:`~repro.workloads.drift.DriftModel` (which keys
  queries touch, and how that changes over time),
* an :class:`~repro.workloads.generators.OperationMix` (read / insert /
  update / scan / read-modify-write proportions), itself allowed to drift,
* an :class:`~repro.workloads.patterns.ArrivalProcess` (offered load).

The benchmark driver asks the workload for each query at its arrival
time, so every aspect of the stream can evolve during a single run —
the paper's central requirement (Lesson 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.distributions import Distribution
from repro.workloads.drift import DriftFactor, DriftModel, NoDrift
from repro.workloads.patterns import ArrivalProcess, ConstantArrivals


class KVOperation(enum.Enum):
    """Key-value operation types (YCSB vocabulary)."""

    READ = "read"
    INSERT = "insert"
    UPDATE = "update"
    SCAN = "scan"
    READ_MODIFY_WRITE = "rmw"


#: Fixed operation order defining the integer codes used by
#: :class:`QueryBatch` (``ops[i]`` indexes into this tuple).
KV_OPERATIONS: Tuple[KVOperation, ...] = tuple(KVOperation)
#: Operation → batch code (inverse of :data:`KV_OPERATIONS`).
KV_OP_CODES: Dict[KVOperation, int] = {op: i for i, op in enumerate(KV_OPERATIONS)}


@dataclass(frozen=True)
class KVQuery:
    """One key-value query instance.

    Attributes:
        op: Operation type.
        key: Target key (scan start key for scans).
        scan_length: Number of keys a scan covers (0 for non-scans).
        arrival_time: Virtual arrival timestamp assigned by the driver.
    """

    op: KVOperation
    key: float
    scan_length: int = 0
    arrival_time: float = 0.0


@dataclass
class QueryBatch:
    """Struct-of-arrays query stream: one row per query, arrival order.

    The batched pipeline's unit of exchange: the generator fills it in one
    vectorized pass, the driver slices it at tick/training boundaries, and
    SUTs consume whole slices through ``execute_batch``.

    Attributes:
        ops: int8 codes into :data:`KV_OPERATIONS`.
        keys: float64 target keys (scan start keys for scans).
        scan_lengths: int64 scan lengths (0 for non-scans).
        arrivals: float64 virtual arrival timestamps, ascending.
        op_names: Class-level vocabulary ``ops`` indexes into; the driver
            records ``op_names[code]``, so any batch type brings its own.
    """

    op_names: ClassVar[Tuple[str, ...]] = tuple(op.value for op in KV_OPERATIONS)
    ops: np.ndarray
    keys: np.ndarray
    scan_lengths: np.ndarray
    arrivals: np.ndarray

    def __len__(self) -> int:
        return int(self.arrivals.size)

    @property
    def size(self) -> int:
        """Number of queries in the batch."""
        return int(self.arrivals.size)

    def query(self, i: int) -> KVQuery:
        """Materialize row ``i`` as a :class:`KVQuery` (compat view)."""
        return KVQuery(
            op=KV_OPERATIONS[int(self.ops[i])],
            key=float(self.keys[i]),
            scan_length=int(self.scan_lengths[i]),
            arrival_time=float(self.arrivals[i]),
        )

    def iter_queries(self) -> Iterator[KVQuery]:
        """Materialize every row as a :class:`KVQuery`, in order."""
        ops = self.ops.tolist()
        keys = self.keys.tolist()
        lengths = self.scan_lengths.tolist()
        arrivals = self.arrivals.tolist()
        for op, key, length, arrival in zip(ops, keys, lengths, arrivals):
            yield KVQuery(
                op=KV_OPERATIONS[op],
                key=key,
                scan_length=length,
                arrival_time=arrival,
            )

    def slice(self, a: int, b: int) -> "QueryBatch":
        """Zero-copy view of rows ``[a, b)``."""
        return QueryBatch(
            ops=self.ops[a:b],
            keys=self.keys[a:b],
            scan_lengths=self.scan_lengths[a:b],
            arrivals=self.arrivals[a:b],
        )


class OperationMix:
    """Proportions of each operation type, normalized to sum to 1."""

    def __init__(self, proportions: Dict[KVOperation, float]) -> None:
        """Normalize and store per-operation proportions."""
        if not proportions:
            raise ConfigurationError("operation mix cannot be empty")
        total = sum(proportions.values())
        if total <= 0 or any(p < 0 for p in proportions.values()):
            raise ConfigurationError("proportions must be non-negative, not all zero")
        self._ops = list(proportions.keys())
        self._probs = np.asarray(
            [proportions[op] / total for op in self._ops], dtype=np.float64
        )
        self._codes = np.asarray(
            [KV_OP_CODES[op] for op in self._ops], dtype=np.int8
        )

    @classmethod
    def read_only(cls) -> "OperationMix":
        """100% point reads."""
        return cls({KVOperation.READ: 1.0})

    @classmethod
    def read_write(cls, read_fraction: float) -> "OperationMix":
        """Reads + updates with the given read fraction."""
        if not 0.0 <= read_fraction <= 1.0:
            raise ConfigurationError(
                f"read_fraction must be in [0,1], got {read_fraction}"
            )
        return cls(
            {KVOperation.READ: read_fraction, KVOperation.UPDATE: 1.0 - read_fraction}
        )

    def sample(self, rng: np.random.Generator) -> KVOperation:
        """Draw one operation type."""
        return self._ops[int(rng.choice(len(self._ops), p=self._probs))]

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` operation codes (see :data:`KV_OPERATIONS`) at once.

        The draws of ``rng.choice(len(ops), n, p=probs)``, spelled out:
        one uniform per row looked up in the normalised CDF. A one-op mix
        skips the lookup but still draws, so the generator advances alike.
        """
        uniforms = rng.random(n)
        if self._codes.size == 1:
            return np.full(n, self._codes[0])
        cdf = self._probs.cumsum()
        cdf /= cdf[-1]
        return self._codes[cdf.searchsorted(uniforms, side="right")]

    def proportions(self) -> Dict[KVOperation, float]:
        """Return a copy of the normalized proportions."""
        return {op: float(p) for op, p in zip(self._ops, self._probs)}

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {op.value: float(p) for op, p in zip(self._ops, self._probs)}


class MixSchedule:
    """A piecewise-constant schedule of operation mixes over time.

    Models the paper's "evolving workload mixing" (it cites OLTP-Bench's
    support for exactly this): ``segments`` is a list of
    ``(start_time, mix)`` with ascending start times; the mix whose start
    most recently passed is active.
    """

    def __init__(self, segments: Sequence[Tuple[float, OperationMix]]) -> None:
        """Store ``(start_time, mix)`` entries (start times must ascend)."""
        if not segments:
            raise ConfigurationError("mix schedule needs at least one entry")
        starts = [s for s, _ in segments]
        if starts != sorted(starts):
            raise ConfigurationError("mix schedule start times must ascend")
        self._segments = [(float(s), m) for s, m in segments]
        self._starts = np.asarray([s for s, _ in self._segments], dtype=np.float64)

    @property
    def segments(self) -> List[Tuple[float, OperationMix]]:
        """The ``(start_time, mix)`` entries (a copy, in schedule order)."""
        return list(self._segments)

    def at(self, t: float) -> OperationMix:
        """The operation mix in effect at time ``t``."""
        active = self._segments[0][1]
        for start, mix in self._segments:
            if t >= start:
                active = mix
            else:
                break
        return active

    def indices_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`at`: index of the active mix per timestamp."""
        idx = np.searchsorted(self._starts, times, side="right") - 1
        return np.clip(idx, 0, len(self._segments) - 1)

    def mix_for_index(self, i: int) -> OperationMix:
        """The mix at schedule position ``i`` (see :meth:`indices_at`)."""
        return self._segments[i][1]

    def describe(self) -> dict:
        """JSON-friendly description."""
        return {
            "kind": "MixSchedule",
            "segments": [
                {"start": start, "mix": mix.describe()}
                for start, mix in self._segments
            ],
        }


@dataclass
class WorkloadSpec:
    """Declarative description of a workload, used for Φ similarity.

    ``signature()`` returns the set of structural features (operation
    types, scan characteristics, key-distribution kind/parameters) over
    which :func:`repro.metrics.similarity.jaccard_similarity` is computed
    — the paper's "Jaccard similarity between the sets of all subtrees of
    the query tree" adapted to key-value query templates.

    ``mix_schedule``, when set, overrides ``mix`` over time — the
    operation proportions themselves can evolve within one segment.
    """

    name: str
    mix: OperationMix
    key_drift: DriftModel
    arrivals: ArrivalProcess
    scan_length_mean: int = 0
    mix_schedule: Optional[MixSchedule] = None

    def mix_at(self, t: float) -> OperationMix:
        """The operation mix in effect at time ``t``."""
        if self.mix_schedule is not None:
            return self.mix_schedule.at(t)
        return self.mix

    def signature(self, at_time: float = 0.0) -> frozenset:
        """Structural feature set for workload similarity at ``at_time``."""
        feats = set()
        for op, p in self.mix_at(at_time).proportions().items():
            if p > 0:
                feats.add(("op", op.value))
                # Bucketized proportion: two workloads with 95% vs 50% reads
                # should not look identical.
                feats.add(("op-share", op.value, round(p * 10) / 10))
        dist = self.key_drift.at(at_time).describe()
        feats.add(("dist-kind", dist.get("kind")))
        for param in ("theta", "hot_fraction", "mean", "sigma"):
            if param in dist:
                feats.add(("dist-param", param, round(float(dist[param]), 1)))
        if self.scan_length_mean > 0:
            feats.add(("scan-length", min(1000, 10 ** len(str(self.scan_length_mean)))))
        return frozenset(feats)

    def describe(self) -> dict:
        """JSON-friendly description of the full spec."""
        out = {
            "name": self.name,
            "mix": self.mix.describe(),
            "key_drift": self.key_drift.describe(),
            "arrivals": self.arrivals.describe(),
            "scan_length_mean": self.scan_length_mean,
        }
        if self.mix_schedule is not None:
            out["mix_schedule"] = self.mix_schedule.describe()
        return out

    def build_workload(self, seed: int = 0) -> "KVWorkload":
        """Construct the executable workload for this spec.

        The driver's single workload-construction point: subclasses
        substitute their own executable (e.g.
        :class:`repro.workloads.trace.TraceWorkloadSpec` returns a
        replaying :class:`~repro.workloads.trace.TraceWorkload`). The
        base implementation builds a :class:`KVWorkload` exactly as the
        driver always did, so existing specs keep bit-identical streams.
        """
        return KVWorkload(self, seed=seed)


class KVWorkload:
    """Executable key-value workload: samples concrete queries over time.

    Args:
        spec: The declarative workload description.
        seed: Seed for the workload's private random generator.
        insert_key_counter: Starting value for sequentially generated
            insert keys; inserts append past the current key domain the
            way YCSB does, so the dataset grows over the run.
    """

    def __init__(
        self, spec: WorkloadSpec, seed: int = 0, insert_key_counter: float = 0.0
    ) -> None:
        """Bind the spec to a seeded private RNG and insert counter."""
        self.spec = spec
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self._insert_counter = float(insert_key_counter)

    @property
    def name(self) -> str:
        """Workload name from the spec."""
        return self.spec.name

    def next_query(self, t: float) -> KVQuery:
        """Generate the query arriving at virtual time ``t``.

        Inserts draw a fresh key from the *current* key distribution (so
        the dataset's shape follows the workload's drift), nudged by a
        tiny counter-derived offset to keep keys unique.
        """
        op = self.spec.mix_at(t).sample(self._rng)
        dist = self.spec.key_drift.at(t)
        key = float(dist.sample(self._rng, 1)[0])
        if op == KVOperation.INSERT:
            self._insert_counter += 1.0
            key += self._insert_counter * 1e-9
        scan_length = 0
        if op == KVOperation.SCAN:
            mean = max(1, self.spec.scan_length_mean)
            scan_length = int(self._rng.integers(1, 2 * mean + 1))
        return KVQuery(op=op, key=key, scan_length=scan_length, arrival_time=t)

    def next_batch(self, times: np.ndarray) -> QueryBatch:
        """Generate the queries arriving at ``times`` in one vectorized pass.

        Struct-of-arrays counterpart to calling :meth:`next_query` per
        arrival. The RNG consumption order is fixed and documented so the
        stream at a given seed is stable: (1) operation codes, drawn in
        bulk per active-mix run; (2) keys, drawn via the drift model's
        bulk sampler; (3) insert-counter key offsets; (4) scan lengths,
        drawn in bulk for all scans.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        n = times.size
        ops = np.empty(n, dtype=np.int8)
        if n:
            if self.spec.mix_schedule is not None:
                idx = self.spec.mix_schedule.indices_at(times)
                cuts = np.concatenate(
                    [[0], np.flatnonzero(np.diff(idx)) + 1, [n]]
                )
                for a, b in zip(cuts[:-1], cuts[1:]):
                    mix = self.spec.mix_schedule.mix_for_index(int(idx[a]))
                    ops[a:b] = mix.sample_array(self._rng, int(b - a))
            else:
                ops[:] = self.spec.mix.sample_array(self._rng, n)
        keys = (
            self.spec.key_drift.sample_at(self._rng, times)
            if n
            else np.empty(0, dtype=np.float64)
        )
        keys = np.asarray(keys, dtype=np.float64)
        insert_mask = ops == KV_OP_CODES[KVOperation.INSERT]
        m = int(insert_mask.sum())
        if m:
            counters = self._insert_counter + np.arange(1, m + 1, dtype=np.float64)
            keys[insert_mask] += counters * 1e-9
            self._insert_counter += float(m)
        scan_lengths = np.zeros(n, dtype=np.int64)
        scan_mask = ops == KV_OP_CODES[KVOperation.SCAN]
        m_sc = int(scan_mask.sum())
        if m_sc:
            mean = max(1, self.spec.scan_length_mean)
            scan_lengths[scan_mask] = self._rng.integers(1, 2 * mean + 1, m_sc)
        return QueryBatch(
            ops=ops, keys=keys, scan_lengths=scan_lengths, arrivals=times
        )

    def generate(
        self, start: float, end: float, jitter: bool = True
    ) -> Sequence[KVQuery]:
        """Generate the full query stream for ``[start, end)``."""
        times = self.spec.arrivals.arrivals(self._rng, start, end, jitter=jitter)
        return list(self.next_batch(np.asarray(times)).iter_queries())

    def sample_keys(self, t: float, n: int) -> np.ndarray:
        """Sample ``n`` access keys from the distribution active at ``t``.

        Used by similarity estimation and drift detection without
        disturbing the query stream's own generator state. The probe RNG
        is seeded from a :class:`numpy.random.SeedSequence` that mixes the
        workload seed with the exact bit pattern of ``t``, so probes at
        sub-millisecond-spaced (or negative) times stay distinct while
        remaining reproducible.
        """
        dist = self.spec.key_drift.at(t)
        probe_rng = np.random.default_rng(
            np.random.SeedSequence(
                [self._seed & 0xFFFFFFFFFFFFFFFF, int(np.float64(t).view(np.uint64))]
            )
        )
        return dist.sample(probe_rng, n)


def simple_spec(
    name: str,
    distribution: Distribution,
    rate: float = 1000.0,
    read_fraction: float = 1.0,
    scan_length_mean: int = 0,
    scan_fraction: float = 0.0,
) -> WorkloadSpec:
    """Convenience constructor for a static workload spec.

    Builds a :class:`WorkloadSpec` with no drift and constant arrivals —
    the "traditional benchmark" shape used as the baseline everywhere.
    """
    proportions: Dict[KVOperation, float] = {}
    body = 1.0 - scan_fraction
    proportions[KVOperation.READ] = body * read_fraction
    if read_fraction < 1.0:
        proportions[KVOperation.UPDATE] = body * (1.0 - read_fraction)
    if scan_fraction > 0:
        proportions[KVOperation.SCAN] = scan_fraction
    return WorkloadSpec(
        name=name,
        mix=OperationMix(proportions),
        key_drift=NoDrift(distribution),
        arrivals=ConstantArrivals(rate),
        scan_length_mean=scan_length_mean,
    )


# -- drift-factor blending -----------------------------------------------------------
#
# The workload half of the NeurBench-style drift axis: a factor in [0, 1]
# linearly interpolates operation mixes (and mix schedules) between a
# base and a target. The endpoints return the *original objects* so the
# RNG stream — and therefore the realized query columns — is
# bit-identical to the unblended workload.


def blend_mixes(
    base: OperationMix, target: OperationMix, factor: float
) -> OperationMix:
    """Linearly interpolate two operation mixes.

    The blended proportion of each operation is
    ``(1 - factor) * base + factor * target``, iterated in
    :data:`KV_OPERATIONS` order (zero entries dropped) so equal inputs
    always produce the same internal operation order — the order feeds
    :meth:`OperationMix.sample_array`'s RNG mapping. ``factor <= 0`` /
    ``>= 1`` return ``base`` / ``target`` themselves (bit-identity).
    """
    factor = float(factor)
    if not 0.0 <= factor <= 1.0:
        raise ConfigurationError(f"blend factor must be in [0, 1], got {factor}")
    if factor <= 0.0:
        return base
    if factor >= 1.0:
        return target
    base_props = base.proportions()
    target_props = target.proportions()
    blended: Dict[KVOperation, float] = {}
    for op in KV_OPERATIONS:
        share = (1.0 - factor) * base_props.get(op, 0.0) + factor * target_props.get(
            op, 0.0
        )
        if share > 0.0:
            blended[op] = share
    return OperationMix(blended)


def blend_schedules(
    base: "WorkloadSpec", target: "WorkloadSpec", factor: float
) -> Optional[MixSchedule]:
    """Blend two specs' time-varying mixes into one schedule.

    ``None`` when neither spec has a schedule (the static mixes blend
    via :func:`blend_mixes` instead). Otherwise the blended schedule has
    an entry at every start time either schedule uses (plus 0.0), each
    blending the mixes active at that instant.
    """
    if base.mix_schedule is None and target.mix_schedule is None:
        return None
    starts = {0.0}
    for spec in (base, target):
        if spec.mix_schedule is not None:
            starts.update(start for start, _ in spec.mix_schedule.segments)
    return MixSchedule(
        [
            (start, blend_mixes(base.mix_at(start), target.mix_at(start), factor))
            for start in sorted(starts)
        ]
    )


def blend_specs(
    base: WorkloadSpec,
    target: WorkloadSpec,
    factor: float,
    name: Optional[str] = None,
) -> WorkloadSpec:
    """Interpolate two workload specs along the drift-factor axis.

    Blends both axes the paper's Φ machinery measures: the key
    distribution (via :class:`~repro.workloads.drift.DriftFactor` over
    the two specs' drift models) and the operation mix / mix schedule
    (via :func:`blend_mixes` / :func:`blend_schedules`), plus the scan
    length. Arrivals come from ``base`` — offered load is a separate
    axis, not part of drift intensity.

    ``factor <= 0`` / ``>= 1`` return the ``base`` / ``target`` objects
    themselves (``name`` is ignored there) so endpoint scenarios are
    bit-identical to the unblended originals.
    """
    factor = float(factor)
    if not 0.0 <= factor <= 1.0:
        raise ConfigurationError(f"blend factor must be in [0, 1], got {factor}")
    if factor <= 0.0:
        return base
    if factor >= 1.0:
        return target
    scan_mean = (1.0 - factor) * base.scan_length_mean + factor * target.scan_length_mean
    return WorkloadSpec(
        name=name or f"{base.name}~{target.name}@{factor:g}",
        mix=blend_mixes(base.mix, target.mix, factor),
        key_drift=DriftFactor(base.key_drift, target.key_drift, factor),
        arrivals=base.arrivals,
        scan_length_mean=int(round(scan_mean)),
        mix_schedule=blend_schedules(base, target, factor),
    )
