"""Bounded-memory streaming pipeline: blocks in, metrics out.

The classic pipeline retains every query in a :class:`ColumnarRecorder`
and hands the finished :class:`~repro.core.results.RunResult` to the
metric kernels — simple, but memory grows with run length. This module
is the other half of the tentpole: the driver streams fixed-size blocks
of completed queries through a :class:`StreamingRecorder`, which folds
them into online metric accumulators (see the ``Online*`` classes in
:mod:`repro.metrics`) and optionally spills the raw columns to sharded
files, never holding more than one segment's arrivals plus O(block)
state in memory.

Equivalence contract (pinned by ``benchmarks/bench_streaming.py`` and
the property tests): the in-memory kernels fold the same accumulators
over the whole run as one block. Integer-count metrics — throughput,
cumulative curve, bands, recovery/adjustment, per-segment boxes — are
*bit-identical* for any blocking; float mass/mean summaries (``fsum``
over per-block partials) are too when each segment is one block, and
agree to tolerance otherwise. Spilled columns reload into a
:class:`~repro.core.results.QueryColumns` equal to the in-memory one.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.phases import TrainingEvent, event_from_telemetry, event_to_telemetry
from repro.core.results import QueryColumns
from repro.errors import ConfigurationError
from repro.observability import NULL_TRACER

__all__ = [
    "StreamBlock",
    "StreamingRecorder",
    "ColumnSpiller",
    "ShardSpec",
    "StreamingRunSummary",
    "load_spilled_columns",
    "read_column_file",
    "write_column_file",
    "write_sharded_manifest",
]


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a scenario for sharded streaming.

    Segment sharding assigns the contiguous segment range
    ``[segment_lo, segment_hi)``; segments before the range are replayed
    for SUT state (training, data injection) without executing queries,
    segments after it are skipped entirely. For single-segment
    scenarios, ``arrival_lo``/``arrival_hi`` additionally slice the
    segment's arrival indices ``[arrival_lo, arrival_hi)`` — the worker
    still generates the full segment batch so the workload RNG stream
    is untouched, then executes only its slice.

    Attributes:
        index: Shard position in stream order (0-based).
        n_shards: Total shards in the plan.
        segment_lo / segment_hi: Executed segment range (half-open).
        arrival_lo / arrival_hi: Optional arrival-index range within the
            single executed segment (half-open; ``None`` = all).
    """

    index: int
    n_shards: int
    segment_lo: int
    segment_hi: int
    arrival_lo: Optional[int] = None
    arrival_hi: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the sharding-plan wire format)."""
        payload: Dict[str, Any] = {
            "index": self.index,
            "n_shards": self.n_shards,
            "segment_lo": self.segment_lo,
            "segment_hi": self.segment_hi,
        }
        if self.arrival_lo is not None:
            payload["arrival_lo"] = self.arrival_lo
            payload["arrival_hi"] = self.arrival_hi
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardSpec":
        """Reconstruct a spec from :meth:`to_dict` output."""
        return cls(
            index=int(data["index"]),
            n_shards=int(data["n_shards"]),
            segment_lo=int(data["segment_lo"]),
            segment_hi=int(data["segment_hi"]),
            arrival_lo=(
                int(data["arrival_lo"]) if "arrival_lo" in data else None
            ),
            arrival_hi=(
                int(data["arrival_hi"]) if "arrival_hi" in data else None
            ),
        )


_FLOAT_COLUMNS = ("arrivals", "starts", "completions")
_CODE_COLUMNS = ("op_codes", "segment_codes")
_COLUMNS = _FLOAT_COLUMNS + _CODE_COLUMNS
#: Each code column, its sharded manifest's remap and its vocabulary.
_CODE_VOCABS = (
    ("op_codes", "op_map", "op_vocab"),
    ("segment_codes", "segment_map", "segment_vocab"),
)

#: Manifest ``"encoding"`` of the npz writer. Each float64 column is
#: stored as the eight byte planes of its bit-pattern deltas
#: (:func:`_encode_planes`), one ``.npy`` member per plane, ``arrivals_0``
#: to ``arrivals_7``; ``starts`` is usually stored as the rows where it
#: differs from the single-server FIFO start (:func:`_fifo_starts`).
_ENCODING = "fifo-planes"
#: The previous writer's encoding: each float column one ``(8, rows)``
#: uint8 member. A manifest without ``"encoding"`` holds plain float64
#: columns, as every spill written before either encoding does. Both
#: still load.
_PLANES_ENCODING = "delta-byteplanes"

#: Deflate level of every deflated npz shard member. Not a parameter: once
#: the planes have separated the near-constant high bytes from the
#: mantissa noise, higher levels only spend CPU on the incompressible part
#: (level 6 took 2x the time of level 1 on raw timestamps and came out
#: 1 % larger).
_DEFLATE_LEVEL = 1

#: A plane whose first ``_PROBE_BYTES`` deflate to more than
#: ``_STORE_RATIO`` of their size is mantissa noise and is written
#: ``ZIP_STORED``: deflating it costs milliseconds and saves nothing.
_PROBE_BYTES = 4096
_STORE_RATIO = 0.9

#: ``starts`` is written as exceptions while they number at most
#: ``rows // _EXCEPTION_DIVISOR``; beyond that (multi-server runs, runs
#: dense with faults) the column is written as planes like the others.
_EXCEPTION_DIVISOR = 16


def _encode_planes(values: np.ndarray) -> np.ndarray:
    """A float64 column as ``(8, rows)`` uint8 planes of bit-pattern deltas.

    The column is reinterpreted as uint64 and differenced with wraparound
    (first element kept), so the inverse — a wrapping cumulative sum — is
    exact for every float: NaN payloads, ``-0.0``, infinities, unsorted
    columns. A float subtraction would round. Byte ``k`` of every delta
    then sits in row ``k``: neighbouring timestamps share sign, exponent
    and high mantissa, so those planes are runs of equal bytes that
    deflate to almost nothing, and the mantissa noise that defeats
    deflate on raw float64 is confined to the low planes.
    """
    bits = np.ascontiguousarray(values, dtype="<f8").view("<u8")
    deltas = np.empty_like(bits)
    deltas[:1] = bits[:1]
    np.subtract(bits[1:], bits[:-1], out=deltas[1:])
    return np.ascontiguousarray(deltas.view(np.uint8).reshape(bits.size, 8).T)


def _decode_planes(planes: Sequence[np.ndarray]) -> np.ndarray:
    """Invert :func:`_encode_planes` (eight equal-length uint8 planes)."""
    deltas = np.stack(planes, axis=1).view("<u8").reshape(-1)
    return np.cumsum(deltas, dtype=np.uint64).view(np.float64)


def _fifo_starts(arrivals: np.ndarray, completions: np.ndarray) -> np.ndarray:
    """Each row's start had it waited only for the row before it.

    Row 0 starts at its arrival, row ``i`` at
    ``max(arrivals[i], completions[i - 1])`` — exactly what a
    single-server FIFO queue without outages computes, so on such runs
    only the first row of a shard and the queries that met a training
    outage or fault differ from the recorded ``starts``.
    """
    starts = np.array(arrivals, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        np.maximum(arrivals[1:], completions[:-1], out=starts[1:])
    return starts


def _starts_exceptions(columns: Dict[str, np.ndarray]) -> Optional[np.ndarray]:
    """Rows whose ``starts`` differ from :func:`_fifo_starts` in any bit.

    ``None`` when there are more than ``rows // _EXCEPTION_DIVISOR``.
    Comparing bit patterns, not values, keeps ``-0.0`` and NaN payloads.
    """
    derived = _fifo_starts(columns["arrivals"], columns["completions"])
    starts = np.ascontiguousarray(columns["starts"], dtype=np.float64)
    rows = np.flatnonzero(derived.view(np.uint64) != starts.view(np.uint64))
    if rows.size > derived.size // _EXCEPTION_DIVISOR:
        return None
    return rows.astype(np.int64, copy=False)


class StreamBlock:
    """One block of completed queries, in driver append (arrival) order.

    The unit of work the streaming pipeline passes to accumulators and
    the spiller. ``completions_sorted`` and ``latencies`` are derived
    once here so every accumulator shares them.
    """

    __slots__ = (
        "arrivals",
        "starts",
        "completions",
        "completions_sorted",
        "latencies",
        "op_codes",
        "segment_codes",
    )

    def __init__(
        self,
        arrivals: np.ndarray,
        starts: np.ndarray,
        completions: np.ndarray,
        op_codes: np.ndarray,
        segment_codes: np.ndarray,
    ) -> None:
        """Wrap the five columns; derives sorted completions/latencies."""
        self.arrivals = arrivals
        self.starts = starts
        self.completions = completions
        self.completions_sorted = np.sort(completions)
        self.latencies = completions - arrivals
        self.op_codes = op_codes
        self.segment_codes = segment_codes

    @classmethod
    def of_columns(
        cls, columns: QueryColumns, completions_sorted: np.ndarray
    ) -> "StreamBlock":
        """All of ``columns`` as one block, reusing their sorted completions."""
        block = cls.__new__(cls)
        block.arrivals = columns.arrivals
        block.starts = columns.starts
        block.completions = columns.completions
        block.completions_sorted = completions_sorted
        block.latencies = columns.latencies
        block.op_codes = columns.op_codes
        block.segment_codes = columns.segment_codes
        return block

    def __len__(self) -> int:
        return int(self.arrivals.size)


class ColumnSpiller:
    """Spills query columns to sharded files instead of keeping them.

    Blocks buffer up to ``shard_rows`` rows, then flush as one shard,
    ``shard-00000.npz``. An npz shard is a standard zip of ``.npy``
    members (:func:`_write_npz_shard`): ``arrivals`` and ``completions``
    as delta byte planes (:func:`_encode_planes`), one member per plane,
    noise planes stored rather than deflated; ``starts`` as the rows
    where it differs from the FIFO start :func:`_fifo_starts` rebuilds
    (planes too when those pass a sixteenth of the shard); code columns
    as ``uint8`` when every code fits. The manifest's ``"encoding"``
    records the layout. :meth:`finish` writes ``manifest.json`` with
    the shard list and label vocabularies; :func:`load_spilled_columns`
    reassembles the full :class:`~repro.core.results.QueryColumns` from
    it.

    Each shard flush is a ``spill-write`` span (phase ``report``, attrs
    ``rows`` / ``bytes``) on :attr:`tracer` and feeds the counters
    ``spill.shards`` / ``spill.rows`` / ``spill.bytes``; the streaming
    drivers set :attr:`tracer` to their own.
    """

    def __init__(self, directory, shard_rows: int = 262_144) -> None:
        """Spill to ``directory`` in npz shards of ``shard_rows``."""
        if shard_rows < 1:
            raise ConfigurationError("shard_rows must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_rows = int(shard_rows)
        self._pending: List[Tuple[np.ndarray, ...]] = []
        self._pending_rows = 0
        self._shards: List[str] = []
        self._rows = 0
        self._finished = False
        self._manifest: Optional[dict] = None
        self.tracer = NULL_TRACER

    def write(self, block: StreamBlock) -> None:
        """Buffer one block, flushing full shards as they fill up."""
        if self._finished:
            raise ConfigurationError("spiller already finished")
        if len(block) == 0:
            return
        self._pending.append(
            (
                np.array(block.arrivals, dtype=np.float64),
                np.array(block.starts, dtype=np.float64),
                np.array(block.completions, dtype=np.float64),
                np.array(block.op_codes, dtype=np.int32),
                np.array(block.segment_codes, dtype=np.int32),
            )
        )
        self._pending_rows += len(block)
        while self._pending_rows >= self.shard_rows:
            self._flush_shard(self.shard_rows)

    def _take(self, rows: int) -> Tuple[np.ndarray, ...]:
        """Pop exactly ``rows`` buffered rows as one column tuple."""
        taken: List[Tuple[np.ndarray, ...]] = []
        needed = rows
        while needed > 0:
            head = self._pending[0]
            size = int(head[0].size)
            if size <= needed:
                taken.append(self._pending.pop(0))
                needed -= size
            else:
                taken.append(tuple(col[:needed] for col in head))
                self._pending[0] = tuple(col[needed:] for col in head)
                needed = 0
        self._pending_rows -= rows
        if len(taken) == 1:
            return taken[0]
        return tuple(
            np.concatenate([part[i] for part in taken]) for i in range(5)
        )

    def _flush_shard(self, rows: int) -> None:
        columns = dict(zip(_COLUMNS, self._take(rows)))
        name = f"shard-{len(self._shards):05d}.npz"
        path = self.directory / name
        span = self.tracer.start_span("spill-write", phase="report", rows=rows)
        try:
            _write_npz_shard(path, columns)
            size = path.stat().st_size
        finally:
            self.tracer.end_span()
        if span is not None:
            span.attrs["bytes"] = size
        self.tracer.counter("spill.shards")
        self.tracer.counter("spill.rows", rows)
        self.tracer.counter("spill.bytes", size)
        self._shards.append(name)
        self._rows += rows

    def finish(
        self,
        op_vocab: Sequence[str],
        segment_vocab: Sequence[str],
    ) -> dict:
        """Flush the tail shard and write ``manifest.json``.

        Idempotent: the first call fixes the manifest; repeat calls
        (e.g. a retried shard's cleanup path) return the cached copy
        without rewriting the file, and raise
        :class:`~repro.errors.ConfigurationError` when handed different
        vocabularies than the first call.
        """
        if self._manifest is not None:
            if (
                list(op_vocab) != self._manifest["op_vocab"]
                or list(segment_vocab) != self._manifest["segment_vocab"]
            ):
                raise ConfigurationError(
                    "spiller already finished with different vocabularies"
                )
            return self._manifest
        if self._pending_rows:
            self._flush_shard(self._pending_rows)
        self._finished = True
        manifest = {
            "format": "npz",
            "rows": self._rows,
            "shards": list(self._shards),
            "op_vocab": list(op_vocab),
            "segment_vocab": list(segment_vocab),
            "directory": str(self.directory),
            "encoding": _ENCODING,
        }
        with open(self.directory / "manifest.json", "w") as fh:
            json.dump(manifest, fh)
        self._manifest = manifest
        return manifest


def _write_npz_shard(
    path: Path, columns: Dict[str, np.ndarray], header: Optional[bytes] = None
) -> None:
    """Write one shard as a zip of ``.npy`` members in the ``fifo-planes`` layout.

    ``np.savez_compressed`` can set neither the deflate level nor a
    member's compression, so this is its body with both chosen here. The
    derived ``starts`` is freed before any planes exist, and one column is
    encoded and written at a time, so at most one encoding is alive beside
    the raw columns. ``header`` bytes become one more member.
    """
    starts_rows = _starts_exceptions(columns)
    with zipfile.ZipFile(
        path, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
    ) as archive:
        for key in _FLOAT_COLUMNS:
            if key == "starts" and starts_rows is not None:
                _write_member(archive, "starts_rows", starts_rows)
                _write_member(archive, "starts_values", columns[key][starts_rows])
                continue
            for name, plane in zip(_plane_names(key), _encode_planes(columns[key])):
                _write_member(archive, name, plane, deflate=_deflates(plane))
        for key in _CODE_COLUMNS:
            codes = columns[key]
            if codes.size and 0 <= codes.min() and codes.max() < 256:
                codes = codes.astype(np.uint8)
            _write_member(archive, key, codes)
        if header is not None:
            _write_member(archive, "header", np.frombuffer(header, dtype=np.uint8))


def _plane_names(key: str) -> List[str]:
    return [f"{key}_{k}" for k in range(8)]


def _deflates(plane: np.ndarray) -> bool:
    """Whether deflate shrinks ``plane``'s head below ``_STORE_RATIO``."""
    head = plane[:_PROBE_BYTES]
    return len(zlib.compress(head, _DEFLATE_LEVEL)) <= _STORE_RATIO * head.size


def _write_member(
    archive: zipfile.ZipFile, name: str, values: np.ndarray, deflate: bool = True
) -> None:
    info: Any = f"{name}.npy"
    if not deflate:
        info = zipfile.ZipInfo(info)
        info.compress_type = zipfile.ZIP_STORED
    with archive.open(info, "w", force_zip64=True) as member:
        np.lib.format.write_array(member, values, allow_pickle=False)


def write_sharded_manifest(
    directory,
    shard_manifests: Sequence[dict],
    op_vocab: Sequence[str],
    segment_vocab: Sequence[str],
) -> dict:
    """Stitch per-shard spill directories under one merged manifest.

    ``shard_manifests`` are the flat manifests the shard workers'
    spillers produced (in stream order), each living in a subdirectory
    of ``directory``. The merged manifest records, per shard, the
    subdirectory plus code remaps from the shard-local vocabularies into
    the merged ``op_vocab`` / ``segment_vocab``, so
    :func:`load_spilled_columns` can reassemble the columns in arrival
    order with globally consistent codes.
    """
    directory = Path(directory)
    op_index = {name: i for i, name in enumerate(op_vocab)}
    segment_index = {name: i for i, name in enumerate(segment_vocab)}
    shards = []
    rows = 0
    for shard_manifest in shard_manifests:
        shard_dir = Path(shard_manifest["directory"])
        try:
            relative = str(shard_dir.relative_to(directory))
        except ValueError as exc:
            raise ConfigurationError(
                f"shard spill {shard_dir} is not under {directory}"
            ) from exc
        shards.append(
            {
                "directory": relative,
                "rows": shard_manifest["rows"],
                "op_map": [
                    op_index[name] for name in shard_manifest["op_vocab"]
                ],
                "segment_map": [
                    segment_index[name]
                    for name in shard_manifest["segment_vocab"]
                ],
            }
        )
        rows += int(shard_manifest["rows"])
    manifest = {
        "format": "npz",
        "sharded": True,
        "rows": rows,
        "shards": shards,
        "op_vocab": list(op_vocab),
        "segment_vocab": list(segment_vocab),
        "directory": str(directory),
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return manifest


def _read_manifest(directory: Path) -> dict:
    """Parse ``manifest.json``, with the fields every loader path reads."""
    path = directory / "manifest.json"
    if not path.exists():
        raise ConfigurationError(f"no spill manifest in {directory}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        return {
            **manifest,
            "rows": int(manifest["rows"]),
            "shards": list(manifest["shards"]),
            "op_vocab": tuple(manifest["op_vocab"]),
            "segment_vocab": tuple(manifest["segment_vocab"]),
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"malformed spill manifest in {directory}: {exc!r}"
        ) from exc


def _inside(directory: Path, name: Any) -> Path:
    """``directory / name``, refusing names that could leave ``directory``."""
    if (
        not isinstance(name, str)
        or name in ("", ".", "..")
        or Path(name).name != name
    ):
        raise ConfigurationError(
            f"spill shard {name!r} in {directory} is not a plain file name"
        )
    return directory / name


def _assemble(
    parts: Dict[str, List[np.ndarray]], manifest: dict, directory: Path
) -> QueryColumns:
    """Concatenate per-shard columns; the total must match the manifest."""

    def _cat(key: str, dtype) -> np.ndarray:
        if not parts[key]:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts[key]).astype(dtype, copy=False)

    columns = QueryColumns(
        arrivals=_cat("arrivals", np.float64),
        starts=_cat("starts", np.float64),
        completions=_cat("completions", np.float64),
        op_codes=_cat("op_codes", np.int32),
        op_vocab=tuple(manifest["op_vocab"]),
        segment_codes=_cat("segment_codes", np.int32),
        segment_vocab=tuple(manifest["segment_vocab"]),
    )
    if columns.size != int(manifest["rows"]):
        raise ConfigurationError(
            f"spill {directory} holds {columns.size} rows, "
            f"manifest says {manifest['rows']}"
        )
    return columns


def _load_sharded_columns(directory: Path, manifest: dict) -> QueryColumns:
    """Reassemble a sharded spill: per-shard load + code remap + concat."""
    parts: Dict[str, List[np.ndarray]] = {key: [] for key in _COLUMNS}
    for entry in manifest["shards"]:
        shard = load_spilled_columns(_inside(directory, entry["directory"]))
        if shard.size != int(entry["rows"]):
            raise ConfigurationError(
                f"shard {entry['directory']!r} has {shard.size} rows, "
                f"manifest says {entry['rows']}"
            )
        for key in _FLOAT_COLUMNS:
            parts[key].append(getattr(shard, key))
        for key, remap, vocab in _CODE_VOCABS:
            table = _code_map(entry, remap, len(getattr(shard, vocab)), len(manifest[vocab]))
            parts[key].append(table[getattr(shard, key)])
    return _assemble(parts, manifest, directory)


def _code_map(entry: dict, remap: str, local: int, merged: int) -> np.ndarray:
    """A sharded manifest entry's ``remap`` as a table: one code in
    ``[0, merged)`` for each of the shard's ``local`` codes."""
    try:
        table = np.asarray(entry[remap], dtype=np.int32)
    except (KeyError, TypeError, ValueError, OverflowError):
        table = None
    if (
        table is None
        or table.shape != (local,)
        or (local and (table.min() < 0 or table.max() >= merged))
    ):
        raise ConfigurationError(
            f"shard {entry['directory']!r}: {remap} {entry.get(remap)!r} does not "
            f"map its {local} codes into the merged vocabulary of {merged}"
        )
    return table


def _check_codes(columns: Dict[str, np.ndarray], vocabularies: dict, path: Path) -> None:
    """Refuse a code column of ``path`` holding a code outside its vocabulary."""
    for key, _, vocab in _CODE_VOCABS:
        codes, size = columns[key], len(vocabularies[vocab])
        if codes.size and (codes.min() < 0 or codes.max() >= size):
            raise ConfigurationError(
                f"spill shard {path.name!r} in {path.parent}: column {key!r} holds "
                f"codes in [{codes.min()}, {codes.max()}], outside its {size}-name {vocab}"
            )


def _shard_members(encoding: Optional[str], files: Sequence[str]) -> List[str]:
    """The members a shard of ``encoding`` must hold."""
    if encoding != _ENCODING:
        return list(_COLUMNS)
    starts = (
        _plane_names("starts")
        if "starts_0" in files
        else ["starts_rows", "starts_values"]
    )
    return [
        *_plane_names("arrivals"),
        *starts,
        *_plane_names("completions"),
        *_CODE_COLUMNS,
    ]


def _read_npz_shard(path: Path, encoding: Optional[str]) -> Dict[str, np.ndarray]:
    """One npz shard's five columns, floats decoded, shapes checked.

    A ``header`` member (:func:`write_column_file`) rides along as is.
    """
    try:
        with open(path, "rb") as handle, zipfile.ZipFile(handle) as archive:
            files = [name[:-4] for name in archive.namelist() if name.endswith(".npy")]
            members = _shard_members(encoding, files)
            if "header" in files:
                members.append("header")
            raw = {}
            for key in members:
                with archive.open(f"{key}.npy") as member:
                    raw[key] = np.lib.format.read_array(member, allow_pickle=False)
    except (
        OSError,
        EOFError,
        KeyError,
        ValueError,
        NotImplementedError,
        RuntimeError,
        zipfile.BadZipFile,
        zlib.error,
    ) as exc:
        # zipfile raises NotImplementedError for a damaged compression
        # method or flag bits, RuntimeError for a damaged encryption bit.
        raise ConfigurationError(
            f"cannot read spill shard {path.name!r} in {path.parent}: {exc!r}"
        ) from exc
    where = f"spill shard {path.name!r} in {path.parent}"

    def _reject(key: str, expected: str) -> ConfigurationError:
        return ConfigurationError(
            f"{where}: column {key!r} is "
            f"{raw[key].dtype}{raw[key].shape}, expected {expected}"
        )

    def _vector(key: str, floats: bool, expected: str) -> np.ndarray:
        dtype = raw[key].dtype
        ok = dtype == np.float64 if floats else dtype.kind in "iu"
        if not ok or raw[key].ndim != 1:
            raise _reject(key, expected)
        return raw[key]

    columns: Dict[str, np.ndarray] = {}
    for key in _FLOAT_COLUMNS:
        if encoding == _ENCODING:
            if key == "starts" and "starts_rows" in raw:
                continue
            planes = [raw[name] for name in _plane_names(key)]
            for name, plane in zip(_plane_names(key), planes):
                if plane.dtype != np.uint8 or plane.ndim != 1:
                    raise _reject(name, "a uint8(rows,) byte plane")
            if len({plane.size for plane in planes}) != 1:
                raise ConfigurationError(
                    f"{where}: the byte planes of column {key!r} have unequal "
                    f"lengths {[plane.size for plane in planes]}"
                )
            columns[key] = _decode_planes(planes)
        elif encoding == _PLANES_ENCODING:
            values = raw[key]
            if values.dtype != np.uint8 or values.ndim != 2 or values.shape[0] != 8:
                raise _reject(key, "uint8(8, rows) byte planes")
            columns[key] = _decode_planes(values)
        else:
            columns[key] = _vector(key, True, "float64(rows,)")
    if "starts" not in columns:
        arrivals, completions = columns["arrivals"], columns["completions"]
        if arrivals.size != completions.size:
            raise ConfigurationError(
                f"{where} has columns of unequal length: arrivals "
                f"{arrivals.size}, completions {completions.size}"
            )
        rows = _vector("starts_rows", False, "an integer (exceptions,) column")
        values = _vector("starts_values", True, "float64(exceptions,)")
        if values.size != rows.size:
            raise ConfigurationError(
                f"{where}: {values.size} starts_values for {rows.size} starts_rows"
            )
        if rows.size and (
            rows[0] < 0 or rows[-1] >= arrivals.size or np.any(rows[1:] <= rows[:-1])
        ):
            raise ConfigurationError(
                f"{where}: starts_rows must increase strictly within "
                f"[0, {arrivals.size})"
            )
        columns["starts"] = _fifo_starts(arrivals, completions)
        columns["starts"][rows] = values
    for key in _CODE_COLUMNS:
        columns[key] = _vector(key, False, "an integer (rows,) column")
    sizes = {key: int(values.shape[0]) for key, values in columns.items()}
    if len(set(sizes.values())) != 1:
        raise ConfigurationError(f"{where} has columns of unequal length: {sizes}")
    if "header" in raw:
        columns["header"] = raw["header"]
    return columns


def load_spilled_columns(directory) -> QueryColumns:
    """Reassemble a :class:`QueryColumns` from a spill directory.

    Accepts both flat manifests (one :class:`ColumnSpiller`) and merged
    sharded manifests (:func:`write_sharded_manifest`), reassembling the
    latter's subdirectories in stream order with shard-local codes
    remapped into the merged vocabularies. Flat npz manifests of the
    previous ``"delta-byteplanes"`` encoding, and those without
    ``"encoding"`` (plain float64 columns, written before any encoding),
    load as such.

    The directory is outside input: a manifest or shard that cannot be
    decoded, names a file outside the directory, or holds columns of the
    wrong type, shape or length raises
    :class:`~repro.errors.ConfigurationError` naming the shard.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    if manifest.get("sharded"):
        return _load_sharded_columns(directory, manifest)
    fmt = manifest.get("format")
    if fmt != "npz":
        raise ConfigurationError(
            f"unknown spill format {fmt!r} in {directory}; only 'npz' "
            "spills are supported"
        )
    encoding = manifest.get("encoding")
    if encoding not in (None, _PLANES_ENCODING, _ENCODING):
        raise ConfigurationError(
            f"unknown spill encoding {encoding!r} in {directory}"
        )
    parts: Dict[str, List[np.ndarray]] = {key: [] for key in _COLUMNS}
    for name in manifest["shards"]:
        path = _inside(directory, name)
        shard = _read_npz_shard(path, encoding)
        _check_codes(shard, manifest, path)
        for key in _COLUMNS:
            parts[key].append(shard[key])
    return _assemble(parts, manifest, directory)


def write_column_file(path, columns: QueryColumns, header: Dict[str, Any]) -> None:
    """Write ``columns`` as one spill shard with a ``header`` member.

    The member holds ``header``, plus the row count and both
    vocabularies, as UTF-8 JSON. The zip CRC covers it like every column.
    """
    vocabularies = {"op_vocab": columns.op_vocab, "segment_vocab": columns.segment_vocab}
    payload = json.dumps({**header, "rows": columns.size, **vocabularies})
    _write_npz_shard(Path(path), {k: getattr(columns, k) for k in _COLUMNS}, payload.encode())


def read_column_file(path) -> Tuple[QueryColumns, Dict[str, Any]]:
    """``(columns, header)`` of a :func:`write_column_file` file.

    Raises :class:`~repro.errors.ConfigurationError` for any file it cannot decode.
    """
    path = Path(path)
    shard = _read_npz_shard(path, _ENCODING)
    try:
        header = json.loads(shard.pop("header").tobytes())
        _check_codes(shard, header, path)
        parts = {key: [values] for key, values in shard.items()}
        return _assemble(parts, header, path), header
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed header in {path}: {exc!r}") from exc


class StreamingRecorder:
    """Drop-in recorder that folds blocks instead of retaining them.

    Presents the interface the driver uses on
    :class:`~repro.core.results.ColumnarRecorder` — ``intern_op`` /
    ``intern_segment`` / ``reserve`` / ``append_block`` — but keeps no
    rows: each appended block goes, as a :class:`StreamBlock`, to every
    accumulator's ``fold`` and, when configured, the
    :class:`ColumnSpiller`.
    """

    def __init__(
        self,
        accumulators: Sequence[Any] = (),
        spiller: Optional[ColumnSpiller] = None,
    ) -> None:
        """Wire the consumers; nothing is buffered."""
        self.accumulators = list(accumulators)
        self.spiller = spiller
        self._count = 0
        self._max_completion = 0.0
        self._first_arrival: Optional[float] = None
        self._op_index: Dict[str, int] = {}
        self._op_vocab: List[str] = []
        self._op_counts: List[int] = []
        self._segment_index: Dict[str, int] = {}
        self._segment_vocab: List[str] = []
        self._segment_counts: List[int] = []

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        """Total queries recorded."""
        return self._count

    @property
    def max_completion(self) -> float:
        """Largest completion timestamp seen (0.0 before any query)."""
        return self._max_completion

    @property
    def first_arrival(self) -> Optional[float]:
        """Arrival time of the first recorded query (``None`` if none).

        Blocks stream past in arrival order, so this is simply the first
        appended arrival — sharded runs use it to check that the
        previous shard's queue drained before this shard's stream began.
        """
        return self._first_arrival

    @property
    def op_vocab(self) -> Tuple[str, ...]:
        """Operation names in intern order."""
        return tuple(self._op_vocab)

    @property
    def segment_vocab(self) -> Tuple[str, ...]:
        """Segment labels in intern order."""
        return tuple(self._segment_vocab)

    def op_counts(self) -> Dict[str, int]:
        """Per-operation completed-query counts (a pure read)."""
        return dict(zip(self._op_vocab, self._op_counts))

    def segment_counts(self) -> Dict[str, int]:
        """Per-segment completed-query counts (a pure read)."""
        return dict(zip(self._segment_vocab, self._segment_counts))

    def intern_op(self, op: str) -> int:
        """Code for an operation name (added on first sight)."""
        code = self._op_index.get(op)
        if code is None:
            code = len(self._op_vocab)
            self._op_index[op] = code
            self._op_vocab.append(op)
            self._op_counts.append(0)
        return code

    def intern_segment(self, label: str) -> int:
        """Code for a segment label (added on first sight)."""
        code = self._segment_index.get(label)
        if code is None:
            code = len(self._segment_vocab)
            self._segment_index[label] = code
            self._segment_vocab.append(label)
            self._segment_counts.append(0)
        return code

    def reserve(self, extra: int) -> None:
        """No-op: streaming never allocates per-run storage."""

    def append_block(
        self,
        arrivals: np.ndarray,
        starts: np.ndarray,
        completions: np.ndarray,
        op_codes: np.ndarray,
        segment_code: int,
    ) -> None:
        """Record a whole driver block: fold it directly."""
        m = int(arrivals.size)
        if m == 0:
            return
        segment_codes = np.full(m, segment_code, dtype=np.int32)
        self._fold(
            StreamBlock(
                np.asarray(arrivals, dtype=np.float64),
                np.asarray(starts, dtype=np.float64),
                np.asarray(completions, dtype=np.float64),
                np.asarray(op_codes, dtype=np.int32),
                segment_codes,
            )
        )

    def _fold(self, block: StreamBlock) -> None:
        """Feed one block to the counters, accumulators, and spiller."""
        self._count += len(block)
        if self._first_arrival is None:
            self._first_arrival = float(block.arrivals[0])
        last = float(block.completions_sorted[-1])
        if last > self._max_completion:
            self._max_completion = last
        op_hist = np.bincount(block.op_codes, minlength=len(self._op_counts))
        for code, hits in enumerate(op_hist.tolist()):
            if hits:
                self._op_counts[code] += hits
        seg_hist = np.bincount(
            block.segment_codes, minlength=len(self._segment_counts)
        )
        for code, hits in enumerate(seg_hist.tolist()):
            if hits:
                self._segment_counts[code] += hits
        if self.spiller is not None:
            self.spiller.write(block)
        for accumulator in self.accumulators:
            accumulator.fold(block)


@dataclass
class StreamingRunSummary:
    """Everything a streaming run keeps: metrics, counts, provenance.

    The streaming counterpart of :class:`~repro.core.results.RunResult`:
    raw per-query columns are gone (unless spilled), but every finalized
    accumulator payload, the per-op/per-segment counts, and the run's
    provenance survive in a JSON-ready form.

    Attributes:
        sut_name / scenario_name: Run identity.
        segments: ``(label, start, end)`` boundaries in query time.
        training_events: All training work performed.
        scenario_description / sut_description: ``describe()`` payloads.
        num_queries: Total completed queries.
        max_completion: Largest completion timestamp.
        op_counts / segment_counts: Completed queries per label.
        metrics: Finalized accumulator payloads keyed by ``name``.
        spill: The spill manifest, when columns were spilled.
        sharding: Shard plan and per-shard provenance when the run was
            merged from shards by ``Benchmark.run_sharded_streaming`` or
            a ``BenchmarkServer`` tenant session (``None`` otherwise;
            absent from the wire format for unsharded runs so existing
            payloads are unchanged).
    """

    sut_name: str
    scenario_name: str
    segments: List[Tuple[str, float, float]]
    training_events: List[TrainingEvent] = field(default_factory=list)
    scenario_description: dict = field(default_factory=dict)
    sut_description: dict = field(default_factory=dict)
    num_queries: int = 0
    max_completion: float = 0.0
    op_counts: Dict[str, int] = field(default_factory=dict)
    segment_counts: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, dict] = field(default_factory=dict)
    spill: Optional[dict] = None
    sharding: Optional[dict] = None

    @property
    def duration(self) -> float:
        """Query-time horizon of the run (end of the last segment)."""
        return self.segments[-1][2] if self.segments else 0.0

    @property
    def horizon(self) -> float:
        """Analysis horizon: max of segment end and last completion."""
        return max(self.duration, self.max_completion)

    def mean_throughput(self) -> float:
        """Completed queries per second over the run horizon."""
        horizon = self.horizon
        if horizon <= 0:
            return 0.0
        return self.num_queries / horizon

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (the summary's wire format).

        The ``sharding`` key appears only for sharded runs, keeping
        unsharded payloads byte-compatible with earlier versions.
        """
        payload = {
            "sut_name": self.sut_name,
            "scenario_name": self.scenario_name,
            "segments": [list(s) for s in self.segments],
            "scenario_description": self.scenario_description,
            "sut_description": self.sut_description,
            "training_events": [event_to_telemetry(e) for e in self.training_events],
            "num_queries": self.num_queries,
            "max_completion": self.max_completion,
            "op_counts": dict(self.op_counts),
            "segment_counts": dict(self.segment_counts),
            "metrics": self.metrics,
            "spill": self.spill,
        }
        if self.sharding is not None:
            payload["sharding"] = self.sharding
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamingRunSummary":
        """Reconstruct a summary from :meth:`to_dict` output."""
        return cls(
            sut_name=data["sut_name"],
            scenario_name=data["scenario_name"],
            segments=[tuple(s) for s in data["segments"]],
            training_events=[event_from_telemetry(e) for e in data.get("training_events", [])],
            scenario_description=data.get("scenario_description", {}),
            sut_description=data.get("sut_description", {}),
            num_queries=data.get("num_queries", 0),
            max_completion=data.get("max_completion", 0.0),
            op_counts=dict(data.get("op_counts", {})),
            segment_counts=dict(data.get("segment_counts", {})),
            metrics=dict(data.get("metrics", {})),
            spill=data.get("spill"),
            sharding=data.get("sharding"),
        )
