"""Streaming pipeline mechanics: recorder, spiller, summary, driver knob."""

from __future__ import annotations

import json
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.driver import DriverConfig, VirtualClockDriver
from repro.core.scenario import Scenario, Segment
from repro.core.results import QueryColumns
from repro.core.streaming import (
    ColumnSpiller,
    StreamBlock,
    StreamingRecorder,
    StreamingRunSummary,
    load_spilled_columns,
    read_column_file,
    write_column_file,
    write_sharded_manifest,
)
from repro.errors import ConfigurationError, DriverError
from repro.faults import CrashFault, FaultPlan, LatencyFault, StallFault
from repro.observability import Tracer
from repro.suts.kv_traditional import TraditionalKVStore
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


class _CollectingAccumulator:
    """Test double: records every folded block verbatim."""

    name = "collector"

    def __init__(self):
        self.blocks = []

    def fold(self, block):
        self.blocks.append(block)

    def finalize(self, horizon):
        return {"n": sum(len(b) for b in self.blocks), "horizon": horizon}


def _block(n, offset=0.0, op=0, segment=0):
    arrivals = np.arange(n, dtype=np.float64) + offset
    return StreamBlock(
        arrivals=arrivals,
        starts=arrivals + 0.1,
        completions=arrivals + 0.5,
        op_codes=np.full(n, op, dtype=np.int32),
        segment_codes=np.full(n, segment, dtype=np.int32),
    )


class TestStreamBlock:
    def test_derives_sorted_completions_and_latencies(self):
        arrivals = np.array([0.0, 1.0, 2.0])
        completions = np.array([5.0, 1.5, 2.5])
        block = StreamBlock(
            arrivals=arrivals,
            starts=arrivals,
            completions=completions,
            op_codes=np.zeros(3, np.int32),
            segment_codes=np.zeros(3, np.int32),
        )
        assert np.array_equal(block.completions_sorted, [1.5, 2.5, 5.0])
        assert np.array_equal(block.latencies, [5.0, 0.5, 0.5])
        assert len(block) == 3


def _append(recorder, arrivals, op, seg):
    """Append one block with ``completions = arrivals + 0.5``."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    recorder.append_block(
        arrivals, arrivals, arrivals + 0.5, np.full(arrivals.size, op, np.int32), seg
    )


class TestStreamingRecorder:
    def test_vocab_interning_is_stable(self):
        recorder = StreamingRecorder()
        assert recorder.intern_op("read") == 0
        assert recorder.intern_op("write") == 1
        assert recorder.intern_op("read") == 0
        assert recorder.op_vocab == ("read", "write")
        assert recorder.intern_segment("a") == 0
        assert recorder.segment_vocab == ("a",)

    def test_empty_block_append_is_a_no_op(self):
        acc = _CollectingAccumulator()
        recorder = StreamingRecorder(accumulators=[acc])
        empty = np.zeros(0, dtype=np.float64)
        recorder.append_block(empty, empty, empty, np.zeros(0, np.int32), 0)
        assert acc.blocks == []
        assert recorder.count == 0

    def test_count_reads_are_pure(self):
        # Reading the counts mid-run must not move block boundaries:
        # repeated reads agree and the folded blocks are the appended ones.
        acc = _CollectingAccumulator()
        recorder = StreamingRecorder(accumulators=[acc])
        read = recorder.intern_op("read")
        write = recorder.intern_op("write")
        seg = recorder.intern_segment("a")
        _append(recorder, [0.0, 0.1], read, seg)
        _append(recorder, [0.2], write, seg)
        assert recorder.op_counts() == {"read": 2, "write": 1}
        assert recorder.segment_counts() == {"a": 3}
        assert recorder.op_counts() == {"read": 2, "write": 1}
        assert [len(b) for b in acc.blocks] == [2, 1]
        assert recorder.count == len(recorder) == 3
        assert recorder.max_completion == pytest.approx(0.7)

    def test_first_arrival_is_the_first_block_arrival(self):
        recorder = StreamingRecorder()
        assert recorder.first_arrival is None
        code = recorder.intern_op("read")
        seg = recorder.intern_segment("a")
        _append(recorder, [1.5, 1.7], code, seg)
        _append(recorder, [0.5], code, seg)
        assert recorder.first_arrival == 1.5


class TestColumnSpiller:
    def test_shards_split_and_round_trip(self, tmp_path):
        spiller = ColumnSpiller(tmp_path / "spill", shard_rows=64)
        recorder = StreamingRecorder(spiller=spiller)
        code = recorder.intern_op("read")
        seg = recorder.intern_segment("a")
        # 3 blocks of 50 rows: shard boundaries fall inside blocks.
        for k in range(3):
            arrivals = np.arange(50, dtype=np.float64) + 50 * k
            recorder.append_block(
                arrivals, arrivals, arrivals + 0.5, np.full(50, code, np.int32), seg
            )
        manifest = spiller.finish(recorder.op_vocab, recorder.segment_vocab)
        assert manifest["rows"] == 150
        assert len(manifest["shards"]) == 3  # 64 + 64 + 22 tail
        cols = load_spilled_columns(tmp_path / "spill")
        assert cols.size == 150
        assert np.array_equal(cols.arrivals, np.arange(150, dtype=np.float64))
        assert np.array_equal(cols.completions, cols.arrivals + 0.5)
        assert cols.op_vocab == ("read",)
        assert cols.segment_vocab == ("a",)

    def test_manifest_written_to_disk(self, tmp_path):
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=16)
        spiller.write(_block(4))
        spiller.finish(["read"], ["a"])
        with open(tmp_path / "s" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["format"] == "npz"
        assert manifest["rows"] == 4
        assert manifest["op_vocab"] == ["read"]

    def test_finish_is_idempotent(self, tmp_path):
        # Regression: a second finish() used to append a duplicate tail
        # shard and rewrite the manifest with doubled row counts.
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=16)
        spiller.write(_block(4))
        first = spiller.finish(["read"], ["a"])
        again = spiller.finish(["read"], ["a"])
        assert again is first
        assert first["rows"] == 4
        cols = load_spilled_columns(tmp_path / "s")
        assert cols.size == 4

    def test_finish_rejects_conflicting_vocabularies(self, tmp_path):
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=16)
        spiller.write(_block(4))
        spiller.finish(["read"], ["a"])
        with pytest.raises(ConfigurationError, match="different vocab"):
            spiller.finish(["read", "write"], ["a"])


COLUMN_NAMES = ("arrivals", "starts", "completions", "op_codes", "segment_codes")


def _assert_bit_identical(loaded, reference):
    """All five columns equal; floats compared on their uint64 view, so
    NaN payloads and the sign of zero count (``==`` would miss both)."""
    for name in COLUMN_NAMES:
        got, want = getattr(loaded, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        if want.dtype == np.float64:
            got, want = got.view(np.uint64), want.view(np.uint64)
        assert np.array_equal(got, want), f"column {name!r} differs"


def _spill_floats(directory, values, shard_rows):
    """Spill ``values`` / ``-values`` / ``|values|`` as the three float
    columns in blocks of 7 rows (shard boundaries fall inside and between
    blocks), reload, and compare every column on its bit pattern."""
    spiller = ColumnSpiller(directory, shard_rows=shard_rows)
    codes = np.zeros(values.size, np.int32)
    with np.errstate(all="ignore"):  # StreamBlock derives inf - inf latencies
        for lo in range(0, values.size, 7):
            part = values[lo : lo + 7]
            spiller.write(
                StreamBlock(
                    part, -part, np.abs(part), codes[: part.size], codes[: part.size]
                )
            )
    spiller.finish(["read"], ["a"])
    loaded = load_spilled_columns(directory)
    for got, want in (
        (loaded.arrivals, values),
        (loaded.starts, -values),
        (loaded.completions, np.abs(values)),
    ):
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return loaded


#: Every float64 bit pattern, drawn from the bits so NaN payloads,
#: subnormals, infinities and both zeros all occur.
_any_float64 = st.integers(0, 2**64 - 1)

SHARD_ROWS = 16


class TestSpillCodec:
    @pytest.mark.parametrize(
        "size", [0, 1, SHARD_ROWS - 1, SHARD_ROWS, SHARD_ROWS + 1, 3 * SHARD_ROWS + 5]
    )
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_exact_for_any_float64(
        self, tmp_path_factory, size, data
    ):
        bits = data.draw(st.lists(_any_float64, min_size=size, max_size=size))
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        loaded = _spill_floats(
            tmp_path_factory.mktemp("codec"), values, shard_rows=SHARD_ROWS
        )
        assert loaded.size == size

    @settings(max_examples=40, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.integers(0, 3 * SHARD_ROWS),
            elements=st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
        descending=st.booleans(),
    )
    def test_round_trip_of_sorted_and_unsorted_columns(
        self, tmp_path_factory, values, descending
    ):
        # Multi-server and faulted runs are not sorted by completion;
        # a descending column makes every delta wrap around.
        if descending:
            values = np.sort(values)[::-1].copy()
        _spill_floats(tmp_path_factory.mktemp("codec"), values, shard_rows=SHARD_ROWS)

    def test_special_values_survive(self, tmp_path):
        nan_payload = np.array([0x7FF8_0000_DEAD_BEEF], np.uint64).view(np.float64)[0]
        values = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, nan_payload, 5e-324, -5e-324,
             1.7976931348623157e308, 1.0, 0.5, 0.5, -3.0]
        )
        loaded = _spill_floats(tmp_path / "s", values, shard_rows=4)
        assert np.signbit(loaded.arrivals[1]) and not np.signbit(loaded.arrivals[0])

    def test_shards_are_standard_npz_with_recorded_encoding(self, tmp_path):
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=8)
        spiller.write(_block(8))
        manifest = spiller.finish(["read"], ["a"])
        assert manifest["encoding"] == "fifo-planes"
        with np.load(tmp_path / "s" / "shard-00000.npz", allow_pickle=False) as shard:
            # _block's starts are no FIFO starts, so they are planes too.
            assert set(shard.files) == {
                *(f"{key}_{k}" for key in ("arrivals", "starts", "completions")
                  for k in range(8)),
                "op_codes",
                "segment_codes",
            }
            assert shard["arrivals_0"].dtype == np.uint8
            assert shard["arrivals_0"].shape == (8,)
            assert shard["op_codes"].dtype == np.uint8

    def test_encoded_fifo_run_is_smaller_than_raw(self, tmp_path):
        # Clock-free size guard: a FIFO-shaped run (sorted arrivals, each
        # start the previous completion or the arrival) must land well
        # under its raw 3 x 8 + 2 x 4 = 32 bytes per query.
        rng = np.random.default_rng(5)
        n = 40_000
        arrivals = np.cumsum(rng.exponential(1 / 2500.0, n))
        service = rng.exponential(3e-4, n)
        completions = np.empty(n)
        free = 0.0
        for i in range(n):
            free = max(free, arrivals[i]) + service[i]
            completions[i] = free
        starts = completions - service
        codes = np.zeros(n, np.int32)
        spiller = ColumnSpiller(tmp_path / "s")
        spiller.write(StreamBlock(arrivals, starts, completions, codes, codes))
        spiller.finish(["read"], ["a"])
        size = sum(f.stat().st_size for f in (tmp_path / "s").glob("shard-*.npz"))
        assert size < 0.6 * 32 * n


def _fifo_block(n, seed=5, mean_service=0.3):
    """A single-server FIFO run: each start is the arrival or the previous
    completion, whichever is later, so ``starts`` spills as exceptions."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, n))
    service = rng.exponential(mean_service, n)
    starts, completions = np.empty(n), np.empty(n)
    free = -np.inf
    for i in range(n):
        starts[i] = max(free, arrivals[i])
        free = completions[i] = starts[i] + service[i]
    codes = (np.arange(n) % 3).astype(np.int32)
    return StreamBlock(arrivals, starts, completions, codes, codes[::-1].copy())


def _spill_block(directory, block, shard_rows=262_144):
    spiller = ColumnSpiller(directory, shard_rows=shard_rows)
    spiller.write(block)
    spiller.finish(["read", "insert", "scan"], ["a", "b", "c"])
    return load_spilled_columns(directory)


def _members(path):
    with np.load(path, allow_pickle=False) as shard:
        return {key: shard[key] for key in shard.files}


class TestFifoPlanesLayout:
    def test_fifo_starts_are_stored_as_exceptions(self, tmp_path):
        block = _fifo_block(500)
        block.starts[[0, 7, 499]] = [-0.0, block.starts[7] + 1e-9, np.nan]
        loaded = _spill_block(tmp_path / "s", block)
        _assert_bit_identical(loaded, block)
        members = _members(tmp_path / "s" / "shard-00000.npz")
        assert not any(key.startswith("starts_") and key[-1].isdigit() for key in members)
        assert members["starts_rows"].tolist() == [0, 7, 499]
        assert members["starts_rows"].dtype == np.int64
        assert members["op_codes"].dtype == members["segment_codes"].dtype == np.uint8

    @pytest.mark.parametrize("exceptions", [31, 32, 33])
    def test_starts_fall_back_to_planes_past_a_sixteenth(self, tmp_path, exceptions):
        block = _fifo_block(512)
        rows = np.linspace(0, 511, exceptions).astype(int)
        block.starts[rows] += 0.25
        loaded = _spill_block(tmp_path / "s", block)
        _assert_bit_identical(loaded, block)
        members = _members(tmp_path / "s" / "shard-00000.npz")
        assert ("starts_0" in members) == (exceptions > 512 // 16)
        assert ("starts_rows" in members) == (exceptions <= 512 // 16)

    def test_wide_codes_stay_int32(self, tmp_path):
        block = _fifo_block(300)
        block.segment_codes[:] = np.arange(300)
        spiller = ColumnSpiller(tmp_path / "s")
        spiller.write(block)
        spiller.finish(["read", "insert", "scan"], [str(i) for i in range(300)])
        members = _members(tmp_path / "s" / "shard-00000.npz")
        assert members["segment_codes"].dtype == np.int32
        assert members["op_codes"].dtype == np.uint8
        _assert_bit_identical(load_spilled_columns(tmp_path / "s"), block)

    def test_noise_planes_are_stored_and_runs_deflated(self, tmp_path):
        import zipfile

        n = 8192
        rng = np.random.default_rng(9)
        noise = rng.integers(0, 2**63, n, dtype=np.uint64).view(np.float64)
        block = StreamBlock(
            np.cumsum(noise.view(np.uint64) >> np.uint64(40)).astype(np.float64),
            noise,
            np.full(n, 3.0),
            np.zeros(n, np.int32),
            np.zeros(n, np.int32),
        )
        loaded = _spill_block(tmp_path / "s", block)
        _assert_bit_identical(loaded, block)
        with zipfile.ZipFile(tmp_path / "s" / "shard-00000.npz") as archive:
            kinds = {info.filename: info.compress_type for info in archive.infolist()}
        # Random starts: every plane is noise (and every row an exception).
        assert all(kinds[f"starts_{k}.npy"] == zipfile.ZIP_STORED for k in range(8))
        # A constant column: planes of zeros after the first delta.
        assert all(
            kinds[f"completions_{k}.npy"] == zipfile.ZIP_DEFLATED for k in range(8)
        )
        assert kinds["op_codes.npy"] == zipfile.ZIP_DEFLATED


def _write_member_spill(directory, members, rows, encoding="fifo-planes"):
    """One hand-built shard of ``members`` under a flat manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    np.savez(directory / "shard-00000.npz", **members)
    (directory / "manifest.json").write_text(
        json.dumps(
            {
                "format": "npz",
                "rows": rows,
                "shards": ["shard-00000.npz"],
                "op_vocab": ["read", "insert", "scan"],
                "segment_vocab": ["a", "b", "c"],
                "directory": str(directory),
                "encoding": encoding,
            }
        )
    )


def _old_planes(values):
    """The ``delta-byteplanes`` layout: one ``(8, rows)`` uint8 member."""
    bits = values.view(np.uint64)
    deltas = np.concatenate([bits[:1], bits[1:] - bits[:-1]])
    return np.ascontiguousarray(deltas.view(np.uint8).reshape(-1, 8).T)


class TestFifoPlanesLoader:
    def _valid(self, tmp_path, n=64):
        block = _fifo_block(n)
        block.starts[[3, 9]] += 0.5
        _spill_block(tmp_path / "valid", block)
        return block, _members(tmp_path / "valid" / "shard-00000.npz")

    def _load_broken(self, tmp_path, members, rows=64):
        _write_member_spill(tmp_path / "s", members, rows)
        return load_spilled_columns(tmp_path / "s")

    def test_hand_built_shard_loads(self, tmp_path):
        block, members = self._valid(tmp_path)
        _assert_bit_identical(self._load_broken(tmp_path, members), block)

    def test_delta_byteplanes_spill_still_loads(self, tmp_path):
        block = _fifo_block(50)
        members = {
            key: _old_planes(getattr(block, key))
            for key in ("arrivals", "starts", "completions")
        }
        members.update(op_codes=block.op_codes, segment_codes=block.segment_codes)
        _write_member_spill(tmp_path / "s", members, 50, encoding="delta-byteplanes")
        _assert_bit_identical(load_spilled_columns(tmp_path / "s"), block)

    @pytest.mark.parametrize(
        "plane",
        [np.zeros(64, np.int8), np.zeros((1, 64), np.uint8), np.zeros(64, np.float64)],
        ids=["dtype", "ndim", "float"],
    )
    def test_plane_of_wrong_type_rejected(self, tmp_path, plane):
        _, members = self._valid(tmp_path)
        members["completions_5"] = plane
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*'completions_5'"):
            self._load_broken(tmp_path, members)

    def test_planes_of_unequal_length_rejected(self, tmp_path):
        _, members = self._valid(tmp_path)
        members["arrivals_7"] = members["arrivals_7"][:-1]
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*'arrivals'.*unequal"):
            self._load_broken(tmp_path, members)

    @pytest.mark.parametrize(
        "rows",
        [[9, 3], [3, 3], [-1, 9], [3, 64]],
        ids=["descending", "repeated", "negative", "past-end"],
    )
    def test_bad_exception_rows_rejected(self, tmp_path, rows):
        _, members = self._valid(tmp_path)
        members["starts_rows"] = np.array(rows, np.int64)
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*starts_rows"):
            self._load_broken(tmp_path, members)

    def test_exception_count_mismatch_rejected(self, tmp_path):
        _, members = self._valid(tmp_path)
        members["starts_values"] = members["starts_values"][:1]
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*1 starts_values for 2"):
            self._load_broken(tmp_path, members)

    @pytest.mark.parametrize(
        "member", ["starts_rows", "starts_values", "arrivals_3", "completions_0", "op_codes"]
    )
    def test_missing_member_rejected(self, tmp_path, member):
        _, members = self._valid(tmp_path)
        del members[member]
        with pytest.raises(ConfigurationError, match=f"shard-00000.npz.*{member}"):
            self._load_broken(tmp_path, members)

    def test_exception_members_of_wrong_type_rejected(self, tmp_path):
        _, members = self._valid(tmp_path)
        members["starts_values"] = members["starts_values"].astype(np.float32)
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*'starts_values'"):
            self._load_broken(tmp_path, members)


def _write_plain_spill(directory, shards, rows=None, **manifest_extra):
    """A spill as written before the byte-plane encoding existed:
    ``np.savez_compressed`` float64 columns, manifest without ``encoding``."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, columns in enumerate(shards):
        names.append(f"shard-{i:05d}.npz")
        np.savez_compressed(directory / names[-1], **columns)
    manifest = {
        "format": "npz",
        "rows": sum(c["arrivals"].size for c in shards) if rows is None else rows,
        "shards": names,
        "op_vocab": ["read"],
        "segment_vocab": ["a"],
        "directory": str(directory),
        **manifest_extra,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _plain_columns(n, offset=0.0, **override):
    block = _block(n, offset)
    columns = {name: getattr(block, name) for name in COLUMN_NAMES}
    columns.update(override)
    return columns


class TestLoadSpilledColumns:
    def test_spill_without_encoding_loads_as_plain_float64(self, tmp_path):
        rng = np.random.default_rng(2)
        shards = [
            _plain_columns(10, arrivals=rng.normal(size=10)),
            _plain_columns(10, 10.0, completions=np.full(10, -0.0)),
        ]
        _write_plain_spill(tmp_path / "old", shards)
        loaded = load_spilled_columns(tmp_path / "old")
        assert loaded.size == 20
        _assert_bit_identical(
            loaded,
            SimpleNamespace(
                **{
                    name: np.concatenate([shard[name] for shard in shards])
                    for name in COLUMN_NAMES
                }
            ),
        )

    def test_unknown_encoding_rejected(self, tmp_path):
        _write_plain_spill(tmp_path / "s", [_plain_columns(4)], encoding="xor-v9")
        with pytest.raises(ConfigurationError, match="unknown spill encoding 'xor-v9'"):
            load_spilled_columns(tmp_path / "s")

    def test_ragged_shard_rejected(self, tmp_path):
        # Reproduced before the fix: 3/3/2 rows in one shard loaded as
        # arrivals.size == 15, completions.size == 14, silently.
        ragged = _plain_columns(3, completions=np.zeros(2))
        _write_plain_spill(
            tmp_path / "s",
            [ragged, _plain_columns(6), _plain_columns(6)],
            rows=20,
        )
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*unequal"):
            load_spilled_columns(tmp_path / "s")

    def test_row_total_must_match_manifest(self, tmp_path):
        _write_plain_spill(
            tmp_path / "s", [_plain_columns(10), _plain_columns(5)], rows=20
        )
        with pytest.raises(ConfigurationError, match="15 rows, manifest says 20"):
            load_spilled_columns(tmp_path / "s")

    def test_truncated_shard_rejected(self, tmp_path):
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=64)
        spiller.write(_block(100))
        spiller.finish(["read"], ["a"])
        victim = tmp_path / "s" / "shard-00001.npz"
        victim.write_bytes(victim.read_bytes()[: victim.stat().st_size // 2])
        with pytest.raises(ConfigurationError, match="shard-00001.npz"):
            load_spilled_columns(tmp_path / "s")

    def test_corrupt_member_rejected(self, tmp_path):
        # Valid zip directory, damaged deflate stream inside it.
        spiller = ColumnSpiller(tmp_path / "s")
        spiller.write(_block(4000))
        spiller.finish(["read"], ["a"])
        victim = tmp_path / "s" / "shard-00000.npz"
        data = bytearray(victim.read_bytes())
        data[100:140] = bytes(40)
        victim.write_bytes(bytes(data))
        with pytest.raises(ConfigurationError, match="shard-00000.npz"):
            load_spilled_columns(tmp_path / "s")

    @pytest.mark.parametrize(
        "field, bit",
        [(10, 0x01), (8, 0x01), (8, 0x20), (8, 0x40)],
        ids=["compression-method", "encrypted", "patched-data", "strong-encryption"],
    )
    def test_damaged_central_directory_flags_rejected(self, tmp_path, field, bit):
        # zipfile raises NotImplementedError (unknown compression method,
        # patched data, strong encryption) or RuntimeError (encrypted, no
        # password) for these fields; the loader must still name the shard.
        spiller = ColumnSpiller(tmp_path / "s")
        spiller.write(_block(600))
        spiller.finish(["read"], ["a"])
        victim = tmp_path / "s" / "shard-00000.npz"
        data = bytearray(victim.read_bytes())
        end = data.rindex(b"PK\x05\x06")
        count, _, entry = struct.unpack_from("<HII", data, end + 10)
        for _ in range(count):
            data[entry + field] ^= bit
            name, extra, comment = struct.unpack_from("<HHH", data, entry + 28)
            entry += 46 + name + extra + comment
        victim.write_bytes(bytes(data))
        with pytest.raises(ConfigurationError, match="shard-00000.npz"):
            load_spilled_columns(tmp_path / "s")

    def test_shard_that_is_not_an_archive_rejected(self, tmp_path):
        _write_plain_spill(tmp_path / "s", [_plain_columns(4)])
        with open(tmp_path / "s" / "shard-00000.npz", "wb") as fh:
            np.save(fh, np.arange(4.0))
        with pytest.raises(ConfigurationError, match="shard-00000.npz"):
            load_spilled_columns(tmp_path / "s")

    def test_missing_column_rejected(self, tmp_path):
        columns = _plain_columns(4)
        del columns["starts"]
        _write_plain_spill(tmp_path / "s", [columns])
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*starts"):
            load_spilled_columns(tmp_path / "s")

    @pytest.mark.parametrize(
        "name", ["../x.npz", "/tmp/x.npz", "sub/x.npz", "..", "", None, 3]
    )
    def test_shard_names_cannot_leave_the_directory(self, tmp_path, name):
        _write_plain_spill(tmp_path / "s", [_plain_columns(4)])
        np.savez_compressed(tmp_path / "x.npz", **_plain_columns(4))
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["shards"] = [name]
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="plain file name"):
            load_spilled_columns(tmp_path / "s")

    @pytest.mark.parametrize(
        "planes",
        [
            np.zeros((8, 4), np.int8),
            np.zeros((4, 8), np.uint8),
            np.zeros(32, np.uint8),
            np.zeros(4, np.float64),
        ],
    )
    def test_encoded_planes_must_be_uint8_8_by_n(self, tmp_path, planes):
        _write_plain_spill(
            tmp_path / "s",
            [_plain_columns(4, arrivals=planes)],
            rows=4,
            encoding="delta-byteplanes",
        )
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*'arrivals'"):
            load_spilled_columns(tmp_path / "s")

    def test_plain_columns_must_be_float64_vectors(self, tmp_path):
        _write_plain_spill(
            tmp_path / "s", [_plain_columns(4, arrivals=np.zeros((8, 4), np.uint8))]
        )
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*'arrivals'"):
            load_spilled_columns(tmp_path / "s")

    def test_code_columns_must_be_integers(self, tmp_path):
        _write_plain_spill(
            tmp_path / "s", [_plain_columns(4, op_codes=np.full(4, 0.9))]
        )
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*'op_codes'"):
            load_spilled_columns(tmp_path / "s")

    def test_pickled_members_are_refused(self, tmp_path):
        _write_plain_spill(
            tmp_path / "s",
            [_plain_columns(4, op_codes=np.array([0, 0, 0, None], dtype=object))],
        )
        with pytest.raises(ConfigurationError, match="shard-00000.npz"):
            load_spilled_columns(tmp_path / "s")

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]", '{"format": "npz", "rows": 1}',
                 '{"format": "npz", "rows": "many", "shards": [], '
                 '"op_vocab": [], "segment_vocab": []}']
    )
    def test_malformed_manifest_rejected(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ConfigurationError, match="malformed spill manifest"):
            load_spilled_columns(tmp_path)

    def test_unknown_format_in_manifest_rejected(self, tmp_path):
        _write_plain_spill(tmp_path / "s", [_plain_columns(4)])
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["format"] = "csv"
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="unknown spill format 'csv'"):
            load_spilled_columns(tmp_path / "s")

    def test_parquet_manifest_rejected_naming_npz(self, tmp_path):
        _write_plain_spill(tmp_path / "s", [_plain_columns(4)])
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["format"] = "parquet"
        manifest["shards"] = ["shard-00000.parquet"]
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            ConfigurationError, match="unknown spill format 'parquet'.*'npz'"
        ):
            load_spilled_columns(tmp_path / "s")


class TestCodesWithinVocabularies:
    """A code that is negative or past its vocabulary is refused naming
    the shard, instead of raising ``IndexError`` or loading and failing
    later in ``QueryColumns.ops()``."""

    @staticmethod
    def _spill(directory, op=0, segment=0):
        spiller = ColumnSpiller(directory)
        spiller.write(_block(10, op=op, segment=segment))
        return spiller.finish(["read"], ["a"])

    @pytest.mark.parametrize("op, segment", [(5, 0), (-1, 0), (0, 1), (0, -3)])
    def test_flat_spill(self, tmp_path, op, segment):
        self._spill(tmp_path / "s", op, segment)
        with pytest.raises(ConfigurationError, match="shard-00000.npz.*code"):
            load_spilled_columns(tmp_path / "s")

    def test_sharded_spill(self, tmp_path):
        shard = self._spill(tmp_path / "s" / "shard-0", op=5)
        write_sharded_manifest(tmp_path / "s", [shard], ["read"], ["a"])
        where = r"shard-00000.npz' in \S*shard-0: column 'op_codes' holds code"
        with pytest.raises(ConfigurationError, match=where):
            load_spilled_columns(tmp_path / "s")

    @pytest.mark.parametrize(
        "remap, value", [("op_map", [1]), ("op_map", [-1]), ("segment_map", [0, 0]),
                         ("op_map", []), ("segment_map", "a"), ("op_map", None)]
    )
    def test_sharded_remap_outside_the_merged_vocabulary(self, tmp_path, remap, value):
        shard = self._spill(tmp_path / "s" / "shard-0")
        write_sharded_manifest(tmp_path / "s", [shard], ["read"], ["a"])
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        manifest["shards"][0][remap] = value
        (tmp_path / "s" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match=f"shard 'shard-0'.*{remap}"):
            load_spilled_columns(tmp_path / "s")

    def test_sharded_spill_with_valid_codes_still_loads(self, tmp_path):
        shard = self._spill(tmp_path / "s" / "shard-0")
        write_sharded_manifest(tmp_path / "s", [shard], ["scan", "read"], ["z", "a"])
        loaded = load_spilled_columns(tmp_path / "s")
        assert loaded.ops() == ["read"] * 10 and loaded.segment_names() == ["a"] * 10

    def test_column_file(self, tmp_path):
        block = _block(10, op=5)
        columns = QueryColumns(
            arrivals=block.arrivals, starts=block.starts, completions=block.completions,
            op_codes=block.op_codes, op_vocab=("read",),
            segment_codes=block.segment_codes, segment_vocab=("a",),
        )
        write_column_file(tmp_path / "entry.npz", columns, {})
        with pytest.raises(ConfigurationError, match="entry.npz.*code"):
            read_column_file(tmp_path / "entry.npz")


class TestSpillTracing:
    def test_flushes_are_spans_and_counters_match_disk(self, tmp_path):
        tracer = Tracer()
        driver = VirtualClockDriver(DriverConfig(block_size=64), tracer=tracer)
        scenario = TestDriverStreaming()._scenario()
        summary = driver.run_streaming(
            TraditionalKVStore(), scenario, spill_dir=tmp_path / "s"
        )
        trace = tracer.finish()
        shards = sorted((tmp_path / "s").glob("shard-*.npz"))
        spans = [s for s in trace.walk() if s.name == "spill-write"]
        assert len(spans) == len(shards) == len(summary.spill["shards"])
        assert all(s.phase == "report" for s in spans)
        assert [s.attrs["bytes"] for s in spans] == [
            f.stat().st_size for f in shards
        ]
        assert sum(s.attrs["rows"] for s in spans) == summary.num_queries
        assert trace.counter("spill.shards") == len(shards)
        assert trace.counter("spill.rows") == summary.num_queries
        assert trace.counter("spill.bytes") == sum(f.stat().st_size for f in shards)

    def test_shard_runs_hand_their_tracer_over_too(self, tmp_path):
        from repro.core.sharded import plan_shards
        from repro.metrics import streaming_accumulators

        tracer = Tracer()
        scenario = TestDriverStreaming()._scenario()
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=100)
        payload = VirtualClockDriver(DriverConfig(), tracer=tracer).run_streaming_shard(
            TraditionalKVStore(),
            scenario,
            plan_shards(scenario, 2)[0],
            streaming_accumulators(scenario),
            spiller,
        )
        assert tracer.counters["spill.rows"] == payload["num_queries"]
        assert tracer.counters["spill.shards"] == len(payload["spill"]["shards"])

    def test_untraced_spiller_is_silent(self, tmp_path):
        spiller = ColumnSpiller(tmp_path / "s", shard_rows=8)
        spiller.write(_block(20))
        spiller.finish(["read"], ["a"])
        assert spiller.tracer.enabled is False


class TestDriverStreaming:
    def _scenario(self):
        spec = simple_spec("steady", UniformDistribution(0, 1000), rate=150.0)
        return Scenario(
            name="stream-smoke",
            segments=[
                Segment(spec=spec, duration=2.0, label="a"),
                Segment(spec=spec, duration=2.0, label="b"),
            ],
            seed=3,
            initial_keys=np.linspace(0.0, 1000.0, 500),
        )

    def test_block_size_validation(self):
        with pytest.raises(DriverError):
            DriverConfig(block_size=0)

    def test_block_size_describe_key_is_conditional(self):
        # Absent by default so existing runner cache keys stay stable.
        assert DriverConfig(block_size=64).describe()["block_size"] == 64
        # Unset means the default bound, and the description (a part of
        # every ``ResultCache`` key) does not say so.
        assert DriverConfig().describe() == {
            "online_hardware": "cpu",
            "max_queries": 2_000_000,
            "jitter_arrivals": True,
            "servers": 1,
        }

    def test_run_columns_invariant_under_block_size(self):
        reference = VirtualClockDriver(DriverConfig()).run(
            TraditionalKVStore(), self._scenario()
        )
        for block_size in (1, 7, 64, 65_536):
            result = VirtualClockDriver(DriverConfig(block_size=block_size)).run(
                TraditionalKVStore(), self._scenario()
            )
            assert result.columns.op_vocab == reference.columns.op_vocab
            assert result.columns.segment_vocab == reference.columns.segment_vocab
            for name in (
                "arrivals", "starts", "completions", "op_codes", "segment_codes",
            ):
                assert np.array_equal(
                    getattr(result.columns, name),
                    getattr(reference.columns, name),
                ), f"column {name!r} changed under block_size={block_size}"

    def test_run_streaming_summary_and_spill(self, tmp_path):
        driver = VirtualClockDriver(DriverConfig(block_size=64))
        summary = driver.run_streaming(
            TraditionalKVStore(),
            self._scenario(),
            sla=0.05,
            spill_dir=str(tmp_path / "spill"),
        )
        reference = VirtualClockDriver(DriverConfig()).run(
            TraditionalKVStore(), self._scenario()
        )
        assert summary.num_queries == reference.columns.size
        assert summary.mean_throughput() == reference.mean_throughput()
        assert {"throughput", "adaptability", "latency", "segments", "sla"} <= set(
            summary.metrics
        )
        spilled = load_spilled_columns(summary.spill["directory"])
        assert np.array_equal(spilled.arrivals, reference.columns.arrivals)
        assert np.array_equal(spilled.completions, reference.columns.completions)

    def test_multi_server_spill_equals_in_memory_run(self, tmp_path):
        # servers > 1 with scans among the reads: a short query overtakes
        # a long one, so completions are not sorted in arrival order.
        spec = simple_spec(
            "scans",
            UniformDistribution(0, 1000),
            rate=4000.0,
            scan_fraction=0.3,
            scan_length_mean=200,
        )
        scenario = replace(
            self._scenario(), segments=[Segment(spec=spec, duration=1.0, label="a")]
        )
        config = DriverConfig(servers=3, block_size=64)
        summary = VirtualClockDriver(config).run_streaming(
            TraditionalKVStore(), scenario, spill_dir=tmp_path / "s"
        )
        reference = VirtualClockDriver(config).run(TraditionalKVStore(), scenario)
        assert np.any(np.diff(reference.columns.completions) < 0)
        spilled = load_spilled_columns(summary.spill["directory"])
        _assert_bit_identical(spilled, reference.columns)
        # Three servers start queries no single FIFO queue would: the
        # starts exceptions pass the bound and the column goes as planes.
        assert "starts_0" in _members(tmp_path / "s" / "shard-00000.npz")

    def test_faulted_spill_equals_in_memory_run(self, tmp_path):
        scenario = replace(
            self._scenario(),
            fault_plan=FaultPlan([
                LatencyFault(start=0.5, end=1.0, multiplier=25.0),
                StallFault(at=1.5, duration=0.4),
                CrashFault(at=3.0, recovery_seconds=0.3),
            ]),
        )
        summary = VirtualClockDriver(DriverConfig(block_size=64)).run_streaming(
            TraditionalKVStore(), scenario, spill_dir=tmp_path / "s"
        )
        reference = VirtualClockDriver(DriverConfig()).run(
            TraditionalKVStore(), scenario
        )
        spilled = load_spilled_columns(summary.spill["directory"])
        _assert_bit_identical(spilled, reference.columns)

    def test_summary_round_trip(self, tmp_path):
        driver = VirtualClockDriver(DriverConfig(block_size=32))
        summary = driver.run_streaming(TraditionalKVStore(), self._scenario())
        payload = summary.to_dict()
        restored = StreamingRunSummary.from_dict(json.loads(json.dumps(payload)))
        assert isinstance(restored, StreamingRunSummary)
        assert restored.num_queries == summary.num_queries
        assert restored.metrics == summary.metrics
        assert restored.segments == summary.segments
        assert restored.op_counts == summary.op_counts
