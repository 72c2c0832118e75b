"""Trace format, loader validation, replay machinery, and round trip."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DriverError, TraceFormatError
from repro.workloads.generators import KV_OP_CODES, KVOperation, KVWorkload
from repro.workloads.patterns import ConstantArrivals
from repro.workloads.synthesizer import fit_workload
from repro.workloads.trace import (
    TRACE_FORMAT_VERSION,
    QueryTrace,
    TraceArrivalProcess,
    TraceWorkload,
    TraceWorkloadSpec,
    fit_trace_workload,
    load_trace,
    replay_duration,
    round_trip,
    save_trace,
    trace_spec,
)


def make_trace(n=50, seed=3, span=20.0, name="t") -> QueryTrace:
    """Deterministic mixed-op trace for tests."""
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, span, n))
    ops = rng.choice([0, 1, 2, 3, 4], size=n,
                     p=[0.5, 0.1, 0.2, 0.15, 0.05]).astype(np.int8)
    keys = rng.normal(100.0, 25.0, n)
    scans = np.where(ops == 3, rng.integers(1, 9, n), 0).astype(np.int64)
    return QueryTrace(ts, ops, keys, scans, name=name)


class TestQueryTraceValidation:
    def test_empty_rejected(self):
        with pytest.raises(TraceFormatError, match="at least one row"):
            QueryTrace(np.empty(0), np.empty(0, np.int8), np.empty(0),
                       np.empty(0, np.int64))

    def test_length_mismatch_rejected(self):
        with pytest.raises(TraceFormatError, match="length mismatch"):
            QueryTrace([0.0, 1.0], [0], [1.0, 2.0], [0, 0])

    def test_backwards_timestamps_rejected(self):
        with pytest.raises(TraceFormatError, match="non-decreasing"):
            QueryTrace([1.0, 0.5], [0, 0], [1.0, 2.0], [0, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(TraceFormatError, match="finite"):
            QueryTrace([0.0, np.nan], [0, 0], [1.0, 2.0], [0, 0])
        with pytest.raises(TraceFormatError, match="finite"):
            QueryTrace([0.0, 1.0], [0, 0], [1.0, np.inf], [0, 0])

    def test_bad_op_code_rejected(self):
        with pytest.raises(TraceFormatError, match="op codes"):
            QueryTrace([0.0, 1.0], [0, 9], [1.0, 2.0], [0, 0])

    def test_negative_scan_rejected(self):
        with pytest.raises(TraceFormatError, match="scan lengths"):
            QueryTrace([0.0, 1.0], [0, 0], [1.0, 2.0], [0, -1])

    def test_trace_format_error_is_configuration_error(self):
        assert issubclass(TraceFormatError, ConfigurationError)


class TestContentHash:
    def test_sensitive_to_every_column(self):
        base = make_trace()
        baseline = base.content_hash()
        for mutate in (
            lambda t: QueryTrace(t.timestamps + 1e-9, t.ops, t.keys,
                                 t.scan_lengths),
            lambda t: QueryTrace(t.timestamps,
                                 np.where(np.arange(t.n) == 0, 1, t.ops),
                                 t.keys, t.scan_lengths),
            lambda t: QueryTrace(t.timestamps, t.ops, t.keys + 1e-9,
                                 t.scan_lengths),
            lambda t: QueryTrace(t.timestamps, t.ops, t.keys,
                                 t.scan_lengths + 1),
        ):
            assert mutate(base).content_hash() != baseline

    def test_name_and_source_do_not_participate(self):
        base = make_trace()
        renamed = QueryTrace(base.timestamps, base.ops, base.keys,
                             base.scan_lengths, name="other", source="/x/y.csv")
        assert renamed.content_hash() == base.content_hash()

    def test_describe_carries_hash_and_histogram(self):
        trace = make_trace()
        info = trace.describe()
        assert info["version"] == TRACE_FORMAT_VERSION
        assert info["content_hash"] == trace.content_hash()
        assert sum(info["ops"].values()) == trace.n


class TestTransforms:
    def test_rebased_starts_at_zero(self):
        trace = make_trace()
        shifted = QueryTrace(trace.timestamps + 100.0, trace.ops, trace.keys,
                             trace.scan_lengths)
        rebased = shifted.rebased()
        assert rebased.timestamps[0] == 0.0
        assert rebased.span == shifted.span

    def test_rebased_identity_when_already_zero(self):
        trace = make_trace().rebased()
        assert trace.rebased() is trace

    def test_dilated_scales_span(self):
        trace = make_trace().rebased()
        assert abs(trace.dilated(2.0).span - 2.0 * trace.span) < 1e-9
        assert trace.dilated(1.0) is trace

    def test_dilated_rejects_bad_factor(self):
        trace = make_trace()
        for factor in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ConfigurationError):
                trace.dilated(factor)

    def test_truncated_by_queries(self):
        trace = make_trace(n=40)
        cut = trace.truncated(max_queries=10)
        assert cut.n == 10
        assert np.array_equal(cut.keys, trace.keys[:10])
        assert trace.truncated(max_queries=400) is trace

    def test_truncated_by_span(self):
        trace = make_trace().rebased()
        cut = trace.truncated(max_span=trace.span / 2)
        assert cut.n < trace.n
        assert cut.timestamps[-1] <= trace.span / 2

    def test_truncated_rejects_bad_limits(self):
        trace = make_trace()
        with pytest.raises(ConfigurationError):
            trace.truncated(max_queries=0)
        with pytest.raises(ConfigurationError):
            trace.truncated(max_span=-1.0)

    def test_replay_duration_covers_every_arrival(self):
        trace = make_trace().rebased()
        assert replay_duration(trace) > trace.timestamps[-1]


class TestOnDiskFormat:
    def test_csv_round_trip_bitwise(self, tmp_path):
        trace = make_trace()
        path = save_trace(trace, tmp_path / "t.csv")
        loaded = load_trace(path)
        for attr in ("timestamps", "ops", "keys", "scan_lengths"):
            assert np.array_equal(getattr(trace, attr), getattr(loaded, attr))
        assert loaded.content_hash() == trace.content_hash()
        assert loaded.name == "t"
        assert loaded.source == str(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_trace(tmp_path / "nope.csv")

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "t.dat"
        path.write_text("x")
        with pytest.raises(ConfigurationError, match="infer trace format"):
            load_trace(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# repro-trace v99\ntimestamp,op,key\n0.0,read,1.0\n")
        with pytest.raises(TraceFormatError, match="v99"):
            load_trace(path)

    def test_bad_version_comment_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# some junk\ntimestamp,op,key\n0.0,read,1.0\n")
        with pytest.raises(TraceFormatError, match="version comment"):
            load_trace(path)

    def test_version_comment_optional(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,op,key\n0.0,read,1.0\n0.5,update,2.0\n")
        trace = load_trace(path)
        assert trace.n == 2
        assert trace.scan_lengths.tolist() == [0, 0]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,operation,key\n0.0,read,1.0\n")
        with pytest.raises(TraceFormatError, match="bad header"):
            load_trace(path)

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,op,key\n0.0,delete,1.0\n")
        with pytest.raises(TraceFormatError, match="unknown op 'delete'"):
            load_trace(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,op,key\nabc,read,1.0\n")
        with pytest.raises(TraceFormatError, match="row 1"):
            load_trace(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,op,key\n0.0,read\n")
        with pytest.raises(TraceFormatError, match="fields"):
            load_trace(path)

    def test_no_data_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,op,key\n")
        with pytest.raises(TraceFormatError, match="no data rows"):
            load_trace(path)

    def test_backwards_rows_rejected_on_load(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "timestamp,op,key\n1.0,read,1.0\n0.5,read,2.0\n"
        )
        with pytest.raises(TraceFormatError, match="non-decreasing"):
            load_trace(path)

    @pytest.mark.parametrize("suffix", [".parquet", ".pq"])
    def test_parquet_path_rejected_naming_csv(self, tmp_path, suffix):
        path = tmp_path / f"t{suffix}"
        with pytest.raises(ConfigurationError, match="CSV"):
            save_trace(make_trace(), path)
        assert not path.exists()
        path.write_bytes(b"PAR1")
        with pytest.raises(ConfigurationError, match="CSV"):
            load_trace(path)


class TestTraceArrivalProcess:
    def test_arrivals_exact_and_rng_free(self, rng):
        trace = make_trace().rebased()
        process = TraceArrivalProcess(trace)
        out_a = process.arrivals(rng, 0.0, replay_duration(trace), jitter=True)
        out_b = process.arrivals(np.random.default_rng(0), 0.0,
                                 replay_duration(trace), jitter=False)
        assert np.array_equal(out_a, trace.timestamps)
        assert np.array_equal(out_a, out_b)

    def test_window_slicing(self, rng):
        trace = make_trace().rebased()
        process = TraceArrivalProcess(trace)
        mid = trace.span / 2
        head = process.arrivals(rng, 0.0, mid)
        tail = process.arrivals(rng, mid, trace.span + 1.0)
        assert head.size + tail.size == trace.n
        assert np.array_equal(np.concatenate([head, tail]), trace.timestamps)

    def test_projected_count_matches_arrivals(self, rng):
        trace = make_trace().rebased()
        process = TraceArrivalProcess(trace)
        for start, end in ((0.0, 5.0), (5.0, 5.0), (3.0, 30.0)):
            assert process.projected_count(start, end) == process.arrivals(
                rng, start, end
            ).size

    def test_empirical_rate(self):
        trace = QueryTrace([0.1, 0.2, 0.3, 5.0], [0, 0, 0, 0],
                           [1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0])
        process = TraceArrivalProcess(trace)
        assert process.rate(0.0) == 3.0
        assert process.rate(2.0) == 0.0

    def test_describe_has_hash(self):
        trace = make_trace()
        info = TraceArrivalProcess(trace).describe()
        assert info["kind"] == "TraceArrivalProcess"
        assert info["content_hash"] == trace.content_hash()


class TestTraceWorkload:
    def test_replays_rows_positionally(self):
        trace = make_trace().rebased()
        workload = trace_spec(trace).build_workload(seed=123)
        assert isinstance(workload, TraceWorkload)
        batch = workload.next_batch(trace.timestamps)
        assert np.array_equal(batch.keys, trace.keys)
        assert np.array_equal(batch.ops, trace.ops)
        assert np.array_equal(batch.scan_lengths, trace.scan_lengths)
        assert workload.cursor == trace.n

    def test_seed_independent(self):
        trace = make_trace().rebased()
        spec = trace_spec(trace)
        a = spec.build_workload(seed=1).next_batch(trace.timestamps)
        b = spec.build_workload(seed=999).next_batch(trace.timestamps)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.ops, b.ops)

    def test_chunked_consumption_matches(self):
        trace = make_trace().rebased()
        spec = trace_spec(trace)
        whole = spec.build_workload().next_batch(trace.timestamps)
        chunked = spec.build_workload()
        parts = [chunked.next_batch(trace.timestamps[i:i + 7])
                 for i in range(0, trace.n, 7)]
        assert np.array_equal(
            np.concatenate([p.keys for p in parts]), whole.keys
        )

    def test_exhaustion_raises(self):
        trace = make_trace(n=5).rebased()
        workload = trace_spec(trace).build_workload()
        workload.next_batch(trace.timestamps)
        with pytest.raises(DriverError, match="exhausted"):
            workload.next_batch(np.asarray([99.0]))

    def test_next_query_advances_cursor(self):
        trace = make_trace(n=5).rebased()
        workload = trace_spec(trace).build_workload()
        query = workload.next_query(float(trace.timestamps[0]))
        assert query.key == float(trace.keys[0])
        assert workload.cursor == 1

    def test_sample_keys_probe_is_deterministic_and_side_effect_free(self):
        trace = make_trace().rebased()
        workload = trace_spec(trace).build_workload(seed=5)
        probe_a = workload.sample_keys(1.5, 32)
        probe_b = workload.sample_keys(1.5, 32)
        assert np.array_equal(probe_a, probe_b)
        assert workload.cursor == 0
        assert np.isin(probe_a, trace.keys).all()

    def test_requires_trace(self):
        spec = trace_spec(make_trace())
        spec.trace = None
        with pytest.raises(ConfigurationError):
            TraceWorkload(spec)


class TestTraceSpec:
    def test_mix_matches_histogram(self):
        trace = make_trace()
        spec = trace_spec(trace)
        assert isinstance(spec, TraceWorkloadSpec)
        props = spec.mix.proportions()
        hist = trace.op_histogram()
        for op, share in props.items():
            assert share == pytest.approx(hist[op.value] / trace.n)

    def test_scan_length_mean_from_trace(self):
        trace = make_trace()
        scan_mask = trace.ops == KV_OP_CODES[KVOperation.SCAN]
        expected = int(round(float(trace.scan_lengths[scan_mask].mean())))
        assert trace_spec(trace).scan_length_mean == expected

    def test_describe_embeds_trace_summary(self):
        trace = make_trace()
        info = trace_spec(trace).describe()
        assert info["trace"]["content_hash"] == trace.content_hash()
        assert info["arrivals"]["kind"] == "TraceArrivalProcess"

    def test_single_row_trace_spec_builds(self):
        trace = QueryTrace([1.0], [0], [5.0], [0])
        spec = trace_spec(trace)
        batch = spec.build_workload().next_batch(np.asarray([1.0]))
        assert batch.keys.tolist() == [5.0]


class TestRoundTrip:
    def test_report_is_deterministic(self):
        trace = make_trace(n=400, span=40.0)
        _, _, report_a = round_trip(trace, seed=9)
        _, _, report_b = round_trip(trace, seed=9)
        assert report_a.to_dict() == report_b.to_dict()

    def test_fitted_spec_is_parametric(self):
        trace = make_trace(n=200)
        spec, synthesis, report = round_trip(trace)
        assert "trace" not in spec.describe()
        assert 0.0 <= report.ks_keys <= 1.0
        assert 0.0 <= report.tv_ops <= 1.0
        assert report.phi == pytest.approx(
            0.5 * (report.ks_keys + report.tv_ops)
        )
        assert report.key_fit_ks == synthesis.ks_distance
        assert report.n_trace == trace.n

    def test_requires_two_rows(self):
        trace = QueryTrace([1.0], [0], [5.0], [0])
        with pytest.raises(ConfigurationError):
            round_trip(trace)

    def test_divergence_decreases_with_sample_size(self):
        # Fitted to more observations, the generator reproduces the key
        # distribution more faithfully — the §V-C claim, measured.
        reports = {}
        for n in (150, 4000):
            rng = np.random.default_rng(7)
            ts = np.sort(rng.uniform(0.0, 30.0, n))
            keys = rng.normal(500.0, 80.0, n)
            ops = np.zeros(n, dtype=np.int8)
            trace = QueryTrace(ts, ops, keys, np.zeros(n, dtype=np.int64))
            _, _, reports[n] = round_trip(trace, seed=3)
        assert reports[4000].ks_keys < reports[150].ks_keys

    def test_fit_trace_workload_carries_mix_and_scans(self):
        trace = make_trace(n=300)
        spec, _ = fit_trace_workload(trace)
        hist = trace.op_histogram()
        props = spec.mix.proportions()
        assert props[KVOperation.READ] == pytest.approx(
            hist["read"] / trace.n
        )
        assert spec.scan_length_mean == trace_spec(trace).scan_length_mean
        assert not isinstance(spec.arrivals, TraceArrivalProcess)


# -- hypothesis properties ------------------------------------------------------------


@st.composite
def traces(draw):
    """Small random-but-valid traces."""
    n = draw(st.integers(min_value=2, max_value=40))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    ts = np.cumsum(np.asarray(gaps, dtype=np.float64))
    ops = np.asarray(
        draw(st.lists(st.integers(min_value=0, max_value=4),
                      min_size=n, max_size=n)),
        dtype=np.int8,
    )
    keys = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                          allow_infinity=False),
                min_size=n, max_size=n,
            )
        ),
        dtype=np.float64,
    )
    scans = np.where(
        ops == 3,
        np.asarray(
            draw(st.lists(st.integers(min_value=1, max_value=64),
                          min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        0,
    )
    return QueryTrace(ts, ops, keys, scans, name="hyp")


class TestHypothesisProperties:
    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_csv_round_trip_is_bitwise(self, trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        loaded = load_trace(save_trace(trace, path))
        assert loaded.content_hash() == trace.content_hash()
        for attr in ("timestamps", "ops", "keys", "scan_lengths"):
            assert np.array_equal(getattr(trace, attr), getattr(loaded, attr))

    @settings(max_examples=30, deadline=None)
    @given(trace=traces(), seed=st.integers(min_value=0, max_value=2**31))
    def test_replay_is_deterministic_at_any_seed(self, trace, seed):
        spec = trace_spec(trace.rebased())
        a = spec.build_workload(seed=seed).next_batch(spec.trace.timestamps)
        b = spec.build_workload(seed=seed).next_batch(spec.trace.timestamps)
        for attr in ("ops", "keys", "scan_lengths", "arrivals"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))

    @settings(max_examples=30, deadline=None)
    @given(
        trace=traces(),
        factor=st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    )
    def test_dilation_is_linear_in_timestamps(self, trace, factor):
        rebased = trace.rebased()
        dilated = rebased.dilated(factor)
        assert np.array_equal(dilated.timestamps, rebased.timestamps * factor)
        assert np.array_equal(dilated.keys, rebased.keys)
        assert np.array_equal(dilated.ops, rebased.ops)


class TestConstantArrivalsStillWork:
    def test_build_workload_base_hook(self):
        # The driver hook must hand back a plain KVWorkload for plain specs.
        spec = fit_workload("w", np.linspace(0, 100, 64).tolist())[0]
        workload = spec.build_workload(seed=4)
        assert type(workload) is KVWorkload
        reference = KVWorkload(spec, seed=4)
        times = ConstantArrivals(50.0).arrivals(
            np.random.default_rng(0), 0.0, 1.0, jitter=False
        )
        a = workload.next_batch(times.copy())
        b = reference.next_batch(times.copy())
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.ops, b.ops)
