"""Golden tests: vectorized metric kernels vs the pre-refactor loops.

The reference implementations below are the exact per-interval Python
loops the metric modules shipped before the columnar refactor (with one
deliberate exception: ``ref_recovery_time`` includes the ``before == 0``
→ ``None`` bugfix, which is covered separately in
``test_metric_bugfixes.py``). Every kernel must reproduce
them on randomized runs, empty runs, single-query runs, runs with
completions tied exactly to bucket edges, runs whose rows are not in
arrival order, two-server runs whose completions are not in record
order, and a run with a repeated segment label.

Each kernel is a one-block fold of its online accumulator
(``RunResult.fold``), so these loops are also the oracle for the
accumulators the streaming path folds block by block.

All generated timestamps are dyadic rationals (multiples of 1/64) and
all intervals are powers of two, so the reference loops' float
accumulation is exact and any disagreement is a real kernel bug, not
floating-point noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from tests.result_helpers import assert_same_result, columns_to_rows, rows_to_columns

from repro.core.queueing import fifo_multi_server
from repro.core.results import RunResult
from repro.core.runner import ResultCache
from repro.core.scenario import Scenario, Segment
from repro.metrics.adaptability import (
    area_vs_ideal,
    cumulative_curve,
    latency_timeline,
    recovery_time,
)
from repro.metrics.descriptive import box_stats
from repro.metrics.sla import adjustment_speed, latency_bands, multi_latency_bands
from repro.metrics.specialization import OnlineSegmentStats, specialization_report
from repro.reporting.report import build_report
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec

DURATION = 60.0
INTERVALS = (0.25, 0.5, 1.0, 2.0)


# -- reference implementations (pre-refactor) ----------------------------------------


def _times(result):
    """(arrivals, completions, latencies) as Python-float lists, record order."""
    arrivals = result.columns.arrivals.tolist()
    completions = result.columns.completions.tolist()
    return arrivals, completions, [c - a for a, c in zip(arrivals, completions)]


def ref_throughput_series(result, interval=1.0):
    _, unsorted, _ = _times(result)
    completions = np.asarray(sorted(unsorted))
    horizon = max(result.duration, max(unsorted, default=0.0))
    edges = np.arange(0.0, horizon + interval, interval)
    counts, _ = np.histogram(completions, bins=edges)
    return edges[:-1], counts.astype(np.float64)


def ref_latency_bands(result, sla, interval=1.0):
    completions, latencies = (np.asarray(col) for col in _times(result)[1:])
    horizon = max(result.duration, completions.max() if completions.size else 0.0)
    bands = []
    t = 0.0
    while t < horizon:
        mask = (completions >= t) & (completions < t + interval)
        over = int((latencies[mask] > sla).sum())
        total = int(mask.sum())
        bands.append((t, total - over, over))
        t += interval
    return bands


def ref_multi_latency_bands(result, thresholds, interval=1.0):
    ts = list(thresholds)
    completions, latencies = (np.asarray(col) for col in _times(result)[1:])
    horizon = max(result.duration, completions.max() if completions.size else 0.0)
    edges = np.asarray([0.0] + ts + [np.inf])
    out = []
    t = 0.0
    while t < horizon:
        mask = (completions >= t) & (completions < t + interval)
        counts, _ = np.histogram(latencies[mask], bins=edges)
        out.append((t, counts.astype(int).tolist()))
        t += interval
    return out


def ref_cumulative_curve(result, resolution=1.0):
    completions = np.asarray(sorted(_times(result)[1]))
    horizon = max(result.duration, completions[-1] if completions.size else 0.0)
    times = np.arange(0.0, horizon + resolution, resolution)
    cum = np.searchsorted(completions, times, side="right").astype(np.float64)
    return times, cum


def ref_area_vs_ideal(result, ideal_rate=None, resolution=1.0):
    times, cum = ref_cumulative_curve(result, resolution)
    if times.size == 0 or cum[-1] == 0:
        return 0.0
    horizon = times[-1]
    if ideal_rate is None:
        ideal_rate = cum[-1] / horizon if horizon > 0 else 0.0
    ideal = np.minimum(ideal_rate * times, cum[-1])
    return float(np.trapezoid(ideal - cum, times))


def ref_recovery_time(result, change_time, window=5.0, recovery_fraction=0.9):
    completions = np.asarray(sorted(_times(result)[1]))
    if completions.size == 0:
        return None
    before = np.count_nonzero(
        (completions >= change_time - window) & (completions < change_time)
    )
    if before == 0:  # the bugfix, applied to the reference loop
        return None
    target = recovery_fraction * before
    horizon = max(result.duration, completions[-1])
    t = change_time
    while t + window <= horizon + window:
        count = np.count_nonzero((completions >= t) & (completions < t + window))
        if count >= target:
            return float(t - change_time)
        t += window
    return None


def ref_latency_timeline(result, interval=1.0, percentiles=(50.0, 99.0)):
    completions, latencies = (np.asarray(col) for col in _times(result)[1:])
    horizon = max(result.duration, completions.max() if completions.size else 0.0)
    edges = np.arange(0.0, horizon + interval, interval)
    times = edges[:-1]
    out = {p: np.full(times.size, np.nan) for p in percentiles}
    if completions.size:
        buckets = np.clip(
            (completions / interval).astype(np.int64), 0, times.size - 1
        )
        order = np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        sorted_latencies = latencies[order]
        boundaries = np.searchsorted(sorted_buckets, np.arange(times.size + 1))
        for i in range(times.size):
            chunk = sorted_latencies[boundaries[i] : boundaries[i + 1]]
            if chunk.size:
                for p in percentiles:
                    out[p][i] = float(np.percentile(chunk, p))
    return times, out


def ref_adjustment_speed(result, change_time, n_queries, sla):
    arrivals, _, latencies = _times(result)
    after = sorted(
        ((a, lat) for a, lat in zip(arrivals, latencies) if a >= change_time),
        key=lambda pair: pair[0],
    )[:n_queries]
    return float(sum(max(0.0, lat - sla) for _, lat in after))


def ref_segment_throughputs(result, lo, hi, interval):
    completions = np.asarray([c for c in _times(result)[1] if lo <= c < hi])
    edges = np.arange(lo, hi + interval, interval)
    if edges.size < 2:
        return np.zeros(0)
    counts, _ = np.histogram(completions, bins=edges)
    return counts / interval


def ref_mean_latency(result, lo, hi):
    arrivals, _, latencies = _times(result)
    inside = [lat for a, lat in zip(arrivals, latencies) if lo <= a < hi]
    return float(np.mean(inside)) if inside else 0.0


# -- run generators ------------------------------------------------------------------


def _dyadic(rng, low, high, size):
    """Random multiples of 1/64 in [low, high] — exact float64 values."""
    return rng.integers(int(low * 64), int(high * 64), size=size) / 64.0


def random_run(seed: int, n: int = 250, tie_edges: bool = True) -> RunResult:
    """A random-but-valid run; optionally snaps some completions to bucket edges."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(_dyadic(rng, 0.0, 50.0, n))
    delays = _dyadic(rng, 0.0, 4.0, n)
    services = _dyadic(rng, 0.0, 2.0, n) + 1.0 / 64.0
    starts = arrivals + delays
    completions = starts + services
    if tie_edges:
        # Snap ~20% of completions to exact multiples of every interval
        # under test (multiples of 2.0 cover 0.25/0.5/1.0 too).
        snap = rng.random(n) < 0.2
        completions[snap] = np.ceil(completions[snap] / 2.0) * 2.0
    completions = np.minimum(completions, DURATION - 1.0 / 64.0)
    starts = np.minimum(starts, completions)
    rows = [
        (a, s, c, "read" if i % 3 else "scan", "a" if a < 25.0 else "b")
        for i, (a, s, c) in enumerate(
            zip(arrivals.tolist(), starts.tolist(), completions.tolist())
        )
    ]
    return RunResult(
        sut_name=f"rand-{seed}",
        scenario_name="golden",
        columns=rows_to_columns(rows),
        segments=[("a", 0.0, 25.0), ("b", 25.0, DURATION)],
    )


def empty_run() -> RunResult:
    return RunResult(
        sut_name="empty", scenario_name="golden",
        columns=rows_to_columns([]),
        segments=[("a", 0.0, 10.0)],
    )


def single_query_run() -> RunResult:
    return RunResult(
        sut_name="one", scenario_name="golden",
        columns=rows_to_columns([(1.5, 1.5, 3.0, "read", "a")]),
        segments=[("a", 0.0, 10.0)],
    )


def _run(name, rows, segments=(("a", 0.0, 25.0), ("b", 25.0, DURATION))):
    return RunResult(
        sut_name=name, scenario_name="golden",
        columns=rows_to_columns(rows), segments=segments,
    )


def shuffled_run(seed: int) -> RunResult:
    """``random_run``'s rows in a shuffled record order (arrivals unsorted)."""
    base = random_run(seed)
    rows = columns_to_rows(base.columns)
    order = np.random.default_rng(seed + 1000).permutation(len(rows))
    return _run(f"shuffled-{seed}", [rows[i] for i in order])


def two_server_run(seed: int, n: int = 200) -> RunResult:
    """FIFO over two servers: completions are not in record order."""
    rng = np.random.default_rng(seed)
    arrivals = np.sort(_dyadic(rng, 0.0, 50.0, n))
    services = _dyadic(rng, 0.0, 0.5, n) + 1.0 / 64.0
    starts, completions, _ = fifo_multi_server(arrivals, services, [0.0, 0.0])
    assert (np.diff(completions) < 0).any() and completions.max() < DURATION
    rows = [
        (a, s, c, "read", "a" if a < 25.0 else "b")
        for a, s, c in zip(arrivals.tolist(), starts.tolist(), completions.tolist())
    ]
    return _run(f"two-servers-{seed}", rows)


def repeated_label_run(seed: int) -> RunResult:
    """Segments a, b, a: reports keep the *last* span of label ``a``."""
    base = random_run(seed)
    rows = [
        row[:4] + ["b" if 20.0 <= row[0] < 40.0 else "a"]
        for row in columns_to_rows(base.columns)
    ]
    segments = [("a", 0.0, 20.0), ("b", 20.0, 40.0), ("a", 40.0, DURATION)]
    return _run(f"repeated-label-{seed}", rows, segments)


def all_runs():
    cases = [empty_run(), single_query_run()]
    cases += [random_run(seed) for seed in range(8)]
    cases += [random_run(seed, n=40, tie_edges=False) for seed in (100, 101)]
    cases += [shuffled_run(seed) for seed in (0, 1)]
    cases += [two_server_run(seed) for seed in (0, 1)]
    cases += [repeated_label_run(3)]
    return cases


SPEC = simple_spec("golden", UniformDistribution(0.0, 1.0), rate=1.0)


def scenario_for(segments) -> Scenario:
    """A scenario whose segment boundaries are ``segments``."""
    return Scenario(
        name="golden",
        segments=[
            Segment(spec=SPEC, duration=hi - lo, label=label)
            for label, lo, hi in segments
        ],
    )


RUNS = all_runs()
RUN_IDS = [r.sut_name for r in RUNS]


# -- golden comparisons --------------------------------------------------------------


@pytest.mark.parametrize("result", RUNS, ids=RUN_IDS)
@pytest.mark.parametrize("interval", INTERVALS)
class TestBucketedKernelsMatchReference:
    def test_throughput_series(self, result, interval):
        ref_t, ref_c = ref_throughput_series(result, interval)
        got_t, got_c = result.throughput_series(interval)
        assert np.array_equal(ref_t, got_t)
        assert np.array_equal(ref_c, got_c)

    def test_latency_bands(self, result, interval):
        ref = ref_latency_bands(result, sla=0.5, interval=interval)
        got = latency_bands(result, sla=0.5, interval=interval)
        assert [(b.start, b.within_sla, b.violated) for b in got] == ref

    def test_multi_latency_bands(self, result, interval):
        ref = ref_multi_latency_bands(result, [0.25, 1.0], interval=interval)
        got = multi_latency_bands(result, [0.25, 1.0], interval=interval)
        assert got == ref

    def test_cumulative_curve(self, result, interval):
        ref_t, ref_c = ref_cumulative_curve(result, interval)
        got_t, got_c = cumulative_curve(result, interval)
        assert np.array_equal(ref_t, got_t)
        assert np.array_equal(ref_c, got_c)

    def test_latency_timeline(self, result, interval):
        ref_t, ref_s = ref_latency_timeline(result, interval)
        got_t, got_s = latency_timeline(result, interval)
        assert np.array_equal(ref_t, got_t)
        assert set(ref_s) == set(got_s)
        for p in ref_s:
            assert np.array_equal(ref_s[p], got_s[p], equal_nan=True), p

    def test_specialization_report(self, result, interval):
        spans = {label: (lo, hi) for label, lo, hi in result.segments}  # last wins
        report = specialization_report(
            result, scenario_for(result.segments), interval=interval, phi_sample_size=64
        )
        got = {seg.label: seg for seg in report.segments}
        assert set(got) == set(spans)
        for label, (lo, hi) in spans.items():
            ref = ref_segment_throughputs(result, lo, hi, interval)
            assert got[label].throughput == box_stats(ref if ref.size else np.zeros(1))
            assert got[label].mean_latency == ref_mean_latency(result, lo, hi)


@pytest.mark.parametrize("result", RUNS, ids=RUN_IDS)
class TestScalarKernelsMatchReference:
    def test_area_vs_ideal(self, result):
        assert area_vs_ideal(result) == pytest.approx(
            ref_area_vs_ideal(result), rel=1e-12, abs=1e-12
        )

    @pytest.mark.parametrize("change", (0.0, 10.0, 25.0, 59.0))
    def test_recovery_time(self, result, change):
        ref = ref_recovery_time(result, change, window=2.0)
        got = recovery_time(result, change, window=2.0)
        if ref is None:
            assert got is None
        else:
            assert got == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("change", (0.0, 25.0, 49.5))
    def test_adjustment_speed(self, result, change):
        ref = ref_adjustment_speed(result, change, 50, sla=0.5)
        got = adjustment_speed(result, change, 50, sla=0.5)
        assert got == ref

    def test_segment_throughputs(self, result):
        spans = (("x", 0.0, 25.0), ("y", 25.0, DURATION))
        stats = OnlineSegmentStats(scenario_for(spans), 1.0)
        result.fold(stats)
        for i, (_, lo, hi) in enumerate(spans):
            ref = ref_segment_throughputs(result, lo, hi, 1.0)
            assert np.array_equal(ref, stats.throughputs(i))

    def test_build_report(self, result):
        """The one-fold report reads back every reference number."""
        report = build_report(result, scenario_for(result.segments), sla=0.5)
        assert [
            (b.start, b.within_sla, b.violated) for b in report.bands
        ] == ref_latency_bands(result, sla=0.5)
        _, counts = ref_throughput_series(result)
        mean = counts.mean() if counts.size else 0.0
        cv = float(counts.std() / mean) if mean > 0 else 0.0
        assert report.adaptability.throughput_cv == cv
        assert report.adaptability.area_vs_ideal == pytest.approx(
            ref_area_vs_ideal(result), rel=1e-12, abs=1e-12
        )
        if len(result.segments) > 1:
            change = result.segments[0][2]
            ref = ref_recovery_time(result, change)
            got = report.adaptability.recovery_seconds
            assert got == (None if ref is None else pytest.approx(ref, abs=1e-9))
            assert report.adjustment == ref_adjustment_speed(result, change, 1000, 0.5)
        else:
            assert report.adaptability.recovery_seconds is None
            assert report.adjustment is None
        assert report.render()


class TestClosedLastBin:
    """A completion exactly on the final edge counts in the last bucket.

    Not a ``RUNS`` input: the per-interval band loops above stop before
    the horizon and drop that completion, while ``np.histogram`` (and so
    every kernel) closes the last bin.
    """

    def test_throughput_and_curve_count_the_final_edge(self):
        result = _run(
            "final-edge",
            [(1.0, 1.0, 2.0, "read", "a"), (3.0, 3.0, 12.0, "read", "a")],
            [("a", 0.0, 10.0)],
        )
        for interval in INTERVALS:
            ref_t, ref_c = ref_throughput_series(result, interval)
            got_t, got_c = result.throughput_series(interval)
            assert np.array_equal(ref_t, got_t) and np.array_equal(ref_c, got_c)
            assert got_c[-1] == 1.0
            ref_t, ref_cum = ref_cumulative_curve(result, interval)
            got_t, got_cum = cumulative_curve(result, interval)
            assert np.array_equal(ref_t, got_t) and np.array_equal(ref_cum, got_cum)
            bands = latency_bands(result, sla=0.5, interval=interval)
            assert [b.total for b in bands] == got_c.tolist()


class TestColumnarRepresentations:
    """The two construction paths must be observationally identical."""

    @pytest.mark.parametrize("result", RUNS, ids=RUN_IDS)
    def test_cache_round_trip_is_bit_identical(self, result, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.store("key", result, meta={})
        assert_same_result(cache.load("key"), result)

    def test_columns_round_trip_records(self):
        result = random_run(7)
        rebuilt = RunResult(
            sut_name=result.sut_name,
            scenario_name=result.scenario_name,
            columns=rows_to_columns(columns_to_rows(result.columns)),
            segments=result.segments,
        )
        assert_same_result(rebuilt, result)

    def test_lazy_views_sorted(self):
        result = random_run(11)
        assert (np.diff(result.completions_sorted) >= 0).all()
        order = result.completion_order
        assert np.array_equal(
            result.latencies_sorted, result.columns.latencies[order]
        )
