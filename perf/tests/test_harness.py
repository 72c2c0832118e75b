"""Self-tests of the benchmark harness.

Run with ``python -m pytest perf/tests -q`` (not collected by tier-1:
``testpaths = ["tests"]``). They prove the checks can fail, the proxy
SUT changes nothing, the span arithmetic adds up, the compare rule
gives each verdict, and every workload runs end to end at 1/50 size.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import checks, layers, run, stats, worker  # noqa: E402
from perf import entrypoints as ep  # noqa: E402
from perf.tracing import NoTracing, ProxySUT, SpanRecorder  # noqa: E402
from perf.workloads import WORKLOADS, ServeSharded, Workload, WriteMix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 1 / 50


# -- stats ------------------------------------------------------------------------------


def test_summarize_reports_median_quartiles_min_and_count():
    out = stats.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert out == {"value": 3.0, "q1": 1.5, "q3": 4.5, "min": 1.0, "n": 5}
    assert stats.quartiles([7.0]) == (7.0, 7.0)
    assert stats.spread([90.0, 100.0, 110.0]) == pytest.approx(0.2)


def steady(centre, n=10, wobble=0.004, first_seed=0):
    """Runs keyed by identity ``(seed, seconds, repeat)``."""
    return {
        (first_seed + i, 16, 0): centre * (1 + wobble * ((i % 5) - 2)) for i in range(n)
    }


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        (steady(100), steady(100.5), "lower", "unchanged"),
        (steady(100), steady(115), "lower", "regressed"),
        (steady(100), steady(85), "higher", "regressed"),
        (steady(100), steady(90), "lower", "better"),
        (steady(100), steady(110), "higher", "better"),
        # Too few pairs to claim a gain, however large.
        (steady(100, n=3), steady(80, n=3), "lower", "unchanged"),
        # Spread wider than the bound and the runs overlap.
        (steady(100, wobble=0.08), steady(102, wobble=0.08), "lower", "unresolved"),
        # Same spread, but every run of the change beats every parent run.
        (steady(100, wobble=0.08), steady(60, wobble=0.08), "lower", "better"),
        # Other seeds on the change side: no pairs, so no gain and no "unchanged" ...
        (steady(100), steady(90, first_seed=10), "lower", "unresolved"),
        (steady(100), steady(100, n=9), "lower", "unresolved"),
        # ... but a median past the bound is a regression whatever the pairing.
        (steady(100), steady(115, first_seed=10), "lower", "regressed"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert stats.verdict(parent, change, better, bound=0.10) == expected


def test_compare_pairs_runs_by_seed_seconds_and_repeat_not_by_position():
    def record(seed, value, seconds=16):
        return {
            "workload": "write_mix",
            "trace": 0,
            "seed": seed,
            "seconds": seconds,
            "metrics": {"us_per_query": {"value": value}},
        }

    # Seed s costs 100 + s; the change is 1 % faster on every seed but was
    # appended in the opposite order, so position-wise it wins only half.
    parent = run.grouped([record(s, 100.0 + s) for s in range(10)])
    change = run.grouped([record(s, (100.0 + s) * 0.99) for s in reversed(range(10))])
    key = ("write_mix", "us_per_query")
    assert parent[key].keys() == change[key].keys()
    assert all(change[key][r] < parent[key][r] for r in parent[key])
    again = run.grouped([record(3, 1.0), record(3, 2.0), record(3, 3.0, seconds=8)])
    assert again[key] == {(3, 16, 0): 1.0, (3, 16, 1): 2.0, (3, 8, 0): 3.0}


# -- output checks ------------------------------------------------------------------------


def good_columns(n=50):
    arrivals = np.arange(n, dtype=np.float64)
    starts = arrivals + 0.1
    return SimpleNamespace(
        arrivals=arrivals,
        starts=starts,
        completions=starts + 0.5,
        op_codes=np.zeros(n, dtype=np.int32),
        segment_codes=np.zeros(n, dtype=np.int32),
        op_vocab=("read",),
        segment_vocab=("s",),
    )


def test_digest_is_stable_and_sensitive_to_one_ulp():
    assert checks.digest(good_columns()) == checks.digest(good_columns())
    bumped = good_columns()
    bumped.completions[17] = np.nextafter(bumped.completions[17], np.inf)
    assert checks.digest(bumped) != checks.digest(good_columns())


def test_invariant_checker_accepts_good_and_rejects_corrupted_columns():
    assert checks.column_errors(good_columns(), 50) == []

    swapped = good_columns()
    swapped.completions[[10, 11]] = swapped.completions[[11, 10]]
    assert any("FIFO" in e for e in checks.column_errors(swapped, 50))

    early = good_columns()
    early.starts[5] = early.arrivals[5] - 1e-9
    assert any("before it arrives" in e for e in checks.column_errors(early, 50))

    dropped = good_columns(49)
    assert any("projected" in e for e in checks.column_errors(dropped, 50))

    instant = good_columns()
    instant.completions[3] = instant.starts[3]
    assert any("no later" in e for e in checks.column_errors(instant, 50))


# -- tracing ------------------------------------------------------------------------------


def test_spans_nest_and_dump():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("run") as run_span:  # 0 .. 7
        with rec.span("a"):  # 1 .. 2
            pass
        with rec.span("b") as b:  # 3 .. 6
            with rec.span("a") as inner:  # 4 .. 5
                pass
    assert rec.duration(run_span) == 7.0 and rec.duration(b) == 3.0
    assert rec.spans[inner][1] == b and rec.spans[b][1] == run_span
    assert rec.total("a") == 2.0 and rec.count("a") == 2
    assert rec.dump()[0] == {"name": "run", "parent": None, "start": 0.0, "end": 7.0}


class TwoLayers(Workload):
    """A run of 7 s with two layers measured inside it and one outside."""

    @staticmethod
    @layers.provides("suts.execute_batch_s")
    def sut(ctx):
        return {"suts.execute_batch_s": 3.0}

    @staticmethod
    @layers.provides("queueing.fifo_s")
    def fifo(ctx):
        if ctx.moved:
            raise ep.Unavailable("fifo_single_server moved")
        return {"queueing.fifo_s": 1.5}

    @staticmethod
    @layers.provides("metrics.report_s")
    def report(ctx):
        return {"metrics.report_s": 100.0}

    inside_run = ("suts.execute_batch_s", "queueing.fifo_s")

    def __init__(self, moved=False):
        self.probes = (self.sut, self.fifo, self.report)
        self.moved = moved

    def context(self, tr, outcome):
        return SimpleNamespace(moved=self.moved, metrics={"driver.run_s": 7.0})


def test_driver_self_time_plus_the_layers_inside_the_run_equals_the_run():
    metrics, missing = TwoLayers().layers(None, None)
    assert missing == {}
    inside = metrics["suts.execute_batch_s"] + metrics["queueing.fifo_s"]
    assert metrics["driver.self_s"] + inside == metrics["driver.run_s"] == 7.0
    assert metrics["driver.self_share"] == 2.5 / 7.0
    # Without one of the layers the residual would be a lie, so it is withheld.
    metrics, missing = TwoLayers(moved=True).layers(None, None)
    assert set(missing) == {"queueing.fifo_s", "driver.self_s", "driver.self_share"}
    assert "driver.self_s" not in metrics


def test_proxy_sut_is_bit_identical_to_the_bare_sut(tmp_path):
    workload = WriteMix(seed=3, scale=SCALE, workdir=tmp_path)
    bare_sut = ep.TraditionalKVStore()
    bare = ep.Benchmark().run(bare_sut, workload.scenario)
    rec = SpanRecorder()
    proxy = ProxySUT(ep.TraditionalKVStore(), rec, ep.READ_CODE)
    proxied = ep.Benchmark().run(proxy, workload.scenario)
    assert checks.digest(proxied.columns) == checks.digest(bare.columns)
    assert proxied.sut_description == bare.sut_description
    assert proxy.wrapped.index.stats == bare_sut.index.stats
    counts = proxy.counters()
    assert counts["suts.execute_batch_calls"] == rec.count("suts.execute_batch") >= 1
    assert counts["suts.queries_per_call"] * counts["suts.execute_batch_calls"] == (
        bare.num_queries
    )
    assert rec.count("suts.setup") == 1


# -- tally ------------------------------------------------------------------------------


class Scripted(Workload):
    """A workload whose checks do as the test says."""

    name = "scripted"

    def __init__(self, verdicts, final=None):
        self.verdicts = iter(verdicts)
        if final is not None:
            self.final_check = final

    def run_op(self, inputs, tr):
        return SimpleNamespace(queries=10)

    def check(self, outcome):
        verdict = next(self.verdicts)
        if isinstance(verdict, Exception):
            raise verdict
        return verdict


def test_a_check_or_final_check_that_raises_is_a_failed_op_not_a_crash():
    def final(digest):
        raise AttributeError("'NoneType' object has no attribute 'summary'")

    tally = worker.Tally(Scripted([("d1", 0, []), KeyError("sharding")], final))
    for _ in range(2):
        tally.judge(tally.execute(NoTracing()))
    tally.finish()
    result = tally.result({})
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert not result["correct"]
    assert "check raised KeyError" in result["errors"][0]
    assert "final check raised AttributeError" in result["errors"][1]


def test_a_failed_ops_digest_is_never_the_reference():
    tally = worker.Tally(Scripted([("", 1, ["ledger"]), ("d1", 0, []), ("d1", 0, [])]))
    for _ in range(3):
        tally.judge(tally.execute(NoTracing()))
    tally.finish()  # no final check defined: not an op
    assert (tally.attempted, tally.failed, tally.digest) == (3, 1, "d1")
    assert tally.errors == ["ledger"]


def test_the_timed_loop_keeps_its_floor_of_nine_ops_when_time_is_up():
    assert worker.MIN_OPS >= 9
    tally = worker.Tally(Scripted([("d1", 0, [])] * worker.MIN_OPS))
    worker.timed_loop(tally, NoTracing(), 0.0, tally.judge)
    assert len(tally.wall_us) == tally.attempted == worker.MIN_OPS
    assert tally.failed == 0


# -- workloads ----------------------------------------------------------------------------


def test_every_workload_runs_at_one_fiftieth_size(tmp_path, monkeypatch):
    # The floor has its own test; three ops each keep this one quick.
    monkeypatch.setattr(worker, "MIN_OPS", 3)
    wanted = {m["name"] for m in SPEC["end_to_end"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    start = time.perf_counter()
    for name in WORKLOADS:
        result = worker.measure(name, 7, 0.0, SCALE, tmp_path, time.time())
        assert result["correct"] and result["failed"] == 0, result["errors"]
        assert result["attempted"] >= worker.MIN_OPS + 1
        assert set(result["metrics"]) == wanted
        assert all(m["value"] > 0 for m in result["metrics"].values())
        repeat = worker.measure(name, 7, 0.0, SCALE, tmp_path, time.time())
        assert repeat["sim_digest"] == result["sim_digest"]
    assert time.perf_counter() - start < 15.0
    assert not any(tmp_path.iterdir()), "a workload left files behind"


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    wanted = {m["name"] for m in SPEC["per_layer"]}
    seen = set()
    for name in WORKLOADS:
        result = worker.trace(name, 7, 0.0, SCALE, tmp_path)
        assert result["correct"], result["errors"]
        assert result["unavailable"] == {}
        assert set(result["metrics"]) <= wanted
        if name != "drift_stream":  # its spill term is a noisy paired difference
            assert result["metrics"]["driver.self_s"]["value"] >= 0.0
        assert 0.9 <= result["accounted_share"] <= 1.0
        seen |= set(result["metrics"])
    assert seen == wanted


def test_a_moved_layer_symbol_is_unavailable_not_a_failure(tmp_path, monkeypatch):
    monkeypatch.setitem(ep.PROBES, "fifo_single_server", "repro.core.queueing:gone")
    result = worker.trace("write_mix", 7, 0.0, SCALE, tmp_path)
    assert result["correct"]
    assert "queueing.fifo_s" in result["unavailable"]
    assert "driver.self_s" in result["unavailable"]
    assert "suts.execute_batch_s" in result["metrics"]


def test_a_failing_check_counts_as_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "column_errors", lambda columns, n: ["injected"])
    result = worker.measure("write_mix", 7, 0.0, SCALE, tmp_path, time.time())
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["errors"][0] == "injected"



def test_serve_final_check_skips_a_sampled_tenant_without_a_summary(tmp_path):
    workload = ServeSharded(seed=7, scale=SCALE, workdir=tmp_path)
    assert workload.final_check(None) == []  # no window was ever checked
    gone = [SimpleNamespace(summary=None)] * workload.TENANTS
    workload._last_report = SimpleNamespace(tenants=gone)
    assert workload.final_check(None) == []
    workload._last_report = SimpleNamespace(tenants=gone[: workload.sampled])
    assert workload.final_check(None) == []
