"""``tools/bench_ledger.py``: folding a compare pair and gating on its tree."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def ledger():
    # perf/run.py caps threads in os.environ on import; keep that out of
    # the rest of the session.
    saved = dict(os.environ)
    path = os.path.join(REPO_ROOT, "tools", "bench_ledger.py")
    spec = importlib.util.spec_from_file_location("bench_ledger", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    os.environ.clear()
    os.environ.update(saved)
    return module


def _records(side, us_per_query, seeds=range(1, 12), digest="d"):
    return [
        {
            "workload": "drift_stream",
            "seed": seed,
            "seconds": 14,
            "trace": 0,
            "sim_digest": f"{digest}{seed}",
            "metrics": {
                "us_per_query": {"value": us_per_query + 0.01 * seed, "unit": "us"},
                "peak_rss_mb": {"value": 75.0, "unit": "MB"},
            },
            "host": {"commit": side, "python": "3.11", "numpy": "2.4", "nproc": 2},
        }
        for seed in seeds
    ]


def test_fold_summarises_both_sides_per_workload_metric(ledger):
    spec = ledger.load_spec()
    entry = ledger.fold(
        _records("abc", 1.6), _records("unknown", 1.1), spec, 7, "claim", "tree"
    )
    assert (entry["pr"], entry["parent_commit"], entry["src_tree"]) == (7, "abc", "tree")
    assert entry["seeds"] == list(range(1, 12))
    us = entry["workloads"]["drift_stream"]["us_per_query"]
    assert us["parent"]["n"] == us["change"]["n"] == us["pairs"] == 11
    assert us["parent"]["median"] == pytest.approx(1.66)
    assert us["change"]["q1"] <= us["change"]["median"] <= us["change"]["q3"]
    assert (us["pairs_won"], us["verdict"]) == (11, "better")
    assert entry["workloads"]["drift_stream"]["peak_rss_mb"]["verdict"] == "unchanged"
    assert entry["sim_digest"] == {"drift_stream": "d1"}
    assert entry["sim_digest_identical"]
    changed = ledger.fold(
        _records("abc", 1.6), _records("x", 1.6, digest="e"), spec, 7, "c", "t"
    )
    assert not changed["sim_digest_identical"]


def test_check_requires_the_last_record_to_be_head_src(ledger, tmp_path, monkeypatch):
    path = tmp_path / "BENCH_perf.json"
    monkeypatch.setattr(ledger, "LEDGER", path)
    monkeypatch.setattr(ledger, "git", lambda *args: "head-tree")
    assert ledger.main(["check"]) == 1
    path.write_text(json.dumps([{"src_tree": "head-tree"}, {"src_tree": "old"}]))
    assert ledger.main(["check"]) == 1
    path.write_text(json.dumps([{"src_tree": "old"}, {"src_tree": "head-tree"}]))
    assert ledger.main(["check"]) == 0
