"""Command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import SCENARIOS, build_parser, main
from repro.core.runner import RunManifest


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "abrupt-shift"
        assert "learned-kv" in args.sut

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "nope"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "osm" in out and "learned-kv" in out and "abrupt-shift" in out

    def test_quality_builtin(self, capsys):
        assert main(["quality", "uniform", "--keys", "5000"]) == 0
        out = capsys.readouterr().out
        assert "grade" in out

    def test_quality_from_file(self, tmp_path, capsys, rng):
        path = tmp_path / "keys.txt"
        np.savetxt(path, rng.lognormal(5, 2, 2000))
        assert main(["quality", str(path)]) == 0
        assert "overall" in capsys.readouterr().out

    def test_run_small(self, capsys):
        code = main([
            "run", "--scenario", "abrupt-shift", "--sut", "btree-kv",
            "--dataset", "uniform", "--keys", "2000",
            "--rate", "100", "--duration", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "btree-kv" in out and "adaptability" in out

    def test_run_unknown_sut(self, capsys):
        code = main([
            "run", "--sut", "no-such-store", "--dataset", "uniform",
            "--keys", "2000", "--rate", "50", "--duration", "2",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flags", [["--shards", "2"], ["--spill-dir", "spill"]]
    )
    def test_run_shards_and_spill_dir_require_stream(self, flags, capsys):
        code = main([
            "run", "--sut", "btree-kv", "--dataset", "uniform",
            "--keys", "2000", "--rate", "50", "--duration", "2",
        ] + flags)
        assert code == 2
        assert "--shards/--spill-dir require --stream" in capsys.readouterr().err

    def test_run_with_export(self, tmp_path, capsys):
        prefix = str(tmp_path / "out")
        code = main([
            "run", "--scenario", "bursty-diurnal", "--sut", "btree-kv",
            "--dataset", "uniform", "--keys", "2000",
            "--rate", "100", "--duration", "4",
            "--export-prefix", prefix,
        ])
        assert code == 0
        queries = (tmp_path / "out-btree-kv-queries.csv").read_text()
        assert queries.startswith("arrival,")

    def test_synthesize(self, tmp_path, capsys, rng):
        trace = tmp_path / "trace.txt"
        np.savetxt(trace, rng.normal(100, 10, 3000))
        out = tmp_path / "synthetic.txt"
        code = main(["synthesize", str(trace), "--out", str(out),
                     "--emit", "500"])
        assert code == 0
        synthetic = np.loadtxt(out)
        assert synthetic.size == 500
        assert 50 < synthetic.mean() < 150

    def test_every_scenario_builder_runs(self, tiny_dataset):
        for name, builder in SCENARIOS.items():
            scenario = builder(tiny_dataset, 50.0, 12.0)
            assert scenario.total_duration > 0, name


class TestRunMatrix:
    SMALL = [
        "--dataset", "uniform", "--keys", "2000",
        "--rate", "100", "--duration", "4",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run-matrix"])
        assert args.workers is None
        assert args.cache_dir == ".repro-cache"
        assert not args.no_cache

    def test_matrix_cold_then_warm(self, tmp_path, capsys):
        argv = [
            "run-matrix", "--scenario", "abrupt-shift",
            "--sut", "btree-kv", "hash-kv", "--seeds", "1", "2",
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(tmp_path / "manifest.json"),
        ] + self.SMALL
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 executed" in out and "0 cached" in out
        manifest = RunManifest.load(str(tmp_path / "manifest.json"))
        assert len(manifest.jobs) == 4
        assert all(j.status == "ok" for j in manifest.jobs)

        assert main(argv) == 0  # second pass: all served from cache
        assert "4 cached" in capsys.readouterr().out

    def test_no_cache_flag(self, tmp_path, capsys):
        argv = [
            "run-matrix", "--sut", "btree-kv", "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ] + self.SMALL
        assert main(argv) == 0
        assert main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().out

    def test_unknown_sut(self, capsys):
        assert main(["run-matrix", "--sut", "no-such"] + self.SMALL) == 2

    def test_drift_factor_parser_default(self):
        assert build_parser().parse_args(["run-matrix"]).drift_factors is None

    def test_drift_factor_sweep_stamps_phi(self, tmp_path, capsys):
        path = str(tmp_path / "manifest.json")
        argv = [
            "run-matrix", "--sut", "btree-kv",
            "--drift-factors", "0.0", "0.5", "1.0",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", path,
        ] + self.SMALL
        assert main(argv) == 0
        out = capsys.readouterr().out
        # One base scenario plus one drift-axis cell per factor.
        for label in ("drift-axis@0", "drift-axis@0.5", "drift-axis@1"):
            assert label in out
        assert "phi=" in out
        manifest = RunManifest.load(path)
        assert len(manifest.jobs) == 4
        axis = {
            j.scenario_name: j.phi for j in manifest.jobs
            if j.scenario_name.startswith("drift-axis")
        }
        assert set(axis) == {"drift-axis@0", "drift-axis@0.5", "drift-axis@1"}
        for phi in axis.values():
            assert {"phi", "phi_data", "phi_workload"} <= set(phi)
        # Φ between first and last segment shrinks as the blend
        # approaches the base workload.
        assert axis["drift-axis@0"]["phi"] < axis["drift-axis@1"]["phi"]

    def test_drift_factor_phi_survives_cache_hits(self, tmp_path, capsys):
        path = str(tmp_path / "manifest.json")
        argv = [
            "run-matrix", "--sut", "btree-kv", "--drift-factors", "0.5",
            "--cache-dir", str(tmp_path / "cache"), "--manifest", path,
        ] + self.SMALL
        assert main(argv) == 0
        first = {
            j.scenario_name: j.phi for j in RunManifest.load(path).jobs
        }
        capsys.readouterr()
        assert main(argv) == 0  # warm pass: all cached
        assert "cached" in capsys.readouterr().out
        second = {
            j.scenario_name: j.phi for j in RunManifest.load(path).jobs
        }
        assert first == second

    def test_drift_factor_out_of_range(self, capsys):
        argv = [
            "run-matrix", "--sut", "btree-kv", "--drift-factors", "1.5",
        ] + self.SMALL
        assert main(argv) == 2
        assert "must be in [0, 1]" in capsys.readouterr().err


class TestTraceCommand:
    SMALL = [
        "--dataset", "uniform", "--keys", "2000",
        "--rate", "100", "--duration", "4",
    ]

    def _write_manifest(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        assert main([
            "run-matrix", "--sut", "btree-kv", "learned-kv",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", path,
        ] + self.SMALL) == 0
        return path

    def test_rollup(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        capsys.readouterr()
        assert main(["trace", path]) == 0
        out = capsys.readouterr().out
        assert "traced jobs: 2/2" in out
        for phase in ("train", "adapt", "serve", "report"):
            assert phase in out
        assert "driver.queries" in out
        assert "kv.read_runs" in out

    def test_per_job_rows(self, tmp_path, capsys):
        path = self._write_manifest(tmp_path)
        capsys.readouterr()
        assert main(["trace", path, "--jobs"]) == 0
        out = capsys.readouterr().out
        assert "per-job phase seconds" in out
        assert "btree-kv×abrupt-shift" in out

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_non_manifest_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"broken": true}')
        assert main(["trace", str(path)]) == 2
        assert "not a run-matrix manifest" in capsys.readouterr().err

    def test_untraced_manifest(self, tmp_path, capsys):
        """A manifest whose jobs were all cache hits still renders."""
        path = self._write_manifest(tmp_path)
        capsys.readouterr()
        assert main([
            "run-matrix", "--sut", "btree-kv", "learned-kv",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", path,
        ] + self.SMALL) == 0
        capsys.readouterr()
        assert main(["trace", path, "--jobs"]) == 0
        out = capsys.readouterr().out
        assert "traced jobs: 0/2" in out


class TestScenarioFiles:
    def test_save_then_load_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "scenario.json")
        assert main([
            "run", "--scenario", "abrupt-shift", "--sut", "btree-kv",
            "--dataset", "uniform", "--keys", "2000",
            "--rate", "50", "--duration", "2",
            "--save-scenario", path,
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", "--sut", "btree-kv", "--dataset", "uniform",
            "--keys", "2000", "--scenario-file", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "loaded scenario" in out and "fingerprint" in out

    def test_sla_baseline_calibrates_on_the_loaded_scenario(self, tmp_path, capsys):
        from repro.core.benchmark import Benchmark
        from repro.data.datasets import build_dataset
        from repro.metrics.sla import calibrate_sla
        from repro.serialization import scenario_from_dict
        from repro.suts.kv_traditional import TraditionalKVStore

        path = tmp_path / "scenario.json"
        small = ["--sut", "btree-kv", "--dataset", "uniform", "--keys", "2000"]
        assert main([
            "run", "--scenario", "bursty-diurnal", "--rate", "400",
            "--duration", "4", "--save-scenario", str(path),
        ] + small) == 0
        capsys.readouterr()
        assert main(
            ["run", "--scenario-file", str(path), "--sla-baseline"] + small
        ) == 0
        out = capsys.readouterr().out
        keys = build_dataset("uniform", n=2000, seed=7).keys
        loaded = scenario_from_dict(json.loads(path.read_text()), initial_keys=keys)
        sla = calibrate_sla(
            Benchmark().run(TraditionalKVStore(), loaded),
            percentile=99.0, headroom=1.5,
        )
        assert f"SLA calibrated from btree baseline: {sla*1000:.3f} ms" in out


class TestReplayCommand:
    FIXTURE = str(Path(__file__).parent / "fixtures" / "trace_small.csv")

    def test_parser_defaults(self):
        args = build_parser().parse_args(["replay", self.FIXTURE])
        assert args.sut == ["btree-kv"]
        assert args.dilate == 1.0
        assert not args.fit
        assert args.export_spec is None

    def test_replay_basic(self, capsys):
        assert main(["replay", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "640 queries" in out
        assert "btree-kv" in out
        assert "mean throughput" in out

    def test_replay_with_fit_and_export(self, tmp_path, capsys):
        spec_path = tmp_path / "fitted.json"
        code = main([
            "replay", self.FIXTURE, "--fit",
            "--export-spec", str(spec_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "synthesizer round trip" in out
        assert "stream KS (keys)" in out
        payload = json.loads(spec_path.read_text())
        assert payload["name"] == "trace_small-fit"
        assert "trace" not in payload  # fitted spec is fully parametric

    def test_replay_truncation_and_dilation(self, capsys):
        code = main([
            "replay", self.FIXTURE, "--max-queries", "100",
            "--dilate", "2.0",
        ])
        assert code == 0
        assert "replaying 100 queries" in capsys.readouterr().out

    def test_replay_missing_file(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "nope.csv")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_replay_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,op,key\n1.0,read,1.0\n0.5,read,2.0\n")
        assert main(["replay", str(bad)]) == 2
        assert "non-decreasing" in capsys.readouterr().err

    def test_replay_unknown_sut(self, capsys):
        assert main(["replay", self.FIXTURE, "--sut", "no-such"]) == 2

    def test_run_matrix_trace_cell(self, tmp_path, capsys):
        code = main([
            "run-matrix", "--sut", "btree-kv",
            "--trace", self.FIXTURE, "--no-cache",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "btree-kv×replay:trace_small" in out
        assert "1 executed" in out

    def test_run_matrix_trace_parser_defaults(self):
        args = build_parser().parse_args(["run-matrix"])
        assert args.trace is None
        assert args.trace_dilate == 1.0
        assert args.scenario is None
