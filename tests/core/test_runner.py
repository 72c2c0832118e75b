"""The matrix runner: determinism, caching, invalidation, failures."""

from __future__ import annotations

import io
import json
import struct
import zipfile

import numpy as np
import pytest
from tests.result_helpers import assert_same_result

from repro.core.driver import DriverConfig
from repro.core.runner import (
    CACHE_FORMAT,
    MatrixJob,
    MatrixRunner,
    ResultCache,
    RunManifest,
    job_cache_key,
    matrix_jobs,
)
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.errors import RunnerError
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


class CountingSUT(SystemUnderTest):
    """Deterministic SUT whose service time depends on the query key."""

    def __init__(self, name: str = "counting", scale: float = 1.0) -> None:
        super().__init__(name)
        self.scale = scale

    def setup(self, pairs):
        self.n = len(pairs)

    def execute(self, query, now):
        return 1e-4 * self.scale * (1.0 + (query.key or 0.0) % 3)

    def describe(self):
        return {"name": self.name, "class": "CountingSUT", "scale": self.scale}


class ExplodingSUT(SystemUnderTest):
    """Raises at query time — exercises in-worker failure reporting."""

    def __init__(self) -> None:
        super().__init__("exploding")

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        raise RuntimeError("boom at query time")


def _raising_factory():
    raise ValueError("factory cannot build")


def _edit_header(path, **changes):
    """Rewrite a cache entry's JSON header; a ``None`` value deletes the key."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    raw = np.lib.format.read_array(io.BytesIO(members["header.npy"]))
    header = json.loads(raw.tobytes())
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    out = io.BytesIO()
    encoded = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.lib.format.write_array(out, encoded)
    members["header.npy"] = out.getvalue()
    with zipfile.ZipFile(path, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)


def _scenario(rate=60.0, duration=3.0, seed=5, name="matrix-test"):
    return Scenario(
        name=name,
        segments=[
            Segment(
                spec=simple_spec("s0", UniformDistribution(0, 100), rate=rate),
                duration=duration,
            )
        ],
        seed=seed,
    )


class TestJobBuilding:
    def test_cartesian_product(self):
        jobs = matrix_jobs(
            {"a": CountingSUT, "b": CountingSUT},
            [_scenario(name="x"), _scenario(name="y")],
            seeds=[1, 2, 3],
        )
        assert len(jobs) == 2 * 2 * 3
        assert jobs[0].label == "a×x#s1"

    def test_seed_override_applied(self):
        job = MatrixJob(sut_factory=CountingSUT, scenario=_scenario(seed=5), seed=9)
        assert job.resolved_scenario().seed == 9
        assert job.scenario.seed == 5  # original untouched

    def test_no_seeds_keeps_scenario_seed(self):
        jobs = matrix_jobs({"a": CountingSUT}, [_scenario(seed=5)])
        assert len(jobs) == 1
        assert jobs[0].resolved_scenario().seed == 5


class TestDeterminism:
    def test_parallel_identical_to_serial(self):
        jobs = matrix_jobs(
            {"counting": CountingSUT}, [_scenario()], seeds=[1, 2, 3, 4]
        )
        serial = MatrixRunner(workers=1).run(jobs)
        parallel = MatrixRunner(workers=4).run(jobs)
        assert all(r is not None for r in serial.results)
        for a, b in zip(serial.results, parallel.results):
            assert_same_result(a, b)

    def test_results_aligned_with_jobs(self):
        jobs = matrix_jobs({"counting": CountingSUT}, [_scenario()], seeds=[7, 8])
        outcome = MatrixRunner(workers=2).run(jobs)
        for job, record in zip(jobs, outcome.manifest.jobs):
            assert record.seed == job.seed
        assert [r.scenario_name for r in outcome.manifest.jobs] == [
            "matrix-test",
            "matrix-test",
        ]


class TestCaching:
    def test_hit_on_unchanged_inputs(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"counting": CountingSUT}, [_scenario()], seeds=[1, 2])
        cold = MatrixRunner(cache_dir=cache).run(jobs)
        warm = MatrixRunner(cache_dir=cache).run(jobs)
        assert cold.manifest.executed == 2 and cold.manifest.hits == 0
        assert warm.manifest.hits == 2 and warm.manifest.executed == 0
        for a, b in zip(cold.results, warm.results):
            assert_same_result(a, b)

    def test_invalidated_by_driver_config(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"counting": CountingSUT}, [_scenario()])
        MatrixRunner(cache_dir=cache).run(jobs)
        changed = MatrixRunner(
            driver_config=DriverConfig(servers=2), cache_dir=cache
        ).run(jobs)
        assert changed.manifest.hits == 0 and changed.manifest.executed == 1

    def test_invalidated_by_scenario_change(self, tmp_path):
        cache = str(tmp_path / "cache")
        runner = MatrixRunner(cache_dir=cache)
        runner.run(matrix_jobs({"c": CountingSUT}, [_scenario(rate=60.0)]))
        changed = runner.run(matrix_jobs({"c": CountingSUT}, [_scenario(rate=61.0)]))
        assert changed.manifest.hits == 0 and changed.manifest.executed == 1

    def test_invalidated_by_seed(self, tmp_path):
        cache = str(tmp_path / "cache")
        runner = MatrixRunner(cache_dir=cache)
        runner.run(matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[1]))
        changed = runner.run(matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[2]))
        assert changed.manifest.hits == 0

    def test_invalidated_by_sut_description(self):
        config = DriverConfig()
        job = MatrixJob(sut_factory=CountingSUT, scenario=_scenario())
        a = job_cache_key(job, config, CountingSUT(scale=1.0).describe())
        b = job_cache_key(job, config, CountingSUT(scale=2.0).describe())
        assert a != b

    def test_no_cache_flag_forces_execution(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()])
        MatrixRunner(cache_dir=cache).run(jobs)
        forced = MatrixRunner(cache_dir=None).run(jobs)
        assert forced.manifest.executed == 1 and forced.manifest.hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()])
        cold = MatrixRunner(cache_dir=cache).run(jobs)
        key = cold.manifest.jobs[0].cache_key
        with open(ResultCache(cache).path(key), "w") as handle:
            handle.write("{ torn write")
        again = MatrixRunner(cache_dir=cache).run(jobs)
        assert again.manifest.executed == 1
        assert_same_result(again.results[0], cold.results[0])

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        """An entry written under another schema version is not served."""
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()])
        cold = MatrixRunner(cache_dir=cache).run(jobs)
        key = cold.manifest.jobs[0].cache_key
        path = ResultCache(cache).path(key)
        _edit_header(path, format=CACHE_FORMAT)
        assert_same_result(ResultCache(cache).load(key), cold.results[0])
        _edit_header(path, format=CACHE_FORMAT + 1)
        assert ResultCache(cache).load(key) is None
        again = MatrixRunner(cache_dir=cache).run(jobs)
        assert again.manifest.executed == 1 and again.manifest.hits == 0

    def test_missing_format_field_is_a_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()])
        cold = MatrixRunner(cache_dir=cache).run(jobs)
        key = cold.manifest.jobs[0].cache_key
        _edit_header(ResultCache(cache).path(key), format=None)
        assert ResultCache(cache).load(key) is None


class TestDamagedCacheEntry:
    """Any damaged entry is a miss or loads bit-identical; load never raises."""

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
        outcome = MatrixRunner(workers=1).run(
            matrix_jobs({"c": CountingSUT}, [_scenario()])
        )
        result = outcome.results[0]
        cache.store("key", result, meta={"label": "c"})
        with open(cache.path("key"), "rb") as handle:
            return cache, result, handle.read()

    def _check(self, stored, damaged):
        cache, result, _ = stored
        with open(cache.path("key"), "wb") as handle:
            handle.write(damaged)
        loaded = cache.load("key")
        if loaded is not None:
            assert_same_result(loaded, result)
        return loaded is None

    def test_truncations(self, stored):
        data = stored[2]
        misses = [self._check(stored, data[:size]) for size in range(0, len(data), 13)]
        assert all(misses)

    def test_bit_flips_in_central_directory(self, stored):
        data = stored[2]
        end = data.rindex(b"PK\x05\x06")
        (start,) = struct.unpack_from("<I", data, end + 16)
        misses = 0
        for offset in range(start, len(data)):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << (offset % 8)
            misses += self._check(stored, bytes(damaged))
        assert 0 < misses < len(data) - start

    def test_bit_flips_in_data(self, stored):
        data = stored[2]
        (start,) = struct.unpack_from("<I", data, data.rindex(b"PK\x05\x06") + 16)
        rng = np.random.default_rng(0)
        for offset in rng.choice(start, size=64, replace=False):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << int(rng.integers(8))
            self._check(stored, bytes(damaged))


class TestFailureReporting:
    def test_in_worker_failure_marked_and_matrix_completes(self):
        jobs = [
            MatrixJob(sut_factory=CountingSUT, scenario=_scenario(), label="good"),
            MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario(), label="bad"),
            MatrixJob(sut_factory=CountingSUT, scenario=_scenario(), label="good2"),
        ]
        outcome = MatrixRunner(workers=2).run(jobs)
        statuses = {j.label: j.status for j in outcome.manifest.jobs}
        assert statuses == {"good": "ok", "bad": "failed", "good2": "ok"}
        bad = outcome.manifest.jobs[1]
        assert "boom at query time" in bad.error
        assert outcome.results[0] is not None and outcome.results[1] is None
        with pytest.raises(RunnerError, match="bad"):
            outcome.raise_on_failure()

    def test_error_includes_traceback_tail(self):
        """A worker failure reports *where* it raised, not just what."""
        jobs = [MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario())]
        outcome = MatrixRunner().run(jobs)
        error = outcome.manifest.jobs[0].error
        assert error.startswith("RuntimeError: boom at query time")
        assert "test_runner.py" in error  # frame where execute() raised
        assert "raise RuntimeError" in error

    def test_factory_failure_marked(self):
        jobs = [
            MatrixJob(sut_factory=_raising_factory, scenario=_scenario(), label="f"),
            MatrixJob(sut_factory=CountingSUT, scenario=_scenario(), label="ok"),
        ]
        outcome = MatrixRunner().run(jobs)
        assert outcome.manifest.jobs[0].status == "failed"
        assert "factory cannot build" in outcome.manifest.jobs[0].error
        assert outcome.manifest.jobs[1].status == "ok"

    def test_failed_jobs_never_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = [MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario())]
        MatrixRunner(cache_dir=cache).run(jobs)
        again = MatrixRunner(cache_dir=cache).run(jobs)
        assert again.manifest.hits == 0
        assert again.manifest.jobs[0].status == "failed"

    def test_empty_matrix(self):
        outcome = MatrixRunner().run([])
        assert outcome.results == [] and outcome.manifest.jobs == []


class TestManifest:
    def test_roundtrip(self, tmp_path):
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[1, 2])
        outcome = MatrixRunner(cache_dir=str(tmp_path / "cache")).run(jobs)
        path = str(tmp_path / "manifest.json")
        outcome.manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == outcome.manifest.to_dict()
        # The file is plain JSON (observability contract).
        with open(path) as handle:
            data = json.load(handle)
        assert {j["status"] for j in data["jobs"]} == {"ok"}

    def test_records_wall_time_and_worker(self):
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[1, 2])
        outcome = MatrixRunner(workers=2).run(jobs)
        for record in outcome.manifest.jobs:
            assert record.wall_seconds > 0
            assert record.worker > 0

    def test_named_view(self):
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[1, 2])
        named = MatrixRunner().run(jobs).named()
        assert set(named) == {"c×matrix-test#s1", "c×matrix-test#s2"}


class TestTelemetry:
    """Per-job traces on the manifest and the matrix-wide rollup."""

    def test_executed_jobs_carry_traces(self):
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[1, 2])
        outcome = MatrixRunner(workers=2).run(jobs)
        for record in outcome.manifest.jobs:
            assert record.trace is not None
            assert record.trace["spans"], "trace should hold the span forest"
        telemetry = outcome.manifest.telemetry()
        assert telemetry["traced_jobs"] == 2
        # Two jobs of the same scenario: counters double a single run's.
        queries = outcome.results[0].num_queries + outcome.results[1].num_queries
        assert telemetry["counters"]["driver.queries"] == queries
        assert telemetry["phase_seconds"]["serve"] > 0.0

    def test_cached_jobs_have_no_trace(self, tmp_path):
        cache = str(tmp_path / "cache")
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()])
        MatrixRunner(cache_dir=cache).run(jobs)
        warm = MatrixRunner(cache_dir=cache).run(jobs)
        record = warm.manifest.jobs[0]
        assert record.status == "cached" and record.trace is None
        assert warm.manifest.telemetry()["traced_jobs"] == 0

    def test_failed_jobs_have_no_trace(self):
        jobs = [MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario())]
        outcome = MatrixRunner().run(jobs)
        assert outcome.manifest.jobs[0].trace is None

    def test_telemetry_survives_manifest_roundtrip(self, tmp_path):
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[3])
        outcome = MatrixRunner().run(jobs)
        path = str(tmp_path / "manifest.json")
        outcome.manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.telemetry() == outcome.manifest.telemetry()
        with open(path) as handle:
            data = json.load(handle)
        assert data["telemetry"] == outcome.manifest.telemetry()

    def test_serial_and_parallel_telemetry_counters_match(self):
        """Counter totals are execution-strategy independent."""
        jobs = matrix_jobs({"c": CountingSUT}, [_scenario()], seeds=[1, 2, 3])
        serial = MatrixRunner(workers=1).run(jobs)
        parallel = MatrixRunner(workers=3).run(jobs)
        assert (
            serial.manifest.telemetry()["counters"]
            == parallel.manifest.telemetry()["counters"]
        )


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(RunnerError):
            MatrixRunner(workers=0)

    def test_bad_max_attempts(self):
        with pytest.raises(RunnerError):
            MatrixRunner(max_attempts=0)
