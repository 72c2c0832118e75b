"""Runner hardening: timeouts, retry budgets, checkpoint/resume."""

from __future__ import annotations

import json
import os
import time

import pytest
from tests.result_helpers import assert_same_result

from repro.core.runner import (
    MatrixJob,
    MatrixRunner,
    ResultCache,
    RunManifest,
    matrix_jobs,
)
from repro.core.scenario import Scenario, Segment
from repro.core.sut import SystemUnderTest
from repro.errors import RunnerError
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import simple_spec


class FastSUT(SystemUnderTest):
    """Completes instantly; the well-behaved member of the matrix."""

    def __init__(self) -> None:
        super().__init__("fast")

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        return 1e-4

    def describe(self):
        return {"name": self.name, "class": "FastSUT"}


class SleepingSUT(SystemUnderTest):
    """Hangs at setup — exercises the wall-clock timeout kill path."""

    def __init__(self) -> None:
        super().__init__("sleeping")

    def setup(self, pairs):
        time.sleep(60.0)

    def execute(self, query, now):
        return 1e-4


class ExplodingSUT(SystemUnderTest):
    """Raises at query time — exercises retry-budget exhaustion."""

    def __init__(self) -> None:
        super().__init__("exploding")

    def setup(self, pairs):
        pass

    def execute(self, query, now):
        raise RuntimeError("boom at query time")


def _scenario(rate=60.0, duration=3.0, seed=5, name="harden-test"):
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


class TestValidation:
    def test_bad_timeout_rejected(self):
        with pytest.raises(RunnerError):
            MatrixRunner(job_timeout=0.0)

    def test_negative_backoff_rejected(self):
        with pytest.raises(RunnerError):
            MatrixRunner(retry_backoff=-1.0)

    def test_resume_requires_checkpoint(self):
        with pytest.raises(RunnerError):
            MatrixRunner(resume=True)


class TestTimeout:
    def test_hung_job_is_killed_and_marked_failed(self):
        jobs = [
            MatrixJob(sut_factory=SleepingSUT, scenario=_scenario(),
                      label="hung"),
            MatrixJob(sut_factory=FastSUT, scenario=_scenario(seed=6),
                      label="good"),
        ]
        runner = MatrixRunner(
            workers=2, job_timeout=1.0, max_attempts=1, retry_backoff=0.0
        )
        t0 = time.monotonic()
        outcome = runner.run(jobs)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0  # killed, not waited out
        hung, good = outcome.manifest.jobs
        assert hung.status == "failed"
        assert "wall-clock budget" in hung.error
        assert good.status == "ok"
        assert outcome.results[0] is None
        assert outcome.results[1] is not None

    def test_single_job_with_timeout_runs_isolated(self):
        # A one-job matrix normally runs in-process; with a timeout it
        # must still go through the process scheduler so it can be
        # killed.
        jobs = [MatrixJob(sut_factory=SleepingSUT, scenario=_scenario(),
                          label="hung")]
        runner = MatrixRunner(
            job_timeout=1.0, max_attempts=1, retry_backoff=0.0
        )
        outcome = runner.run(jobs)
        assert outcome.manifest.jobs[0].status == "failed"

    def test_timeout_consumes_attempts(self):
        jobs = [MatrixJob(sut_factory=SleepingSUT, scenario=_scenario(),
                          label="hung")]
        runner = MatrixRunner(
            job_timeout=0.5, max_attempts=2, retry_backoff=0.0
        )
        outcome = runner.run(jobs)
        record = outcome.manifest.jobs[0]
        assert record.status == "failed"
        assert record.attempts == 2


class TestRetryBudget:
    def test_exhaustion_surfaces_traceback_tail(self):
        jobs = [MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario(),
                          label="bad")]
        runner = MatrixRunner(workers=2, max_attempts=3, retry_backoff=0.0,
                              job_timeout=30.0)
        outcome = runner.run(jobs)
        record = outcome.manifest.jobs[0]
        assert record.status == "failed"
        assert record.attempts == 3
        assert record.error.startswith("RuntimeError: boom at query time")
        assert "raise RuntimeError" in record.error

    def test_serial_path_matches_pool_semantics(self):
        jobs = [MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario(),
                          label="bad")]
        serial = MatrixRunner(workers=1, max_attempts=2, retry_backoff=0.0)
        outcome = serial.run(jobs)
        record = outcome.manifest.jobs[0]
        assert record.status == "failed"
        assert record.attempts == 2
        assert record.error.startswith("RuntimeError: boom at query time")

    def test_clean_job_records_one_attempt(self):
        jobs = matrix_jobs({"fast": FastSUT}, [_scenario()], seeds=[1, 2])
        outcome = MatrixRunner(workers=2).run(jobs)
        assert [r.attempts for r in outcome.manifest.jobs] == [1, 1]

    def test_backoff_delays_retries(self):
        jobs = [MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario(),
                          label="bad")]
        runner = MatrixRunner(workers=2, max_attempts=3, retry_backoff=0.2,
                              job_timeout=30.0)
        t0 = time.monotonic()
        runner.run(jobs)
        # Two retries gated at 0.2 * 2**0 and 0.2 * 2**1 seconds.
        assert time.monotonic() - t0 >= 0.6


class TestCheckpointResume:
    def _jobs(self):
        return matrix_jobs(
            {"fast": FastSUT}, [_scenario()], seeds=[1, 2, 3]
        )

    def test_checkpoint_written_and_loadable(self, tmp_path):
        ckpt = str(tmp_path / "manifest.json")
        runner = MatrixRunner(
            cache_dir=str(tmp_path / "cache"), checkpoint=ckpt
        )
        outcome = runner.run(self._jobs())
        saved = RunManifest.load(ckpt)
        assert saved.canonical_dict() == outcome.manifest.canonical_dict()
        assert all(r.status == "ok" for r in saved.jobs)

    def test_resume_reproduces_uninterrupted_manifest(self, tmp_path):
        cache = str(tmp_path / "cache")
        ckpt = str(tmp_path / "manifest.json")

        # The uninterrupted reference run (separate cache: no sharing).
        reference = MatrixRunner(
            cache_dir=str(tmp_path / "ref-cache")
        ).run(self._jobs())

        # A full run that leaves a checkpoint behind...
        MatrixRunner(cache_dir=cache, checkpoint=ckpt).run(self._jobs())

        # ...then simulate the interruption: truncate the checkpoint to
        # its first two job records and delete the third job's cache
        # entry, as if the process died mid-matrix.
        with open(ckpt) as handle:
            payload = json.load(handle)
        dropped = payload["jobs"].pop()
        os.unlink(ResultCache(cache).path(dropped["cache_key"]))
        with open(ckpt, "w") as handle:
            json.dump(payload, handle)

        resumed = MatrixRunner(
            cache_dir=cache, checkpoint=ckpt, resume=True
        ).run(self._jobs())

        # The two checkpointed jobs were reused verbatim; the third
        # re-executed; the canonical manifest matches end to end.
        assert [r.status for r in resumed.manifest.jobs] == ["ok", "ok", "ok"]
        assert (resumed.manifest.canonical_dict()
                == reference.manifest.canonical_dict())
        for ours, ref in zip(resumed.results, reference.results):
            assert_same_result(ours, ref)

    def test_resume_with_stale_cache_reexecutes(self, tmp_path):
        cache = str(tmp_path / "cache")
        ckpt = str(tmp_path / "manifest.json")
        MatrixRunner(cache_dir=cache, checkpoint=ckpt).run(self._jobs())
        # Nuke the whole cache: the checkpoint alone cannot serve
        # results, so every job must re-execute.
        for entry in os.listdir(cache):
            os.unlink(os.path.join(cache, entry))
        resumed = MatrixRunner(
            cache_dir=cache, checkpoint=ckpt, resume=True
        ).run(self._jobs())
        assert [r.status for r in resumed.manifest.jobs] == ["ok", "ok", "ok"]

    def test_resume_with_missing_checkpoint_is_cold_start(self, tmp_path):
        runner = MatrixRunner(
            cache_dir=str(tmp_path / "cache"),
            checkpoint=str(tmp_path / "never-written.json"),
            resume=True,
        )
        outcome = runner.run(self._jobs())
        assert all(r.status == "ok" for r in outcome.manifest.jobs)

    def test_checkpoint_survives_failures(self, tmp_path):
        ckpt = str(tmp_path / "manifest.json")
        jobs = [
            MatrixJob(sut_factory=FastSUT, scenario=_scenario(), label="good"),
            MatrixJob(sut_factory=ExplodingSUT, scenario=_scenario(seed=6),
                      label="bad"),
        ]
        MatrixRunner(
            workers=2, checkpoint=ckpt, max_attempts=1, retry_backoff=0.0
        ).run(jobs)
        saved = RunManifest.load(ckpt)
        statuses = {r.label: r.status for r in saved.jobs}
        assert statuses == {"good": "ok", "bad": "failed"}
