"""One workload in one fresh process (spawned by ``perf/run.py``).

A fresh process per workload gives a clean ``ru_maxrss`` and lets set-up
(imports, dataset and scenario construction, one untimed warm-up op) be
timed from process spawn. Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import entrypoints as ep  # noqa: E402
from perf.stats import summarize  # noqa: E402
from perf.tracing import NoTracing, Tracing  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

#: Timed ops a run makes even when ``--seconds`` is already spent: the
#: medians rest on at least this many samples however slow the host is.
MIN_OPS = 9
#: The benchmark always runs the workloads at their full size; only the
#: self-tests pass a smaller ``scale`` (as a Python argument).
FULL_SIZE = 1.0
#: Error messages kept per run (the count is always exact).
MAX_ERRORS = 10


def cpu_seconds() -> float:
    """Process CPU time, self plus reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """High-water RSS of this process or its largest reaped child."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


class Tally:
    """Ops attempted and failed, the reference digest, the timing samples."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest: Optional[str] = None
        self.wall_s: List[float] = []
        self.wall_us: List[float] = []
        self.cpu_us: List[float] = []

    def _fail(self, ops: int, messages) -> None:
        self.failed += ops
        self.errors.extend(messages)

    def execute(self, tr, timed: bool = True):
        """One op: prepare (untimed), run (timed), count. ``None`` if it raised."""
        workload = self.workload
        inputs = workload.prepare()
        self.attempted += workload.ops_per_call
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            outcome = workload.run_op(inputs, tr)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self._fail(workload.ops_per_call, [f"op raised {type(exc).__name__}: {exc}"])
            return None
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if timed:
            self.wall_s.append(wall)
            self.wall_us.append(wall / outcome.queries * 1e6)
            self.cpu_us.append(cpu / outcome.queries * 1e6)
        return outcome

    def judge(self, outcome) -> None:
        """Run the output checks on one op's outcome."""
        if outcome is None:
            return
        workload = self.workload
        try:
            digest, failed, errors = workload.check(outcome)
        except Exception as exc:  # a check that cannot run has not passed
            self._fail(
                workload.ops_per_call, [f"check raised {type(exc).__name__}: {exc}"]
            )
            return
        if failed:
            # A failed op's digest is never the reference the others must match.
            self._fail(failed, errors)
        elif self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self._fail(workload.ops_per_call, ["sim_digest differs from the first op's"])

    def finish(self) -> None:
        """The once-per-run check, outside the timed ops (counts as one op)."""
        if self.workload.final_check is None:
            return
        self.attempted += 1
        try:
            errors = self.workload.final_check(self.digest)
        except Exception as exc:
            errors = [f"final check raised {type(exc).__name__}: {exc}"]
        self._fail(int(bool(errors)), errors)

    def result(self, metrics: dict, **extra) -> dict:
        return {
            "workload": self.workload.name,
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:MAX_ERRORS],
            "sim_digest": self.digest,
            "metrics": metrics,
            **extra,
        }


def timed_loop(tally: Tally, tr, seconds: float, settle) -> None:
    """Ops back to back until ``seconds`` are spent; ``settle`` takes each outcome.

    No reference to an outcome survives into the next op, so one op's
    result columns never inflate the next op's peak RSS.
    """
    executed = 0
    start = time.perf_counter()
    while executed < MIN_OPS or time.perf_counter() - start < seconds:
        settle(tally.execute(tr))
        executed += 1
    if not tally.wall_s:
        raise RuntimeError(f"every timed op raised: {tally.errors[-1]}")


def measure(name, seed, seconds, scale, workdir, spawned_at, setup_only=False) -> dict:
    """The untraced pass: the end-to-end metrics."""
    workload = WORKLOADS[name](seed, scale, workdir)
    tally = Tally(workload)
    tr = NoTracing()
    warm = tally.execute(tr, timed=False)
    setup_s = time.time() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}
    pending: list = []
    settle = pending.append if workload.defer_checks else tally.judge
    settle(warm)
    del warm
    timed_loop(tally, tr, seconds, settle)
    # Read before a deferred check can raise the high-water mark.
    rss = peak_rss_mb()
    for outcome in pending:
        tally.judge(outcome)
    tally.finish()
    return tally.result(
        {
            "setup_s": {"value": setup_s},
            "us_per_query": summarize(tally.wall_us),
            "cpu_us_per_query": summarize(tally.cpu_us),
            "peak_rss_mb": {"value": rss},
        }
    )


def trace(name, seed, seconds, scale, workdir) -> dict:
    """The traced pass: one extra op measured from outside, layer by layer."""
    workload = WORKLOADS[name](seed, scale, workdir)
    tally = Tally(workload)
    tally.judge(tally.execute(NoTracing(), timed=False))
    timed_loop(tally, NoTracing(), seconds / 2.0, tally.judge)
    baseline = statistics.median(tally.wall_s)
    try:
        program_tracer = ep.probe("Tracer")()
    except ep.Unavailable:
        program_tracer = None
    tr = Tracing(program_tracer, ep.READ_CODE)
    outcome = tally.execute(tr)
    if outcome is None:
        raise RuntimeError(f"the traced op failed: {tally.errors[-1]}")
    traced_wall = tally.wall_s[-1]
    top_level = sum(
        tr.recorder.duration(i)
        for i, span in enumerate(tr.recorder.spans)
        if span[1] is None
    )
    metrics, missing = workload.layers(tr, outcome)
    tally.judge(outcome)
    tally.finish()
    metrics["trace.overhead_pct"] = (traced_wall - baseline) / baseline * 100.0
    return tally.result(
        {name: {"value": float(value)} for name, value in metrics.items()},
        unavailable=missing,
        traced_op_wall_s=traced_wall,
        untraced_median_wall_s=baseline,
        accounted_share=top_level / traced_wall,
        spans=tr.recorder.dump(),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds, FULL_SIZE, workdir)
        else:
            result = measure(
                args.workload,
                args.seed,
                args.seconds,
                FULL_SIZE,
                workdir,
                args.spawned_at,
                setup_only=args.setup_only,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
