"""The repo benchmark: host us/query, CPU and RSS per simulated query.

    python3 perf/run.py --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--out FILE]
    python3 perf/run.py --compare PARENT.json CHANGE.json

Runs each workload in its own fresh subprocess (``perf/worker.py``),
checks outputs, and prints every metric by name with its unit; the last
stdout line of a single-workload run is the result object the benchmark
contract asks for. ``--out`` appends the full record (host stamp,
quartiles, spans) to a JSON list that ``--compare`` reads. See
``perf/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one thread, here and in every child.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf.stats import quartiles, verdict  # noqa: E402

WORKER = Path(__file__).resolve().parent / "worker.py"
#: Scratch (spill files), inside the benchmark's own directory; removed after each run.
WORKDIR = Path(__file__).resolve().parent / ".work"
#: Fresh processes whose set-up is timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A workload is marked noisy when its two calibration spins differ by more.
NOISY_SHARE = 0.15
#: Placeholder values in the contract's result line (numbers only).
NOT_APPLICABLE = 0.0
UNAVAILABLE = -1.0
CHILD_TIMEOUT_S = 150.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- host ---------------------------------------------------------------------------------


def calibrate() -> float:
    """Milliseconds a fixed pure-Python + numpy spin takes (~0.2 s here).

    Run before and after each workload: when the two differ by more than
    15 % a neighbour was busy, and the workload's medians are suspect.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    values = np.arange(120_000, dtype=np.float64)
    for _ in range(40):
        np.sort(np.sin(values) * values)
    return (time.perf_counter() - start) * 1e3


def host_stamp() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


# -- children -----------------------------------------------------------------------------


def spawn(arguments) -> dict:
    """Run one worker to completion; return the object on its last line.

    The worker gets its own process group so that a timeout also stops
    the pool workers it forked.
    """
    command = [
        sys.executable,
        str(WORKER),
        *arguments,
        "--workdir",
        str(WORKDIR),
        "--spawned-at",
        repr(time.time()),
    ]
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perf: worker timed out: {' '.join(arguments)}")
    if proc.returncode != 0:
        raise SystemExit(f"perf: worker exited {proc.returncode}: {' '.join(arguments)}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: int, spec: dict, stamp: dict
) -> dict:
    """One workload, one pass: spawn, stamp, and shape the record."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    load_start = os.getloadavg()[0]
    calib_before = calibrate()
    record = spawn(base + ["--trace", str(trace)])
    metrics = record["metrics"]
    if trace:
        missing = record["unavailable"]
        wanted = spec["per_layer"]
        for entry in wanted:
            if entry["name"] in missing:
                metrics[entry["name"]] = {"value": UNAVAILABLE}
            else:
                metrics.setdefault(entry["name"], {"value": NOT_APPLICABLE})
    else:
        wanted = spec["end_to_end"]
        setups = [metrics["setup_s"]["value"]] + [
            spawn(base + ["--setup-only"])["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics["setup_s"] = {"value": statistics.median(setups), "samples": setups}
    calib_after = calibrate()
    units = {entry["name"]: entry["unit"] for entry in wanted}
    if set(metrics) != set(units):
        raise SystemExit(
            f"perf: {name} reported {sorted(set(metrics) ^ set(units))} "
            "differently from BENCHMARK.json"
        )
    for metric, value in metrics.items():
        value["unit"] = units[metric]
    record.update(
        seed=seed,
        seconds=seconds,
        trace=trace,
        ops_failed_share=record["failed"] / record["attempted"],
        noisy=abs(calib_after - calib_before) / calib_before > NOISY_SHARE,
        host={
            **stamp,
            "calib_ms": [calib_before, calib_after],
            "loadavg": [load_start, os.getloadavg()[0]],
        },
    )
    return record


def print_record(record: dict) -> None:
    host = record["host"]
    print(
        f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
        f"ops={record['attempted']}  ops_failed={record['failed']}  "
        f"ops_failed_share={record['ops_failed_share']:.4f}  "
        f"correct={record['correct']}  noisy={record['noisy']}"
    )
    print(f"  sim_digest {record['sim_digest']}")
    for name, metric in record["metrics"].items():
        if record["trace"] and name in record["unavailable"]:
            print(f"  {name:<30s} unavailable ({record['unavailable'][name]})")
            continue
        line = f"  {name:<30s} {metric['value']:>16.6f} {metric['unit']}"
        if "n" in metric:
            line += (
                f"   q1={metric['q1']:.6f} q3={metric['q3']:.6f} "
                f"min={metric['min']:.6f} n={metric['n']}"
            )
        print(line)
    if record["trace"]:
        print(
            f"  traced op {record['traced_op_wall_s']:.4f} s vs untraced median "
            f"{record['untraced_median_wall_s']:.4f} s; its top-level spans cover "
            f"{record['accounted_share'] * 100:.1f} % of it"
        )
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    print(
        f"  host commit={host['commit'][:12]} python={host['python']} "
        f"numpy={host['numpy']} nproc={host['nproc']} "
        f"load={host['loadavg'][0]:.2f}->{host['loadavg'][1]:.2f} "
        f"calib_ms={host['calib_ms'][0]:.1f}->{host['calib_ms'][1]:.1f}"
    )


def result_line(record: dict) -> str:
    """The contract's last stdout line: exactly four keys."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }
    )


def append_records(path: Path, records) -> None:
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + records, indent=1))


# -- compare ------------------------------------------------------------------------------


def grouped(records) -> dict:
    """``{(workload, metric): {run: value}}``, unavailable probes left out.

    A run is ``(seed, seconds, repeat)``, ``repeat`` counting the records
    of one file that share workload, pass, seed and seconds; ``--compare``
    pairs the runs of its two sides by it.
    """
    values: dict = {}
    repeats: dict = {}
    for record in records:
        same = (record["workload"], record["trace"], record["seed"], record["seconds"])
        repeat = repeats[same] = repeats.get(same, -1) + 1
        run = (record["seed"], record["seconds"], repeat)
        for name, metric in record["metrics"].items():
            if name not in record.get("unavailable", ()):
                values.setdefault((record["workload"], name), {})[run] = metric["value"]
    return values


def digests(records) -> dict:
    return {
        (r["workload"], r["seed"]): r["sim_digest"] for r in records if not r["trace"]
    }


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """One row per workload x metric; exit 1 when any row regressed."""
    parent = json.loads(Path(parent_path).read_text())
    change = json.loads(Path(change_path).read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    a, b = grouped(parent), grouped(change)
    regressed = unpaired = 0
    print(
        f"{'workload':<15s} {'metric':<28s} {'unit':<6s} "
        f"{'parent median [q1, q3] n':<42s} {'change median [q1, q3] n':<42s} "
        f"{'change/parent':<14s} {'bound':<6s} verdict"
    )

    def cell(runs):
        values = list(runs.values())
        q1, q3 = quartiles(values)
        return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"

    for workload in (w["name"] for w in spec["workloads"]):
        for name, entry in {**bounds, **layer}.items():
            key = (workload, name)
            if key not in a or key not in b:
                continue
            base = statistics.median(a[key].values())
            ratio = statistics.median(b[key].values()) / base if base else float("nan")
            if name in bounds:
                outcome = verdict(a[key], b[key], entry["better"], entry["bound"])
                bound = f"{entry['bound']:.2f}"
                regressed += outcome == "regressed"
                unpaired += a[key].keys() != b[key].keys()
            else:
                outcome, bound = "-", "-"
            print(
                f"{workload:<15s} {name:<28s} {entry['unit']:<6s} "
                f"{cell(a[key]):<42s} {cell(b[key]):<42s} "
                f"{ratio:<14.4f} {bound:<6s} {outcome}"
            )
    da, db = digests(parent), digests(change)
    for key in sorted(set(da) & set(db)):
        same = "identical" if da[key] == db[key] else "DIFFERS"
        print(f"{key[0]:<15s} sim_digest at seed {key[1]}: {same}")
    print("change/parent is the ratio of medians; its base is the parent median.")
    if unpaired:
        print(
            f"{unpaired} bounded rows compare different sets of runs: give both sides "
            "the same seeds, --seconds and repeats to pair them."
        )
    return 1 if regressed else 0


# -- entry --------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full records here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    stamp = host_stamp()
    try:
        records = [
            run_workload(name, args.seed, seconds, args.trace, spec, stamp)
            for name in names
        ]
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    for record in records:
        print_record(record)
    if args.out is not None:
        append_records(args.out, records)
    for record in records:
        print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
