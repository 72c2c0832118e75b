#!/usr/bin/env python
"""The bench ledger: one committed record per change that touches ``src/``.

Usage::

    python3 tools/bench_ledger.py record --pr N --claim TEXT PARENT.json CHANGE.json
    python3 tools/bench_ledger.py check

``record`` folds the two ``--out`` files of a ``perf/run.py --compare``
into one record and appends it to ``BENCH_perf.json`` at the repo root:
the PR number, the parent commit (from the parent runs' host stamp), the
``src/`` tree hash the change runs measured, the host stamp, and for each
workload × end-to-end metric of ``BENCHMARK.json`` both sides' median,
q1, q3 and run count with the pairs the change won and ``--compare``'s
verdict; then each workload's ``sim_digest`` at its lowest seed, and the
claim. Stage ``src/`` first: the hash is ``git write-tree --prefix=src/``
of the index, which is what ``git rev-parse HEAD:src`` reads once it is
committed.

``check`` exits 1 unless the last record's tree hash is
``git rev-parse HEAD:src``. CI runs it when a change touches ``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_perf.json"
sys.path.insert(0, str(ROOT))

from perf.run import digests, grouped, load_spec  # noqa: E402
from perf.stats import quartiles, verdict  # noqa: E402


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.rstrip()


def summary(runs: dict) -> dict:
    values = list(runs.values())
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def fold(parent: list, change: list, spec: dict, pr: int, claim: str, src_tree: str) -> dict:
    """One ledger record from the parent's and the change's run records."""
    a, b = grouped(parent), grouped(change)
    workloads: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            paired = a[key].keys() & b[key].keys()
            workloads.setdefault(workload, {})[metric["name"]] = {
                "unit": metric["unit"],
                "parent": summary(a[key]),
                "change": summary(b[key]),
                "pairs": len(paired),
                "pairs_won": sum(sign * b[key][r] < sign * a[key][r] for r in paired),
                "verdict": verdict(a[key], b[key], metric["better"], metric["bound"]),
            }
    da, db = digests(parent), digests(change)
    lowest = {}
    for workload, seed in sorted(db):
        lowest.setdefault(workload, db[(workload, seed)])
    host = change[0]["host"]
    return {
        "pr": pr,
        "parent_commit": parent[0]["host"]["commit"],
        "src_tree": src_tree,
        "host": {k: host[k] for k in ("python", "numpy", "nproc")},
        "seeds": sorted({r["seed"] for r in change}),
        "workloads": workloads,
        "sim_digest": lowest,
        "sim_digest_identical": all(da[k] == db[k] for k in da.keys() & db.keys()),
        "claim": claim,
    }


def record(args) -> int:
    status = git("status", "--porcelain", "--", "src").splitlines()
    if any(line[1] != " " for line in status):
        print("bench_ledger: src/ has unstaged changes; stage them first", file=sys.stderr)
        return 1
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    entry = fold(parent, change, load_spec(), args.pr, args.claim,
                 git("write-tree", "--prefix=src/"))
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    LEDGER.write_text(json.dumps(ledger + [entry], indent=1) + "\n")
    print(f"bench_ledger: record {len(ledger) + 1} for src tree {entry['src_tree']}")
    return 0


def check(_args) -> int:
    head = git("rev-parse", "HEAD:src")
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else []
    last = ledger[-1]["src_tree"] if ledger else None
    if last != head:
        print(f"bench_ledger: src/ is tree {head}, but the last record in "
              f"{LEDGER.name} measured {last}; fold this change's compare "
              "into a record (tools/bench_ledger.py record)")
        return 1
    print(f"bench_ledger: last record measured src tree {head}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="append a record for a compare pair")
    rec.add_argument("--pr", type=int, required=True)
    rec.add_argument("--claim", required=True)
    rec.add_argument("parent", metavar="PARENT.json")
    rec.add_argument("change", metavar="CHANGE.json")
    rec.set_defaults(run=record)
    commands.add_parser("check", help="the last record is HEAD:src").set_defaults(run=check)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
