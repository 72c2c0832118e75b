"""Output checks: every op's simulated result must stay right.

The program is a simulator, so a host-time optimisation must leave every
simulated statistic bit-identical. ``column_errors`` checks the
invariants any (arrival, start, completion) log of a single-server FIFO
queue satisfies; ``digest`` fingerprints the five result columns so all
ops of a workload at one seed can be required to agree.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

import numpy as np

#: Streaming-summary payloads that are integer/grid-derived and so
#: byte-identical however the run was blocked or sharded.
EXACT_SUMMARY_METRICS = (
    "throughput",
    "adaptability",
    "sla",
    "recovery",
    "adjustment_speed",
)


def column_errors(columns, expected_queries: int) -> List[str]:
    """Invariant violations in one op's result columns (empty = correct)."""
    arrivals, starts, completions = (
        columns.arrivals,
        columns.starts,
        columns.completions,
    )
    n = int(arrivals.size)
    errors = []
    if n != expected_queries:
        errors.append(f"{n} queries recorded, {expected_queries} projected")
    if not (starts.size == completions.size == n):
        errors.append("column lengths differ")
        return errors
    if n == 0:
        return errors
    if np.any(arrivals[1:] < arrivals[:-1]):
        errors.append("arrivals decrease")
    if np.any(starts < arrivals):
        errors.append("a query starts before it arrives")
    if np.any(completions <= starts):
        errors.append("a query completes no later than it starts")
    if np.any(starts[1:] < completions[:-1]):
        errors.append("single-server FIFO violated: start before previous completion")
    return errors


def digest(columns) -> str:
    """sha256 over the five result columns and their vocabularies."""
    h = hashlib.sha256()
    for name in ("arrivals", "starts", "completions", "op_codes", "segment_codes"):
        h.update(np.ascontiguousarray(getattr(columns, name)).data)
    h.update(json.dumps([list(columns.op_vocab), list(columns.segment_vocab)]).encode())
    return h.hexdigest()


def exact_summary(summary) -> dict:
    """The block/shard-invariant part of a streaming summary."""
    return {
        "num_queries": summary.num_queries,
        "op_counts": dict(summary.op_counts),
        "segment_counts": dict(summary.segment_counts),
        "metrics": {
            name: summary.metrics[name]
            for name in EXACT_SUMMARY_METRICS
            if name in summary.metrics
        },
    }


def summary_digest(summaries) -> str:
    """sha256 over the exact payloads of a window's tenant summaries."""
    payload = json.dumps([exact_summary(s) for s in summaries], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()
