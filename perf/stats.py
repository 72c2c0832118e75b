"""Medians, quartiles and the compare verdict (choosing-metrics §6-8).

Pure stdlib so the parent process and ``--compare`` never need numpy.
"""

from __future__ import annotations

import statistics
from typing import Dict, Hashable, Mapping, Sequence, Tuple

#: Pairs the guide wants before a gain may be claimed, and the share of
#: them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (the single value twice when n == 1)."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median with the q1/q3/min/n published beside it."""
    q1, q3 = quartiles(values)
    return {
        "value": float(statistics.median(values)),
        "q1": q1,
        "q3": q3,
        "min": float(min(values)),
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(
    parent: Mapping[Hashable, float],
    change: Mapping[Hashable, float],
    better: str,
    bound: float,
) -> str:
    """One workload x metric cell of the compare table.

    Each side maps a run's identity (seed, seconds, repeat) to its
    value; a pair is the two runs that share an identity.

    ``regressed``: the change's median is worse than the parent's by
    more than ``bound`` (a share of the parent's median).
    ``unresolved``: the two sides are not the same set of runs, so there
    is nothing to pair; or either side's run-to-run spread exceeds the
    bound and the runs overlap, so "unchanged" cannot be told from "moved".
    ``better``: the change wins at least nine tenths of >= 10 pairs
    (ties count for neither) and the medians differ by more than the
    parent's own interquartile distance.
    """
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent.values()]
    c = [sign * v for v in change.values()]
    mp, mc = statistics.median(p), statistics.median(c)
    if mc - mp > bound * abs(mp):
        return "regressed"
    if parent.keys() != change.keys():
        return "unresolved"
    if max(spread(p), spread(c)) > bound and max(c) >= min(p):
        return "unresolved"
    wins = sum(1 for run in parent if sign * change[run] < sign * parent[run])
    q1, q3 = quartiles(p)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and mp - mc > q3 - q1
    ):
        return "better"
    return "unchanged"
