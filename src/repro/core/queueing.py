"""Vectorized FIFO queueing kernels for the batched driver.

The scalar reference driver (``tests/reference_driver.py``) computes, per
query, ``start = max(arrival, free)``, ``completion = start + service``,
``free = completion``. :func:`fifo_single_server` reproduces that
recurrence bit-exactly over whole arrays. The timeline splits into *busy
periods*: a period's *head* starts at its own arrival, and every later
query of the period starts at its predecessor's completion. Once the heads
are known, every completion is the scalar loop's own float64 addition —
``start + service`` at a head, ``previous completion + service`` inside a
period — so the kernel's whole job is to find the heads without a Python
step per idle↔busy flip:

1. **Runs.** From any position the kernel continues the current regime
   over a window in one numpy pass — a ``np.cumsum`` seeded with the
   previous completion (it accumulates left to right, which *is* the
   scalar addition chain) or ``arrival + service`` elementwise — and keeps
   it up to the first query that breaks it. The first run covers the
   whole block, so a block that is one busy chain or entirely idle costs
   one or two passes; a run that fills its window doubles the next one.
2. **Scans.** A run that stops early hands over to one max-plus (Lindley)
   scan, which locates every head of a window at once: with
   ``S = cumsum(service)``, the approximate
   completions are ``S + maximum.accumulate(max(free, arrival - S_prev))``
   and query ``i`` heads a period when ``arrival[i] >= approx[i-1]``.
   Periods of at most ``_SHORT`` queries are then filled together, offset
   by offset; longer ones take a seeded ``np.cumsum`` each.
3. **Verification.** ``approx`` rounds differently from the scalar chain,
   so each head is checked against the exact completions (it needs
   ``arrival >= previous``; a non-head needs ``arrival <= previous``; a
   tie gives the same value either way) and only the prefix before the
   first mismatch is kept. A scan covers at most ``_WINDOW`` queries, and
   after a mismatch the kernel takes ``patience`` runs before it scans
   again — ``patience`` doubles with every mismatching scan and halves
   with every clean one. Near-ties that keep fooling the scan therefore
   cost the run loop plus a logarithmic number of bounded scans.

The kernels are oblivious to ticks and faults: the batched driver slices
each segment's batch at every interrupt boundary (tick checkpoints and
:mod:`repro.faults` point faults), so a single kernel call never spans an
online retrain or an outage, and window-fault service perturbation
happens *before* queueing (arrival-keyed, via
:meth:`repro.faults.FaultClock.perturb_batch`). ``servers > 1`` takes
:func:`fifo_multi_server`, a per-query heap.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

#: Periods up to this long are filled offset by offset; a run that stopped
#: early restarts its doubling window here.
_SHORT = 32
#: Most queries one scan covers, which bounds what a mismatch can waste.
_WINDOW = 4096


def fifo_single_server(
    arrivals: np.ndarray, services: np.ndarray, free: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Exact single-server FIFO start/completion times.

    Args:
        arrivals: Ascending arrival timestamps.
        services: Per-query service times (already clamped > 0).
        free: Server free time entering the batch.

    Returns:
        ``(starts, completions, new_free)`` — identical, element for
        element, to the scalar ``max``/``+`` loop at the same inputs.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    n = arrivals.size
    starts = np.empty(n, dtype=np.float64)
    completions = np.empty(n, dtype=np.float64)
    i = 0
    run = n  # the first run tries the whole block
    wait, patience = 0, 1  # runs owed before the next scan, and its backoff
    while i < n:
        j = min(n, i + run)
        i += _run(arrivals[i:j], services[i:j], free, starts[i:j], completions[i:j])
        free = float(completions[i - 1])
        if i == j:
            run *= 2
            continue
        run = _SHORT
        if wait:
            wait -= 1
            continue
        j = min(n, i + _WINDOW)
        k = _scan(arrivals[i:j], services[i:j], free, starts[i:j], completions[i:j])
        if i + k < j:
            wait, patience = patience, 2 * patience
        else:
            patience = max(1, patience // 2)
        i += k
        free = float(completions[i - 1])
    return starts, completions, free


def _run(
    a: np.ndarray,
    s: np.ndarray,
    free: float,
    starts: np.ndarray,
    completions: np.ndarray,
) -> int:
    """Fill the window's leading run of one regime; return its length.

    The first query starts at ``max(arrival, free)``. If the second one
    arrives by the first's completion the run is a busy chain, else an
    idle run; it ends before the first query that breaks that regime.
    """
    m = a.size
    starts[0] = max(float(a[0]), free)
    completions[0] = starts[0] + s[0]
    if m == 1:
        return 1
    busy = a[1] <= completions[0]
    if busy:
        completions[1:] = s[1:]
        np.cumsum(completions, out=completions)
        broken = a[1:] > completions[:-1]
    else:
        np.add(a[1:], s[1:], out=completions[1:])
        broken = a[1:] < completions[:-1]
    k = int(broken.argmax())
    k = k + 1 if broken[k] else m
    starts[1:k] = completions[: k - 1] if busy else a[1:k]
    return k


def _scan(
    a: np.ndarray,
    s: np.ndarray,
    free: float,
    starts: np.ndarray,
    completions: np.ndarray,
) -> int:
    """Fill the window from one Lindley scan's heads; return the exact prefix."""
    m = a.size
    first = max(float(a[0]), free)
    cum = np.empty(m + 1, dtype=np.float64)
    cum[0] = 0.0
    np.cumsum(s, out=cum[1:])
    approx = a - cum[:-1]
    approx[0] = first
    np.maximum.accumulate(approx, out=approx)
    approx += cum[1:]
    head = np.empty(m, dtype=bool)
    head[0] = True
    np.greater_equal(a[1:], approx[:-1], out=head[1:])

    heads = np.flatnonzero(head)
    lengths = np.diff(heads, append=m)
    head_starts = a[heads]
    head_starts[0] = first
    completions[heads] = head_starts + s[heads]
    is_long = lengths > _SHORT
    for h, length in zip(heads[is_long].tolist(), lengths[is_long].tolist()):
        period = completions[h : h + length]
        period[1:] = s[h + 1 : h + length]
        np.cumsum(period, out=period)
    short = ~is_long
    # Offset by offset, longest period first: the periods still open at
    # offset k are then a prefix of ``pos``.
    order = np.argsort(-lengths[short])
    pos = heads[short][order]
    ordered = lengths[short][order]
    if ordered.size and ordered[0] > 1:
        values = completions[pos]
        still_open = np.searchsorted(-ordered, -np.arange(1, ordered[0]))
        for count in still_open.tolist():
            at = pos[:count]
            at += 1
            chain = values[:count]
            chain += s[at]
            completions[at] = chain

    starts[1:] = completions[:-1]
    starts[heads] = head_starts
    previous, later = completions[:-1], a[1:]
    mismatch = np.flatnonzero(
        np.where(head[1:], later < previous, later > previous)
    )
    return int(mismatch[0]) + 1 if mismatch.size else m


def fifo_multi_server(
    arrivals: np.ndarray, services: np.ndarray, server_free: List[float]
) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Exact FIFO start/completion times over parallel servers.

    Each query takes the server that comes free first — one heap pop and
    push per query, as in the scalar loop.

    Args:
        arrivals: Ascending arrival timestamps.
        services: Per-query service times (already clamped > 0).
        server_free: Min-heap of per-server free times entering the
            batch; updated in place.

    Returns:
        ``(starts, completions, server_free)``.
    """
    m = len(arrivals)
    starts = np.empty(m, dtype=np.float64)
    completions = np.empty(m, dtype=np.float64)
    for i, (arrival, service) in enumerate(
        zip(np.asarray(arrivals, dtype=np.float64).tolist(),
            np.asarray(services, dtype=np.float64).tolist())
    ):
        start = max(arrival, heapq.heappop(server_free))
        completion = start + service
        heapq.heappush(server_free, completion)
        starts[i] = start
        completions[i] = completion
    return starts, completions, server_free
