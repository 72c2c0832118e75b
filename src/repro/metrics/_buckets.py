"""Shared bucket-edge construction for every timeline metric.

The Fig 1 timeline metrics — ``latency_bands``, ``multi_latency_bands``,
``latency_timeline``, ``cumulative_curve``, per-segment throughput, and
``RunResult.throughput_series`` — all bucket the run's time axis. They
must agree on the bucket boundaries, or band totals drift away from
throughput counts (accumulating ``t += interval`` in a float loop gains
or loses a trailing bucket on long runs). This module is the single
source of those edges: one ``np.arange`` call, shared by everyone.

Bucket semantics follow :func:`numpy.histogram`: every bucket is
half-open ``[e_i, e_{i+1})`` except the last, which is closed so a
completion landing exactly on the final edge is still counted.
"""

from __future__ import annotations

import numpy as np


def time_edges(horizon: float, interval: float) -> np.ndarray:
    """Bucket edges ``0, interval, 2*interval, ...`` covering ``[0, horizon]``.

    The last edge is the first grid point at or after ``horizon``.
    Degenerate inputs (``horizon <= 0``) yield a single edge, i.e. zero
    buckets; callers validate ``interval > 0`` with their own error types.
    """
    return np.arange(0.0, float(horizon) + float(interval), float(interval))


def span_edges(lo: float, hi: float, interval: float) -> np.ndarray:
    """Bucket edges for an arbitrary span ``[lo, hi]`` (segment-local grids)."""
    return np.arange(float(lo), float(hi) + float(interval), float(interval))


def bucket_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index of the bucket each value falls in (histogram semantics).

    Values below the first edge clip into bucket 0, values at or beyond
    the last edge clip into the final bucket (the closed last bin).
    """
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, max(edges.size - 2, 0))


class GridCounts:
    """Single-pass value counts on the shared edge grid.

    The streaming engine behind every online timeline metric: fold
    sorted blocks of values one at a time and, at the end, read back the
    exact numbers the batch kernels compute from the full array —
    ``np.histogram`` bucket counts and ``searchsorted(..., 'right')``
    cumulative counts — on the :func:`time_edges` / :func:`span_edges`
    grid, *bit for bit*.

    The trick is that ``np.histogram``'s internals are additive over
    sorted blocks: for array bins it accumulates, per edge, the count of
    values strictly below the edge (and at-or-below for the final edge),
    then differences. This class maintains exactly those two per-edge
    counters (``# < e_i`` and ``# <= e_i``) on a grid that grows with
    the data: every edge is materialized as ``start + i * interval``
    with the same float expressions ``np.arange`` uses, so the grid
    matches the offline edge arrays bitwise, and a new edge (always
    beyond every value seen so far) starts at the current fold count.

    Blocks must arrive sorted ascending. Values outside the final grid
    need no precondition: a value below ``start`` sorts before edge 0
    and therefore before every later edge, so it never lands in any
    ``counts_on`` bucket — exactly how ``np.histogram`` drops
    below-range values — while still counting toward every
    ``cumulative_on`` edge, matching ``searchsorted(..., 'right')``.
    Values beyond the current coverage grow the grid via ``_cover``
    before folding. Both cases are pinned by regression tests
    (``tests/metrics/test_accumulator_merge.py``).

    Two instances on the same ``(start, interval)`` grid are additive:
    :meth:`merge` sums the per-edge counters after aligning coverage,
    and :meth:`state_dict` / :meth:`from_state` provide the JSON wire
    form that carries the counters across a process boundary, so
    sharded runs can fold disjoint value streams independently and
    still read back bit-identical counts.
    """

    __slots__ = ("interval", "start", "_lt", "_le", "_k", "_n", "_max")

    def __init__(self, interval: float, start: float = 0.0) -> None:
        """Anchor the grid at ``start`` with ``interval`` spacing."""
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.start = float(start)
        # Per-edge counters for the first _k grid edges: _lt[i] counts
        # folded values < edge i, _le[i] counts values <= edge i.
        self._lt = np.zeros(1, dtype=np.int64)
        self._le = np.zeros(1, dtype=np.int64)
        self._k = 1
        self._n = 0
        self._max = -np.inf

    @property
    def count(self) -> int:
        """Total values folded so far."""
        return self._n

    @property
    def max_value(self) -> float:
        """Largest value folded so far (``-inf`` before the first fold)."""
        return self._max

    def _edge_values(self, k: int) -> np.ndarray:
        # Element i is start + i*interval via the same double ops
        # np.arange's fill loop uses, so edges match time_edges bitwise.
        return self.start + np.arange(k, dtype=np.float64) * self.interval

    def _grow_to(self, k: int) -> None:
        """Materialize edges up to index ``k-1``, seeding them at ``_n``.

        Every new edge lies strictly beyond the current coverage (hence
        beyond every folded value), so its counters start at ``_n``.
        """
        if k <= self._k:
            return
        if k > self._lt.size:
            for name in ("_lt", "_le"):
                old = getattr(self, name)
                new = np.full(max(k, old.size * 2), self._n, dtype=np.int64)
                new[: self._k] = old[: self._k]
                setattr(self, name, new)
        else:
            self._lt[self._k : k] = self._n
            self._le[self._k : k] = self._n
        self._k = k

    def _cover(self, vmax: float) -> None:
        """Grow the grid until its last edge is at or beyond ``vmax``."""
        if float(self._edge_values(self._k)[-1]) >= vmax:
            return
        k = max(
            int(np.ceil((vmax - self.start) / self.interval)) + 1, self._k + 1
        )
        while float(self._edge_values(k)[-1]) < vmax:  # ceil rounding slack
            k += 1
        self._grow_to(k)

    def fold_sorted(self, values: np.ndarray) -> None:
        """Fold one block of ascending values into the counters."""
        if values.size == 0:
            return
        vmax = float(values[-1])
        self._cover(vmax)
        edges = self._edge_values(self._k)
        self._lt[: self._k] += np.searchsorted(values, edges, side="left")
        self._le[: self._k] += np.searchsorted(values, edges, side="right")
        self._n += int(values.size)
        if vmax > self._max:
            self._max = vmax

    def fold(self, values: np.ndarray) -> None:
        """Fold one block of values in any order (sorts a copy)."""
        self.fold_sorted(np.sort(np.asarray(values, dtype=np.float64)))

    def merge(self, other: "GridCounts") -> "GridCounts":
        """Absorb another accumulator folded on the same grid.

        Per-edge counters are additive: after growing to the wider
        coverage, ``other``'s counters are padded with ``other.count``
        beyond its own coverage (every edge there exceeds its max folded
        value) and summed in. The merged state is bit-identical to
        folding both value streams into one instance, in any order.
        """
        if other.interval != self.interval or other.start != self.start:
            raise ValueError(
                "cannot merge GridCounts on different grids: "
                f"({self.start}, {self.interval}) vs "
                f"({other.start}, {other.interval})"
            )
        self._grow_to(other._k)
        k = self._k
        for name in ("_lt", "_le"):
            theirs = np.full(k, other._n, dtype=np.int64)
            theirs[: other._k] = getattr(other, name)[: other._k]
            getattr(self, name)[:k] += theirs
        self._n += other._n
        if other._max > self._max:
            self._max = other._max
        return self

    def state_dict(self) -> dict:
        """JSON-ready snapshot of the counters (see :meth:`from_state`)."""
        return {
            "interval": self.interval,
            "start": self.start,
            "lt": self._lt[: self._k].tolist(),
            "le": self._le[: self._k].tolist(),
            "count": self._n,
            "max_value": None if np.isinf(self._max) else float(self._max),
        }

    @classmethod
    def from_state(cls, state: dict) -> "GridCounts":
        """Rebuild an accumulator from a :meth:`state_dict` payload."""
        grid = cls(state["interval"], start=state["start"])
        grid._lt = np.asarray(state["lt"], dtype=np.int64).copy()
        grid._le = np.asarray(state["le"], dtype=np.int64).copy()
        grid._k = int(grid._lt.size)
        grid._n = int(state["count"])
        max_value = state.get("max_value")
        grid._max = -np.inf if max_value is None else float(max_value)
        return grid

    def _lt_on(self, k: int) -> np.ndarray:
        """``# < edge`` for the first ``k`` final-grid edges (padded)."""
        out = np.full(k, self._n, dtype=np.int64)
        m = min(k, self._k)
        out[:m] = self._lt[:m]
        return out

    def counts_on(self, edges: np.ndarray) -> np.ndarray:
        """``np.histogram(all values, bins=edges)`` counts, bit-identical.

        ``edges`` must be the final grid from :func:`time_edges` /
        :func:`span_edges` with this accumulator's start and interval
        (any edges beyond the folded coverage count as empty buckets).
        """
        k = int(edges.size)
        if k < 2:
            return np.zeros(0, dtype=np.int64)
        cum = self._lt_on(k)
        # np.histogram closes the last bin: its boundary count is <=.
        cum[k - 1] = self._le[k - 1] if k <= self._k else self._n
        return np.diff(cum)

    def cumulative_on(self, edges: np.ndarray) -> np.ndarray:
        """``searchsorted(sorted values, edges, 'right')``, bit-identical.

        This is the cumulative-completions view the Fig 1b curve needs:
        the count of values at or below each edge, int64.
        """
        k = int(edges.size)
        out = np.full(k, self._n, dtype=np.int64)
        m = min(k, self._k)
        out[:m] = self._le[:m]
        return out
