"""The system-under-test interface.

§IV of the paper requires the benchmark to work "without imposing
architectural, configuration, or runtime constraints" and to remain
"agnostic to the differences across systems". :class:`SystemUnderTest`
is therefore a thin lifecycle contract:

* ``setup(pairs)`` — load the initial database.
* ``offline_train(budget)`` — optional upfront/between-segment training;
  the SUT reports how much of the nominal budget it actually used.
* ``execute(query, now)`` — perform one query and return its service
  time in virtual seconds.
* ``on_tick(now)`` — periodic hook (≈1 virtual second); the SUT may
  request an *online* retrain by returning nominal training seconds,
  which the driver charges as blocking server time. Override
  ``on_tick`` to receive ticks: a SUT that leaves the default in place
  is never ticked (:attr:`SystemUnderTest.listens_to_ticks`).

Concrete SUTs live in :mod:`repro.suts`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.observability import NULL_TRACER
from repro.workloads.generators import KVQuery, QueryBatch


@dataclass
class TrainingSummary:
    """Cumulative training accounting a SUT maintains about itself.

    Attributes:
        nominal_seconds: Total nominal CPU-seconds of training consumed.
        sessions: Number of distinct training sessions (offline + online).
    """

    nominal_seconds: float = 0.0
    sessions: int = 0

    def add(self, nominal_seconds: float) -> None:
        """Record one training session."""
        self.nominal_seconds += max(0.0, nominal_seconds)
        self.sessions += 1


class KeyColumnPairs(Sequence):
    """Read-only ``[(key, value), ...]`` sequence over a float64 key column.

    What the driver hands to ``setup`` and ``inject``: ``len``,
    iteration, indexing and slicing behave like the list of
    ``(float(key), value)`` tuples without building it, and loaders that
    work on arrays read :attr:`key_column` / :attr:`values` directly.

    Args:
        keys: The keys, in load order (copied; the column is immutable).
        values: One value per key; default: each key's rank ``0..n-1``,
            as a ``range``. Held, not copied: a load of strictly
            ascending keys may keep this very sequence as the index's
            read-only values (the B+ tree and the delta layer do), so do
            not write to it after handing it over.
    """

    __slots__ = ("key_column", "values")

    def __init__(self, keys, values: Optional[Sequence] = None) -> None:
        """Freeze ``keys`` into the backing column."""
        self.key_column = np.array(keys, dtype=np.float64)
        self.key_column.setflags(write=False)
        self.values = range(self.key_column.size) if values is None else values

    def __len__(self) -> int:
        return self.key_column.size

    def __iter__(self):
        return zip(self.key_column.tolist(), self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(zip(self.key_column[i].tolist(), self.values[i]))
        return self.key_column.item(i), self.values[i]


class SystemUnderTest(ABC):
    """Lifecycle contract between the benchmark driver and a system."""

    def __init__(self, name: str) -> None:
        """Register the system under ``name`` with fresh bookkeeping."""
        self._name = name
        self.training = TrainingSummary()
        self.tracer = NULL_TRACER

    @property
    def name(self) -> str:
        """Identifier used in results and hold-out bookkeeping."""
        return self._name

    def attach_tracer(self, tracer) -> None:
        """Adopt the driver's tracer for the duration of a run.

        The driver calls this at run start; the default stores the
        tracer on ``self.tracer`` (a :data:`~repro.observability.NULL_TRACER`
        until then, so SUT code can always emit spans/counters without
        checking). Subclasses holding learned components override this
        to propagate the tracer into them.
        """
        self.tracer = tracer

    # -- lifecycle ----------------------------------------------------------------

    @abstractmethod
    def setup(self, pairs: List[Tuple[float, object]]) -> None:
        """Load the initial database contents."""

    @abstractmethod
    def execute(self, query: KVQuery, now: float) -> float:
        """Execute ``query`` at virtual time ``now``; return service time
        in virtual seconds (> 0)."""

    def execute_batch(self, batch: QueryBatch, now: float) -> np.ndarray:
        """Execute a :class:`QueryBatch`; return per-query service times.

        ``now`` is the virtual time of the batch's first arrival; each
        query is executed at its own arrival time. The default loops over
        :meth:`execute`, so SUTs that only implement the scalar interface
        work unchanged; vectorized SUTs override this for speed. Results
        must be identical to the scalar loop.
        """
        return np.asarray(
            [
                self.execute(batch.query(i), float(batch.arrivals[i]))
                for i in range(len(batch))
            ],
            dtype=np.float64,
        )

    def offline_train(self, budget_seconds: float) -> float:
        """Use up to ``budget_seconds`` nominal training; return usage.

        Default: no training (traditional systems). Implementations that
        train must also call ``self.training.add(used)``.
        """
        return 0.0

    def inject(self, pairs: List[Tuple[float, object]]) -> None:
        """Bulk-insert data outside the query stream (segment injection).

        The data appears instantaneously — no virtual time is charged —
        but the SUT's learned models are *not* retrained, which is what
        makes injections an adaptability stressor. Default: ignored.
        """

    def on_tick(self, now: float) -> Optional[float]:
        """Periodic hook; return nominal seconds of online training to
        charge now, or ``None``/0 for no training. Default: none."""
        return None

    @property
    def listens_to_ticks(self) -> bool:
        """Whether the driver delivers ticks to this system.

        True when :meth:`on_tick` is overridden in a subclass or patched
        on the instance. The driver cuts batches at ticks only for a
        system that listens; a delegating proxy forwards this attribute,
        and a duck-typed SUT without it is ticked as if it listened.
        """
        return (
            type(self).on_tick is not SystemUnderTest.on_tick
            or "on_tick" in vars(self)
        )

    def on_crash(self, now: float) -> Optional[float]:
        """Crash/restart hook fired by a :class:`~repro.faults.CrashFault`.

        The process has just restarted at virtual time ``now``: the SUT
        should discard warm state that would not survive a restart
        (caches, access history, drift-detector windows). Durable data
        (the stored key/value pairs) survives. Return nominal seconds of
        cold retraining to charge as blocking server time, or
        ``None``/0 if the SUT restarts without retraining. Default: no
        warm state, no retrain (traditional systems).
        """
        return None

    def teardown(self) -> None:
        """Release resources (default: nothing)."""

    # -- introspection -----------------------------------------------------------

    def describe(self) -> dict:
        """JSON-friendly description for reports."""
        return {"name": self.name, "class": type(self).__name__}
