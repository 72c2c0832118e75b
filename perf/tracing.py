"""Outside-in tracing: spans recorded by the benchmark, not the program.

Spans are ``(name, parent, start, end)`` tuples kept in memory and dumped
when the run ends. The traced pass wraps each call into a layer — and,
through :class:`ProxySUT`, each call the driver makes into the SUT — so
no file under ``src/`` needs to know it is being measured. The driver's
self time is its span minus every layer measured inside it
(:meth:`perf.workloads.Workload.layers`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np


class SpanRecorder:
    """In-memory span list with a parent stack."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.spans: List[List] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; spans opened inside it become its children."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self._clock(), None])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][3] = self._clock()

    def duration(self, index: int) -> float:
        """Wall seconds of one span."""
        _, _, start, end = self.spans[index]
        return end - start

    def total(self, name: str) -> float:
        """Summed wall seconds of every span called ``name``."""
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def count(self, name: str) -> int:
        """Number of spans called ``name``."""
        return sum(1 for n, _, _, _ in self.spans if n == name)

    def dump(self) -> List[dict]:
        """JSON-ready span list."""
        return [
            {"name": n, "parent": p, "start": s, "end": e}
            for n, p, s, e in self.spans
        ]


class NoTracing:
    """The untraced pass: every hook is a no-op."""

    program_tracer = None

    @contextmanager
    def span(self, name: str):
        yield None

    def wrap_sut(self, sut):
        return sut


class Tracing:
    """The traced pass: benchmark-side spans plus a proxy around the SUT.

    ``program_tracer`` is handed to the facade only so the program's own
    ``kv.*`` counters can be read back; no span of it is used.
    """

    def __init__(self, program_tracer, read_code: int) -> None:
        self.recorder = SpanRecorder()
        self.program_tracer = program_tracer
        self.read_code = read_code
        self.proxy: Optional[ProxySUT] = None

    def span(self, name: str):
        return self.recorder.span(name)

    def wrap_sut(self, sut):
        self.proxy = ProxySUT(sut, self.recorder, self.read_code)
        return self.proxy


class ProxySUT:
    """Delegating SUT that times the four driver-facing lifecycle calls.

    Everything else (``name``, ``describe``, ``attach_tracer``,
    ``teardown``, ``inject``, ``on_crash`` ...) passes straight through,
    so results are bit-identical to running the bare SUT.
    """

    def __init__(self, sut, recorder: SpanRecorder, read_code: int) -> None:
        self._sut = sut
        self._recorder = recorder
        self._read_code = read_code
        self.batch_queries = 0
        self.read_queries = 0
        self.read_runs = 0

    def __getattr__(self, name):
        return getattr(self._sut, name)

    @property
    def wrapped(self):
        """The bare SUT (for reading ``index.stats`` after the op)."""
        return self._sut

    def setup(self, *args, **kwargs):
        with self._recorder.span("suts.setup"):
            return self._sut.setup(*args, **kwargs)

    def offline_train(self, *args, **kwargs):
        with self._recorder.span("suts.offline_train"):
            return self._sut.offline_train(*args, **kwargs)

    def on_tick(self, *args, **kwargs):
        with self._recorder.span("suts.on_tick"):
            return self._sut.on_tick(*args, **kwargs)

    def execute_batch(self, batch, *args, **kwargs):
        self.batch_queries += len(batch)
        ops = getattr(batch, "ops", None)
        if ops is not None and len(batch):
            reads = np.asarray(ops) == self._read_code
            self.read_queries += int(reads.sum())
            # A run starts at every read whose predecessor is not a read.
            self.read_runs += int(reads[0]) + int((reads[1:] & ~reads[:-1]).sum())
        with self._recorder.span("suts.execute_batch"):
            return self._sut.execute_batch(batch, *args, **kwargs)

    def counters(self) -> Dict[str, float]:
        """The ``suts.*`` times and exact counts gathered so far."""
        rec = self._recorder
        calls = rec.count("suts.execute_batch")
        return {
            "suts.setup_s": rec.total("suts.setup"),
            "suts.offline_train_s": rec.total("suts.offline_train"),
            "suts.execute_batch_s": rec.total("suts.execute_batch"),
            "suts.on_tick_s": rec.total("suts.on_tick"),
            "suts.execute_batch_calls": calls,
            "suts.queries_per_call": self.batch_queries / calls if calls else 0.0,
            "suts.read_run_mean_len": (
                self.read_queries / self.read_runs if self.read_runs else 0.0
            ),
        }
