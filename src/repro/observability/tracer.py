"""Phase-aware tracing: spans, traces, and the no-op default.

The paper's metrics need to know *where time and work go* — training vs.
adaptation vs. serving vs. reporting, plus injected fault handling — so
every instrumented layer wraps its work in a :class:`Span` tagged with
one of the benchmark phases (:data:`PHASES`). Spans nest; a finished run yields a :class:`Trace`
holding the span forest plus the run's monotonic counters, and the trace
is a JSON-exchangeable artifact like every other benchmark record.

Two tracer implementations share the same duck-typed surface:

* :class:`Tracer` — the real thing. Wall-clock spans (monotonic clock,
  clamped so durations can never be negative), a span stack for nesting,
  and a :class:`~repro.observability.counters.CounterRegistry`.
* :class:`NullTracer` — the default everywhere. Every method is a no-op
  returning a shared singleton context manager, so the driver's batched
  hot path pays one attribute lookup and a ``with`` on a ``__slots__``
  object per *slice* (never per query), and allocates nothing.

Phase accounting uses **self time**: a span contributes its duration
minus its direct children's durations to its own phase, so a serve-phase
segment span containing a train-phase retrain span never double-counts
the retrain seconds as serving time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.observability.counters import CounterRegistry

#: The benchmark's execution phases, in pipeline order; "fault" tags
#: injected-fault handling (stalls, crash recovery) from repro.faults.
PHASES = ("train", "adapt", "serve", "report", "fault")

_PHASE_SET = frozenset(PHASES)


@dataclass
class Span:
    """One timed, phase-tagged unit of work.

    Attributes:
        name: What the work was (e.g. ``"segment:ramp-up"``).
        phase: One of :data:`PHASES`.
        start: Wall-clock start (tracer clock; seconds).
        end: Wall-clock end; equals ``start`` until the span closes.
        attrs: Free-form JSON-friendly annotations (the driver's
            training spans carry ``nominal_seconds`` / ``hardware`` /
            ``virtual_start`` / ``online`` here so cost metrics can
            rebuild measured :class:`~repro.core.phases.TrainingEvent`
            objects from the trace).
        children: Spans opened while this one was the innermost.
    """

    name: str
    phase: str
    start: float
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Wall seconds between open and close (>= 0 by construction)."""
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration not covered by direct children (phase accounting)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant (depth-first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "phase": self.phase,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            phase=data["phase"],
            start=data["start"],
            end=data["end"],
            attrs=dict(data.get("attrs", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


@dataclass
class Trace:
    """A finished run's telemetry: span forest + counters.

    Traces are mergeable (matrix workers each produce one; the manifest
    folds them together) and JSON round-trippable, so a stored manifest
    can be re-analyzed without re-running anything.
    """

    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    def walk(self) -> Iterator[Span]:
        """Every span in the forest, depth-first."""
        for span in self.spans:
            yield from span.walk()

    def phase_seconds(self) -> Dict[str, float]:
        """Wall seconds per phase (self-time attribution; see module doc).

        Every known phase is present in the result (0.0 when unused), so
        rollups and reports have a stable shape.
        """
        totals = dict.fromkeys(PHASES, 0.0)
        for span in self.walk():
            totals[span.phase] = totals.get(span.phase, 0.0) + span.self_seconds
        return totals

    def counter(self, name: str, default: float = 0) -> float:
        """Value of one counter (``default`` when absent)."""
        return self.counters.get(name, default)

    def merge(self, other: "Trace") -> "Trace":
        """New trace: concatenated span forests, summed counters."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        return Trace(spans=list(self.spans) + list(other.spans), counters=counters)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload (inverse of :meth:`from_dict`)."""
        return {
            "spans": [s.to_dict() for s in self.spans],
            "counters": dict(self.counters),
            "phase_seconds": self.phase_seconds(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output.

        ``phase_seconds`` in the payload is derived data and ignored on
        load (it is recomputed from the spans).
        """
        return cls(
            spans=[Span.from_dict(s) for s in data.get("spans", [])],
            counters=dict(data.get("counters", {})),
        )


class _SpanContext:
    """Context manager pairing one ``start_span`` with its ``end_span``."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._tracer.end_span()
        return False


class Tracer:
    """Collects nested phase-tagged spans and monotonic counters.

    Args:
        clock: Seconds-returning callable (default
            :func:`time.perf_counter`). Readings are clamped to be
            non-decreasing, so span durations are never negative even
            under an adversarial clock — a property the hypothesis suite
            exercises directly.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._last = float("-inf")
        self._stack: List[Span] = []
        self._roots: List[Span] = []
        self._registry = CounterRegistry()

    # -- time ------------------------------------------------------------------------

    def _now(self) -> float:
        now = float(self._clock())
        if now < self._last:
            return self._last
        self._last = now
        return now

    # -- spans -----------------------------------------------------------------------

    def start_span(self, name: str, phase: str = "serve", **attrs: Any) -> Span:
        """Open a span; it becomes the parent of spans opened after it."""
        if phase not in _PHASE_SET:
            raise ConfigurationError(
                f"unknown phase {phase!r}; expected one of {PHASES}"
            )
        now = self._now()
        span = Span(name=name, phase=phase, start=now, end=now, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self._roots.append(span)
        self._stack.append(span)
        return span

    def end_span(self) -> Optional[Span]:
        """Close the innermost open span (``None`` when nothing is open)."""
        if not self._stack:
            return None
        span = self._stack.pop()
        span.end = self._now()
        return span

    def span(self, name: str, phase: str = "serve", **attrs: Any) -> _SpanContext:
        """``with tracer.span("segment:x", phase="serve"): ...``"""
        return _SpanContext(self, self.start_span(name, phase, **attrs))

    @property
    def open_spans(self) -> int:
        """Depth of the current span stack."""
        return len(self._stack)

    # -- counters --------------------------------------------------------------------

    def counter(self, name: str, delta: float = 1) -> None:
        """Increment monotonic counter ``name`` by ``delta`` (>= 0)."""
        self._registry.increment(name, delta)

    @property
    def counters(self) -> Dict[str, float]:
        """Current counter values (copy)."""
        return self._registry.as_dict()

    # -- completion ------------------------------------------------------------------

    def finish(self) -> Trace:
        """Close any open spans and return the collected :class:`Trace`.

        The tracer stays usable afterwards; spans opened later start a
        fresh forest appended to subsequent :meth:`finish` calls' output.
        """
        while self._stack:
            self.end_span()
        return Trace(spans=list(self._roots), counters=self._registry.as_dict())


class _NullSpanContext:
    """Shared, stateless stand-in for :class:`_SpanContext`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """No-op tracer: the default wherever a tracer can be attached.

    Every call site stays a plain method call on a ``__slots__`` object
    and every ``span`` returns the same shared context manager, so the
    disabled path allocates nothing and costs nanoseconds — the repo
    benchmark (``perf/run.py``) measures the traced run against it as
    each workload's ``trace.overhead_pct``.
    """

    __slots__ = ()

    enabled = False

    def start_span(self, name: str, phase: str = "serve", **attrs: Any) -> None:
        return None

    def end_span(self) -> None:
        return None

    def span(self, name: str, phase: str = "serve", **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def counter(self, name: str, delta: float = 1) -> None:
        return None

    @property
    def counters(self) -> Dict[str, float]:
        return {}

    def finish(self) -> Trace:
        return Trace()


#: Shared no-op tracer instance (stateless, safe to share globally).
NULL_TRACER = NullTracer()
