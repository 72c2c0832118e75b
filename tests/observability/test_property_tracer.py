"""Property tests for the tracer (hypothesis).

Three invariants the rest of the stack leans on:

* span durations are never negative, whatever the clock does and however
  opens and closes interleave (the monotonic clamp);
* a child span's [start, end] always nests inside its parent's;
* counter merging is associative (matrix workers can be folded in any
  grouping and produce the same fleet totals).
"""

from __future__ import annotations

import math

from hypothesis import example, given
from hypothesis import strategies as st

from repro.observability import CounterRegistry, Trace, Tracer

# Clock readings: any finite floats, including decreasing sequences.
clocks = st.lists(
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=40,
)

# An interleaving program: True = open a span, False = close one.
programs = st.lists(st.booleans(), min_size=1, max_size=40)


class ReplayClock:
    """Replays scripted readings, then repeats the final one."""

    def __init__(self, readings):
        self._readings = list(readings)
        self._i = 0

    def __call__(self) -> float:
        value = self._readings[min(self._i, len(self._readings) - 1)]
        self._i += 1
        return value


def _run_program(program, readings) -> Trace:
    tracer = Tracer(clock=ReplayClock(readings))
    phases = ("train", "adapt", "serve", "report")
    for step, do_open in enumerate(program):
        if do_open:
            tracer.start_span(f"s{step}", phase=phases[step % 4])
        else:
            tracer.end_span()  # may be a no-op on an empty stack
    return tracer.finish()


@given(program=programs, readings=clocks)
def test_no_negative_durations(program, readings):
    trace = _run_program(program, readings)
    for span in trace.walk():
        assert span.duration >= 0.0
        assert span.self_seconds >= 0.0


@given(program=programs, readings=clocks)
def test_children_nest_within_parents(program, readings):
    trace = _run_program(program, readings)
    for span in trace.walk():
        for child in span.children:
            assert span.start <= child.start
            assert child.end <= span.end


@given(program=programs, readings=clocks)
@example(
    program=[True, True],
    readings=[-414885849.0, -1.4004155397415161, -0.8341104984283447, 658855976.00021],
)
def test_phase_seconds_bounded_by_total_duration(program, readings):
    # Self-time attribution partitions each root span's duration, so the
    # phase totals can never exceed the sum of root durations. That is
    # exact in real arithmetic; in float64 each span adds a handful of
    # roundings (its duration, child sum, self time, phase and root
    # totals), none larger than one ulp of the largest total. Readings
    # reach 1e9, where an ulp is 2.4e-7, so the slack must be relative.
    trace = _run_program(program, readings)
    total_roots = sum(s.duration for s in trace.spans)
    slack = 4 * sum(1 for _ in trace.walk()) * math.ulp(total_roots)
    assert sum(trace.phase_seconds().values()) <= total_roots + slack


# Integer deltas: event tallies are counts, and exact integer addition is
# what makes the associativity below hold bit-for-bit.
counter_maps = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=10**12),
    max_size=4,
)


@given(a=counter_maps, b=counter_maps, c=counter_maps)
def test_counter_merge_associative(a, b, c):
    ra, rb, rc = CounterRegistry(a), CounterRegistry(b), CounterRegistry(c)
    left = ra.merge(rb).merge(rc).as_dict()
    right = ra.merge(rb.merge(rc)).as_dict()
    assert left == right


@given(a=counter_maps, b=counter_maps)
def test_counter_merge_commutative_keys(a, b):
    ra, rb = CounterRegistry(a), CounterRegistry(b)
    ab = ra.merge(rb).as_dict()
    ba = rb.merge(ra).as_dict()
    assert ab == ba


@given(a=counter_maps, b=counter_maps, c=counter_maps)
def test_trace_merge_associative_counters(a, b, c):
    ta, tb, tc = Trace(counters=a), Trace(counters=b), Trace(counters=c)
    left = ta.merge(tb).merge(tc)
    right = ta.merge(tb.merge(tc))
    assert left.counters == right.counters
