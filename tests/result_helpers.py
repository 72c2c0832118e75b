"""Run-result helpers for tests: literal rows in, bitwise equality out.

:func:`rows_to_columns` builds a :class:`~repro.core.results.QueryColumns`
from hand-written ``(arrival, start, completion, op, segment)`` rows
through the driver's own :class:`~repro.core.results.ColumnarRecorder`,
so labels are interned exactly as a run interns them (first-seen
order); :func:`columns_to_rows` decodes columns back into such rows.
:func:`assert_same_result` is the one identity check for two
:class:`~repro.core.results.RunResult` s: pooled against in-process,
cached against executed, traced against untraced.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, List, Sequence

import numpy as np

from repro.core.results import ColumnarRecorder, QueryColumns, RunResult

COLUMNS = ("arrivals", "starts", "completions", "op_codes", "segment_codes")


def rows_to_columns(rows: Sequence[Sequence[Any]]) -> QueryColumns:
    """Columns of ``(arrival, start, completion, op, segment)`` rows, in order."""
    recorder = ColumnarRecorder()
    for segment, run in groupby(rows, key=lambda row: row[4]):
        run = list(run)
        times = np.array([row[:3] for row in run], dtype=np.float64).reshape(-1, 3)
        ops = np.array([recorder.intern_op(row[3]) for row in run], dtype=np.int32)
        recorder.append_block(
            times[:, 0], times[:, 1], times[:, 2], ops,
            recorder.intern_segment(segment),
        )
    return recorder.build()


def columns_to_rows(columns: QueryColumns) -> List[list]:
    """The inverse of :func:`rows_to_columns`: one decoded row per query."""
    return [
        list(row)
        for row in zip(
            columns.arrivals.tolist(),
            columns.starts.tolist(),
            columns.completions.tolist(),
            columns.ops(),
            columns.segment_names(),
        )
    ]


def assert_same_result(got: RunResult, want: RunResult) -> None:
    """``got`` equals ``want`` bit for bit.

    Compares each column's dtype and bytes (so NaN payloads and ``-0.0``
    count), both vocabularies, segments, training events, names and
    both descriptions.
    """
    for name in COLUMNS:
        a, b = getattr(got.columns, name), getattr(want.columns, name)
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        assert a.tobytes() == b.tobytes(), name
    assert got.columns.op_vocab == want.columns.op_vocab
    assert got.columns.segment_vocab == want.columns.segment_vocab
    assert got.segments == want.segments
    assert got.training_events == want.training_events
    assert (got.sut_name, got.scenario_name) == (want.sut_name, want.scenario_name)
    assert got.scenario_description == want.scenario_description
    assert got.sut_description == want.sut_description
