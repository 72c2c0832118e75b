"""Distribution-drift detection.

Adaptive SUTs need a trigger for retraining. :class:`DriftDetector` keeps
a sliding reference window of observed access keys and compares the most
recent window against it with a two-sample Kolmogorov–Smirnov statistic
— the same test §V-D suggests for measuring data-distribution similarity.
A KS value above the threshold is reported as drift; the caller decides
whether to retrain and then calls :meth:`reset_reference`.

:func:`ks_statistics` is the one KS kernel: it tests any number of
windows against one reference at once, which is how
:meth:`DriftDetector.observe_many` checks every complete window of a
slice in one call.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.observability import NULL_TRACER


class DriftVerdict(enum.Enum):
    """Outcome of a drift check."""

    INSUFFICIENT_DATA = "insufficient-data"
    STABLE = "stable"
    DRIFTED = "drifted"


def ks_statistics(reference: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """Two-sample KS statistic of each row of ``windows`` against ``reference``.

    ``reference`` is sorted, 1-D and not empty; ``windows`` is ``(k, n)``
    with every row sorted. Returns the ``k`` values of ``max |Fa - Fb|``
    over the merged grid of ``reference`` and the row, bit for bit,
    without building that grid. NaN sorts last and ties with NaN, as in
    ``np.sort`` and ``np.searchsorted``.

    Between two distinct row keys ``Fb`` is constant and ``|Fa - c|`` is
    monotone on each side of its minimum, so a reference key there never
    beats the neighbouring row keys. The maximum is therefore reached at a
    row key ``b``, evaluated from the right (``#a <= b``, ``#b <= b``) or
    from the left (``#a < b``, ``#b < b``, the counts at the largest grid
    point below ``b``). Both are the same integer counts the merged grid
    has, divided the same way, so the same floats and the same maximum.
    """
    na = reference.size
    n = windows.shape[1]
    right_a = np.searchsorted(reference, windows, side="right")
    left_a = right_a
    # ``#a < b`` differs from ``#a <= b`` only where ``b`` is a reference key.
    tied = _same(reference[np.maximum(right_a - 1, 0)], windows)
    if tied.any():
        left_a = right_a.copy()
        left_a[tied] = np.searchsorted(reference, windows[tied], side="left")
    # Within a row, ``#b < b`` is the start of b's tie group and ``#b <= b``
    # its end: a running max over group starts, a reversed running min over
    # group ends.
    starts = np.ones(windows.shape, dtype=bool)
    starts[:, 1:] = ~_same(windows[:, 1:], windows[:, :-1])
    ends = np.ones(windows.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    position = np.arange(n)
    left_b = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    right_b = np.minimum.accumulate(
        np.where(ends, position + 1, n)[:, ::-1], axis=1
    )[:, ::-1]
    from_right = np.abs(right_a / na - right_b / n).max(axis=1)
    from_left = np.abs(left_a / na - left_b / n).max(axis=1)
    return np.maximum(from_right, from_left)


def _same(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise equality in sort order: NaN equals NaN."""
    return (x == y) | ((x != x) & (y != y))


class DriftDetector:
    """Two-window KS drift detector over a stream of keys.

    The current window is a fixed ``float64`` buffer with a fill count.
    The first full window becomes the reference; every later full window
    is tested against it with :func:`ks_statistics`. The reference only
    changes on first-window adoption and :meth:`reset_reference`, so
    :meth:`observe_many` checks all complete windows of a call at once
    and still counts exactly what a loop of :meth:`observe` counts.

    Args:
        window: Observations per window (reference and current).
        threshold: KS statistic above which drift is declared. With
            ``window`` samples per side, the ~99% critical value is
            about ``1.63 * sqrt(2 / window)``; the default threshold of
            0.15 is deliberately above that for typical windows so small
            fluctuations don't trigger retraining storms.
    """

    def __init__(self, window: int = 512, threshold: float = 0.15) -> None:
        if window < 16:
            raise ConfigurationError(f"window must be >= 16, got {window}")
        if not 0.0 < threshold < 1.0:
            raise ConfigurationError(f"threshold must be in (0,1), got {threshold}")
        self.window = window
        self.threshold = threshold
        self._reference: Optional[np.ndarray] = None
        self._current = np.empty(window, dtype=np.float64)
        self._filled = 0
        self._checks = 0
        self._drifts = 0
        # Observability sink; the owning SUT swaps in the run tracer via
        # ``attach_tracer``. Counters move once per batch of completed
        # checks (every ``window`` keys), never per observation.
        self.tracer = NULL_TRACER

    @property
    def checks(self) -> int:
        """Number of completed drift checks."""
        return self._checks

    @property
    def drifts_detected(self) -> int:
        """Number of checks that reported drift."""
        return self._drifts

    def observe(self, key: float) -> DriftVerdict:
        """Feed one observed key; returns the verdict for this step.

        :meth:`observe_many` of one key. The verdict is ``DRIFTED`` when
        this key completed a window that tested as drift, otherwise
        ``STABLE`` (or ``INSUFFICIENT_DATA`` before the reference exists).
        """
        adopted = self._reference is not None
        drifted = self.observe_many(np.array([key], dtype=np.float64))
        if not adopted:
            return DriftVerdict.INSUFFICIENT_DATA
        return DriftVerdict.DRIFTED if drifted else DriftVerdict.STABLE

    def observe_many(self, keys) -> bool:
        """Feed many keys at once; return whether any check saw drift.

        Finishes the partial window first; the first full window ever
        seen becomes the reference instead of being tested. Then tests
        the finished window and every complete window left in ``keys``
        in one :func:`ks_statistics` call and buffers the tail. The
        ``checks`` / ``drifts_detected`` counters end identical to
        feeding the keys one at a time.
        """
        keys = np.asarray(keys, dtype=np.float64)
        window = self.window
        start = 0
        finished = None
        if self._filled or self._reference is None:
            start = min(window - self._filled, keys.size)
            self._current[self._filled : self._filled + start] = keys[:start]
            self._filled += start
            if self._filled < window:
                return False
            if self._reference is None:
                self._reference = np.sort(self._current)
            else:
                finished = self._current[None, :]
        complete = (keys.size - start) // window
        stop = start + complete * window
        windows = keys[start:stop].reshape(complete, window)
        if finished is not None:
            windows = np.concatenate([finished, windows])
        self._filled = keys.size - stop
        self._current[: self._filled] = keys[stop:]
        return self._check(windows) if windows.size else False

    def _check(self, windows: np.ndarray) -> bool:
        """Test ``(k, window)`` rows against the reference; count them."""
        ks = ks_statistics(self._reference, np.sort(windows, axis=1))
        drifts = int(np.count_nonzero(ks > self.threshold))
        self._checks += ks.size
        self.tracer.counter("drift.checks", ks.size)
        if drifts:
            self._drifts += drifts
            self.tracer.counter("drift.drifts_detected", drifts)
        return drifts > 0

    def describe(self) -> dict:
        """JSON-friendly description of the detector's configuration.

        Exposes the detection ``window`` and ``threshold`` (plus the
        live check/drift counters) so drift-factor sweeps can correlate
        detection lag with drift intensity. Deliberately *not* folded
        into any SUT's ``describe()`` — that would perturb existing
        result-cache keys.
        """
        return {
            "kind": "DriftDetector",
            "window": self.window,
            "threshold": self.threshold,
            "checks": self._checks,
            "drifts_detected": self._drifts,
        }

    def last_window(self) -> np.ndarray:
        """A copy of the in-progress current window."""
        return self._current[: self._filled].copy()

    def reset_reference(self, reference: Optional[np.ndarray] = None) -> None:
        """Adopt a new reference distribution (e.g., after retraining).

        Args:
            reference: Keys representing the new normal; when ``None``,
                the next full window observed becomes the reference.
        """
        if reference is not None and len(reference) > 0:
            self._reference = np.sort(np.asarray(reference, dtype=np.float64))
        else:
            self._reference = None
        self._filled = 0
