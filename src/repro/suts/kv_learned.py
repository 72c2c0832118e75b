"""Learned key-value systems under test.

:class:`LearnedKVStore` is the adaptive learned system of the paper's
narrative: a workload-specialized RMI whose leaf capacity follows the
observed access distribution, a KS drift detector watching the query
stream, and a retraining policy that rebuilds the models (charging real
training time) when the distribution moves.

Training budget → model quality is a real mechanism, not a curve: the
offline budget buys leaf-model fanout; fewer leaves mean wider measured
error bounds mean more storage blocks touched per lookup. Fig 1d sweeps
exactly this lever.

:class:`StaticLearnedKVStore` disables adaptation after the initial
training — the "overfit to the benchmark" strawman Lesson 1 warns about:
unbeatable on the distribution it trained for, degrading badly when the
distribution moves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.indexes.rmi import RecursiveModelIndex
from repro.learned.drift_detector import DriftDetector, DriftVerdict
from repro.suts.cost_models import KVCostModel
from repro.suts.kv_base import KVStoreBase
from repro.workloads.generators import KVQuery


class LearnedKVStore(KVStoreBase):
    """Adaptive learned KV store (workload-specialized RMI).

    Args:
        name: SUT name.
        max_fanout: Leaf-model count a full training budget buys.
        cost_model: Cost constants (shared across compared SUTs).
        adapt: Enable drift detection + online retraining.
        drift_window: Drift-detector window size (observations).
        drift_threshold: KS threshold for declaring drift.
        retrain_cooldown: Minimum virtual seconds between online retrains.
        access_sample_size: Reservoir of recent accesses used to
            specialize leaf boundaries at retrain time.
        delta_threshold: Buffered inserts that trigger a merge retrain.
    """

    def __init__(
        self,
        name: str = "learned-kv",
        max_fanout: int = 1024,
        cost_model: Optional[KVCostModel] = None,
        adapt: bool = True,
        drift_window: int = 512,
        drift_threshold: float = 0.15,
        retrain_cooldown: float = 5.0,
        access_sample_size: int = 2048,
        delta_threshold: int = 4096,
        expected_access_sample: Optional[np.ndarray] = None,
    ) -> None:
        if max_fanout < 1:
            raise ConfigurationError(f"max_fanout must be >= 1, got {max_fanout}")
        super().__init__(
            name,
            RecursiveModelIndex(fanout=max_fanout, max_delta=None),
            cost_model=cost_model,
        )
        self.max_fanout = max_fanout
        self.adapt = adapt
        self.retrain_cooldown = retrain_cooldown
        self.delta_threshold = delta_threshold
        self._detector = DriftDetector(window=drift_window, threshold=drift_threshold)
        self._recent_accesses: Deque[float] = deque(maxlen=access_sample_size)
        self._retrain_requested = False
        self._last_retrain_at = -float("inf")
        self._trained_fanout = max_fanout
        # What the operator *expects* the workload to look like; used to
        # specialize at offline-training time, before any query has been
        # observed. Training on the benchmark's published distribution is
        # precisely the overfitting scenario Lesson 1 warns about.
        self._expected_access_sample = (
            np.asarray(expected_access_sample, dtype=np.float64)
            if expected_access_sample is not None
            else None
        )

    def attach_tracer(self, tracer) -> None:
        """Propagate the run tracer into the drift detector."""
        super().attach_tracer(tracer)
        self._detector.tracer = tracer

    # -- typed view of the index ---------------------------------------------------

    @property
    def rmi(self) -> RecursiveModelIndex:
        """The underlying RMI."""
        assert isinstance(self.index, RecursiveModelIndex)
        return self.index

    @property
    def trained_fanout(self) -> int:
        """Fanout the last training session could afford."""
        return self._trained_fanout

    # -- training --------------------------------------------------------------------

    def _full_budget(self) -> float:
        return self.cost_model.full_retrain_seconds(max(1, self.stored_keys))

    def offline_train(self, budget_seconds: float) -> float:
        """Spend the budget on leaf fanout and retrain the RMI.

        A budget covering the full rebuild buys ``max_fanout`` leaves;
        smaller budgets buy proportionally fewer, and the resulting wider
        error bounds are *measured*, not assumed.
        """
        if budget_seconds <= 0:
            return 0.0
        full = self._full_budget()
        fraction = min(1.0, budget_seconds / full)
        fanout = max(1, int(round(self.max_fanout * fraction)))
        used = full * (fanout / self.max_fanout)
        with self.tracer.span("kv.offline-retrain", phase="train", fanout=fanout):
            self._retrain(fanout)
        self.tracer.counter("kv.retrains")
        self.training.add(used)
        return used

    def _retrain(self, fanout: int) -> None:
        if len(self._recent_accesses) >= fanout:
            sample: Optional[np.ndarray] = np.asarray(self._recent_accesses)
        elif (
            self._expected_access_sample is not None
            and len(self._expected_access_sample) >= fanout
        ):
            sample = self._expected_access_sample
        else:
            sample = None
        self.rmi.set_fanout(fanout)
        self.rmi.retrain(access_sample=sample)
        self._trained_fanout = fanout
        if sample is not None:
            self._detector.reset_reference(sample)

    # -- adaptation --------------------------------------------------------------------

    def _after_execute(self, query: KVQuery, now: float) -> None:
        self._recent_accesses.append(query.key)
        if not self.adapt:
            return
        verdict = self._detector.observe(query.key)
        if verdict == DriftVerdict.DRIFTED:
            self._retrain_requested = True
        if self.rmi.delta_size > self.delta_threshold:
            self._retrain_requested = True

    def _after_execute_slice(self, batch, a: int, b: int) -> None:
        """Vectorized observer: same end state as per-query hooks.

        ``_retrain_requested`` is sticky and only read at ``on_tick``, and
        the delta buffer cannot change during a read run, so batching the
        detector feed is exact. The access reservoir keeps only its last
        ``maxlen`` keys, so only those are copied into it.
        """
        keys = batch.keys[a:b]
        self._recent_accesses.extend(keys[-self._recent_accesses.maxlen :].tolist())
        if not self.adapt:
            return
        if self._detector.observe_many(keys):
            self._retrain_requested = True
        if self.rmi.delta_size > self.delta_threshold:
            self._retrain_requested = True

    def on_tick(self, now: float) -> Optional[float]:
        """Perform a pending online retrain (charging nominal time)."""
        if not self.adapt or not self._retrain_requested:
            return None
        if now - self._last_retrain_at < self.retrain_cooldown:
            return None
        self._retrain_requested = False
        self._last_retrain_at = now
        fanout = self._trained_fanout if self._trained_fanout > 1 else self.max_fanout
        nominal = self._full_budget() * (fanout / self.max_fanout)
        with self.tracer.span("kv.online-retrain", phase="adapt", fanout=fanout):
            self._retrain(fanout)
        self.tracer.counter("kv.retrains")
        self.tracer.counter("kv.online_retrains")
        self.training.add(nominal)
        return nominal

    def on_crash(self, now: float) -> Optional[float]:
        """Cold restart after a :class:`~repro.faults.CrashFault`.

        Warm state dies with the process: the recent-access reservoir
        and the drift detector's windows are cleared (durable key/value
        data survives). The store then rebuilds its RMI from scratch —
        with no observed accesses left, :meth:`_retrain` falls back to
        the operator's expected sample or an unspecialized index — and
        the cold rebuild's nominal time is returned for the driver to
        charge as outage-extending training.
        """
        self._recent_accesses.clear()
        self._detector.reset_reference(None)
        self._retrain_requested = False
        self._last_retrain_at = now
        fanout = self._trained_fanout if self._trained_fanout > 1 else self.max_fanout
        nominal = self._full_budget() * (fanout / self.max_fanout)
        with self.tracer.span("kv.crash-retrain", phase="fault", fanout=fanout):
            self._retrain(fanout)
        self.tracer.counter("kv.retrains")
        self.tracer.counter("kv.crash_retrains")
        self.training.add(nominal)
        return nominal

    def describe(self) -> dict:
        out = super().describe()
        out.update(
            max_fanout=self.max_fanout,
            trained_fanout=self._trained_fanout,
            adapt=self.adapt,
            drift_checks=self._detector.checks,
            drifts_detected=self._detector.drifts_detected,
        )
        return out


class StaticLearnedKVStore(LearnedKVStore):
    """Learned KV store that never adapts after initial training.

    The Lesson-1 strawman: specialize once, then hope the benchmark never
    changes. Identical to :class:`LearnedKVStore` with ``adapt=False``,
    packaged separately so experiment code reads honestly.
    """

    def __init__(
        self,
        name: str = "static-learned-kv",
        max_fanout: int = 1024,
        cost_model: Optional[KVCostModel] = None,
        expected_access_sample: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(
            name=name,
            max_fanout=max_fanout,
            cost_model=cost_model,
            adapt=False,
            expected_access_sample=expected_access_sample,
        )
