"""What the SUT sees of the driver, call by call, is pinned.

The driver may settle the queue wherever it likes, but the system under
test must receive the same ``execute_batch`` calls (first arrival, row
count), the same ``on_tick`` calls and the same ``on_crash`` calls, in
the same order, as before queue blocks were decoupled from execute
blocks. The digests below were taken at the parent commit (46c6936) on
``test_tick_contract``'s scenario for a ``LearnedKVStore``.
"""

from __future__ import annotations

import hashlib

import pytest
from tests.core.test_tick_contract import INTERVALS, PLAN, _learned, _scenario

from repro.core.driver import VirtualClockDriver


class _CallLog:
    """Delegating proxy that logs every driver-to-SUT call it forwards."""

    def __init__(self, sut):
        self._sut = sut
        self.log = []

    def __getattr__(self, name):
        return getattr(self._sut, name)

    def execute_batch(self, batch, now):
        self.log.append(("execute", now, len(batch)))
        return self._sut.execute_batch(batch, now)

    def on_tick(self, now):
        nominal = self._sut.on_tick(now)
        self.log.append(("tick", now, nominal))
        return nominal

    def on_crash(self, now):
        nominal = self._sut.on_crash(now)
        self.log.append(("crash", now, nominal))
        return nominal


def _call_log(interval, faulted):
    sut = _CallLog(_learned())
    VirtualClockDriver().run(sut, _scenario(interval, PLAN if faulted else None))
    return sut.log


#: ``sha256(repr(log))[:16]`` of every case at the parent commit.
PARENT_CALL_DIGESTS = {
    (0.1, False): '120de2ef031019f8',
    (0.1, True): '491a26ec93c7f1ee',
    (1.0, False): '2fe428d01805bd21',
    (1.0, True): '7b6af84ca459a02e',
    (2.0, False): '01e71da66c504bcd',
    (2.0, True): '17ff2fc407ff7f3c',
}


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("interval", INTERVALS)
def test_sut_calls_equal_the_parent_commit(interval, faulted):
    log = _call_log(interval, faulted)
    kinds = {kind for kind, *_ in log}
    assert {"execute", "tick"} <= kinds
    assert ("crash" in kinds) == faulted
    # Not vacuous: some interrupt retrains and some tick does nothing.
    nominals = [nominal for kind, _, nominal in log if kind != "execute"]
    assert any(nominals) and None in nominals
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    assert digest == PARENT_CALL_DIGESTS[interval, faulted]
