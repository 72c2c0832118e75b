"""Sealed hold-out scenarios (§V-A of the paper).

"We propose to include hold-out workload and data distributions that the
system is only allowed to execute once. In doing so, the benchmark could
measure out-of-sample performance."

:class:`HoldoutRegistry` enforces that contract in-process: scenarios are
registered sealed (only their fingerprint is exposed), and each SUT name
may run each hold-out exactly once. Inspecting a sealed scenario's
contents or re-running it raises
:class:`~repro.errors.HoldoutViolationError`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.scenario import Scenario
from repro.errors import HoldoutViolationError, ScenarioError


class HoldoutRegistry:
    """Holds sealed scenarios; enforces single-shot evaluation."""

    def __init__(self) -> None:
        """Start with no sealed scenarios and no consumed pairs."""
        self._scenarios: Dict[str, Scenario] = {}
        self._consumed: Set[Tuple[str, str]] = set()

    def register(self, scenario: Scenario) -> str:
        """Seal ``scenario``; returns its fingerprint.

        Raises:
            ScenarioError: If a different scenario already uses the name.
        """
        existing = self._scenarios.get(scenario.name)
        if existing is not None and existing.fingerprint() != scenario.fingerprint():
            raise ScenarioError(
                f"hold-out name {scenario.name!r} already registered "
                "with different contents"
            )
        self._scenarios[scenario.name] = scenario
        return scenario.fingerprint()

    def names(self) -> List[str]:
        """Names of the sealed scenarios (contents stay hidden)."""
        return sorted(self._scenarios.keys())

    def fingerprint(self, name: str) -> str:
        """Fingerprint of a sealed scenario (safe to publish)."""
        self._require(name)
        return self._scenarios[name].fingerprint()

    def checkout(self, name: str, sut_name: str) -> Scenario:
        """Hand the sealed scenario over for a single evaluation run.

        Raises:
            HoldoutViolationError: If ``sut_name`` already evaluated it.
        """
        self._require(name)
        key = (name, sut_name)
        if key in self._consumed:
            raise HoldoutViolationError(
                f"SUT {sut_name!r} already executed hold-out {name!r}; "
                "hold-outs may run exactly once per system"
            )
        self._consumed.add(key)
        return self._scenarios[name]

    def release(self, name: str, sut_name: str) -> None:
        """Refund a checkout that never produced a result.

        :class:`~repro.core.tenancy.BenchmarkServer` calls this for a
        hold-out tenant whose session ends ``"failed"`` (a shard spent
        its retry budget, whether the SUT raised, crashed or timed out)
        and for every checkout of a ``serve`` call that raises. The
        single-shot budget burns only on runs that return a report, so
        a fixed SUT under the same name may run the hold-out again.
        """
        self._consumed.discard((name, sut_name))

    def has_run(self, name: str, sut_name: str) -> bool:
        """Whether ``sut_name`` already consumed hold-out ``name``."""
        return (name, sut_name) in self._consumed

    def _require(self, name: str) -> None:
        if name not in self._scenarios:
            raise ScenarioError(
                f"unknown hold-out {name!r}; registered: {self.names()}"
            )
