"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the specific failure mode when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent parameters."""


class TraceFormatError(ConfigurationError):
    """An on-disk query trace violated the versioned trace format.

    Raised by :func:`repro.workloads.trace.load_trace` (and the
    :class:`~repro.workloads.trace.QueryTrace` validator) for malformed
    files: missing or unknown columns, unknown operations, non-monotone
    or non-finite values, or a format version newer than this build.
    Subclasses :class:`ConfigurationError` so existing callers that
    catch configuration problems keep working.
    """


class KeyNotFoundError(ReproError, KeyError):
    """A point lookup targeted a key that is not present in the index."""

    def __init__(self, key: object) -> None:
        super().__init__(f"key not found: {key!r}")
        self.key = key


class NotTrainedError(ReproError):
    """A learned component was used before its model was trained."""


class SchemaError(ReproError):
    """A relational operation referenced a column or type incorrectly."""


class PlanError(ReproError):
    """A query plan was malformed or could not be executed."""


class ScenarioError(ReproError):
    """A benchmark scenario definition was invalid."""


class HoldoutViolationError(ReproError):
    """A sealed hold-out scenario was accessed in a way the rules forbid.

    The paper proposes hold-out workloads "that the system is only allowed
    to execute once" to measure out-of-sample performance; this error
    enforces that contract.
    """


class TenancyError(ReproError):
    """A multi-tenant serve request was invalid or inconsistent.

    Raised by :class:`~repro.core.tenancy.BenchmarkServer` for malformed
    tenant specs (no scenario, unknown hold-out, bad admission knobs) —
    the request-level failures that should surface before any tenant
    burns CPU time or hold-out budget.
    """


class DriverError(ReproError):
    """The benchmark driver encountered an unrecoverable condition."""


class RunnerError(ReproError):
    """The matrix runner was misconfigured or could not complete."""
