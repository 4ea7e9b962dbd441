"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the subsystem that failed.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "DeadlockError",
    "ResourceError",
    "StorageError",
    "StorageFullError",
    "TransientIOError",
    "FileFormatError",
    "CalibrationError",
    "ModelError",
    "PipelineError",
    "MeterError",
    "ConfigurationError",
    "FaultError",
    "Interrupt",
    "NodeCrashError",
    "OperationTimeoutError",
    "RetryExhaustedError",
    "SweepError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An object was constructed with inconsistent or out-of-range parameters."""


class SimulationError(ReproError):
    """The discrete-event engine reached an invalid state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class ResourceError(SimulationError):
    """Misuse of a simulated resource (double release, negative request...)."""


class StorageError(ReproError):
    """A simulated storage operation failed."""


class StorageFullError(StorageError):
    """A write would exceed the capacity of the storage cluster."""


class FileFormatError(ReproError):
    """An nclite container or PNG stream is malformed."""


class CalibrationError(ReproError):
    """The model calibration system is singular or ill-conditioned."""


class ModelError(ReproError):
    """A model query was made outside the model's domain of validity."""


class PipelineError(ReproError):
    """A visualization pipeline was driven through an invalid sequence."""


class MeterError(ReproError):
    """A power meter was sampled outside the recorded window."""


class TransientIOError(StorageError):
    """A storage operation failed in a way a retry may fix (injected faults).

    This is the *retryable* storage failure: :class:`~repro.faults.RetryPolicy`
    re-attempts operations that raise it, while permanent failures such as
    :class:`StorageFullError` propagate immediately.
    """


class FaultError(ReproError):
    """Base class for injected-failure and resilience errors."""


class Interrupt(FaultError):
    """Thrown into a DES process by :meth:`~repro.events.engine.Process.interrupt`.

    ``cause`` carries whatever the interruptor passed (may be ``None``).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class NodeCrashError(FaultError):
    """A compute-node crash killed the in-flight pipeline attempt.

    Recoverable through checkpoint/restart (see :mod:`repro.faults`); fatal
    when no checkpoint policy is active.
    """


class OperationTimeoutError(FaultError):
    """A storage/IO operation exceeded its per-operation timeout."""


class RetryExhaustedError(FaultError):
    """A retried operation failed on every allowed attempt."""


class SweepError(ReproError):
    """A sweep settled with one or more failed tasks.

    Raised by the ``abort`` fail-policy (and by aggregators like
    ``run_characterization`` that cannot tolerate missing cells).
    ``failures`` holds the structured per-task failure records; ``results``
    the full result list (failed entries carry ``RunResult.failure``).
    """

    def __init__(self, message: str, failures=None, results=None) -> None:
        super().__init__(message)
        self.failures = list(failures or [])
        self.results = list(results or [])
