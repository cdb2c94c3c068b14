"""Exception hierarchy shared across the toolkit.

Every error raised by the library derives from :class:`EtlwatchError`, so
callers (including the CLI) can distinguish domain failures from bugs.
"""

from __future__ import annotations


class EtlwatchError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolationError(EtlwatchError):
    """An argument violated a documented precondition (shapes, ranges, ...)."""


class EncodingError(EtlwatchError):
    """An event field could not be encoded into the feature schema."""

    def __init__(self, field: str, value: object) -> None:
        super().__init__(f"cannot encode field {field!r}: unknown value {value!r}")
        self.field = field
        self.value = value

    def __reduce__(self):  # pickle by the arguments, so it crosses a process boundary
        return type(self), (self.field, self.value)


class InsufficientDataError(EtlwatchError):
    """Too few samples to perform the requested computation."""


class NumericalError(EtlwatchError):
    """A computation produced a non-finite intermediate or result."""


class TrainingDivergedError(EtlwatchError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, learning_rate: float) -> None:
        super().__init__(
            f"training diverged at epoch {epoch} (learning_rate={learning_rate})"
        )
        self.epoch = epoch
        self.learning_rate = learning_rate

    def __reduce__(self):
        return type(self), (self.epoch, self.learning_rate)


class UndefinedMetricError(EtlwatchError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class ModelLoadError(EtlwatchError):
    """Base class for model-file validation failures."""


class ModelVersionError(ModelLoadError):
    """The model file declares a format version this build does not read."""


class ModelFormatError(ModelLoadError):
    """The model file is truncated or not parseable."""


class ModelShapeError(ModelLoadError):
    """The model file's declared dimensions contradict its stored arrays."""
