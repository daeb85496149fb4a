"""Exception hierarchy shared by all conerad modules."""

from __future__ import annotations


class ConeRadError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(ConeRadError):
    """Operands have incompatible dimensions, or a matrix is not square."""


class DegenerateBoundError(ConeRadError):
    """A reference vector that must be nonzero (or strictly positive) is not."""


class MapContractError(ConeRadError):
    """A map evaluation violated its contract (left the cone, produced
    non-finite entries, or broke a monotonicity guarantee)."""


class SpectralDomainError(ConeRadError):
    """A resolvent parameter is at or below the estimated spectral radius."""


class TruncationError(ConeRadError):
    """A series was cut off before reaching the requested tolerance.

    Carries the partial sum and diagnostics in ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class InnerIterationError(ConeRadError):
    """An inner fixed-point iteration failed to settle."""


class ZeroLimitError(ConeRadError):
    """The decreasing min-iteration collapsed to zero, certifying that the
    trial rate exceeds the cone spectral radius."""


class KernelMassError(ConeRadError):
    """A migration kernel column carries more than unit mass."""

    def __init__(self, message: str, cell: int | None = None):
        super().__init__(message)
        self.cell = cell


class FieldError(ConeRadError):
    """A per-cell model field is negative, non-finite, or unbounded."""


class ModelContractError(ConeRadError):
    """A population-model evaluation violated one of its certified bounds."""


class ConfigError(ConeRadError):
    """A configuration file is malformed; message names the offending field."""
