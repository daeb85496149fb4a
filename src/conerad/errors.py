"""Exception hierarchy shared by all conerad modules, and the readers of config fields."""

from __future__ import annotations

import operator
from contextlib import contextmanager
from itertools import chain

import numpy as np


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


@contextmanager
def _field(name: str, where: str):
    """Report a bad value of one field, or one too large to allocate, as a
    ConfigError naming it; where is "config", "input" or "model config"."""
    try:
        yield
    except (ConeRadError, KeyError, MemoryError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where} field '{name}' is invalid: {exc}") from exc


def _require_keys(obj, required, where: str, optional=()) -> None:
    """Check that obj is a mapping holding every required key and no key
    outside required and optional."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(obj).difference(required, optional)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required).difference(obj)
    if missing:
        raise ConfigError(f"{where} is missing required key(s) {sorted(missing)}")


def _integer(value) -> int:
    """value as an int when it is an integer; a bool, a float or a string,
    which int() would coerce or round, raises TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _reals(value, ndim: int | None = None) -> np.ndarray:
    """value, a real or nested lists of reals (ints, floats, numpy numbers) or a
    numeric ndarray, as a float array, of ndim dimensions unless ndim is None.
    A bool or a string anywhere in it, which numpy would coerce, is a TypeError."""
    # a scan of rows' items, one nesting level a pass, that copies no leaf
    rows = [value.ravel().tolist() if isinstance(value, np.ndarray) else [value]]
    kinds = set(map(type, chain.from_iterable(rows)))
    while kinds == {list}:
        rows = list(chain.from_iterable(rows))
        kinds = set(map(type, chain.from_iterable(rows)))
    real = (int, float, np.integer, np.floating)
    bad = {k for k in kinds if k is bool or not issubclass(k, real)}
    if bad:
        leaf = next(x for x in chain.from_iterable(rows) if type(x) in bad)
        raise TypeError(f"expected a number, got {leaf!r}")
    arr = np.asarray(value, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"expected {ndim} dimension(s), got shape {arr.shape}")
    return arr
