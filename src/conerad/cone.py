"""Finite-dimensional ordered vector space over the nonnegative orthant.

Provides the positive-part hull ``psi_hull``, the symmetric ``diamond_norm``
and the order norm ``u_norm``, which the program runs on, and the cone order
``leq``, the lattice ``meet`` and the lower ratio ``lower_ratio``, which no
program path calls.  Only monotone norms (L1, LInf, weighted L1) are
supported, so every functional has an exact entrywise closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBoundError, DimensionError


class NormKind(enum.Enum):
    L1 = "l1"
    LINF = "linf"
    WEIGHTED = "weighted"  # weighted L1 with strictly positive weights


def _as_float_vector(values, name: str = "vector", block: bool = False) -> np.ndarray:
    """values as a finite float vector, or also as a 2-D block when ``block``."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 and not (block and arr.ndim == 2):
        kind = "a vector or a column block" if block else "one-dimensional"
        raise DimensionError(f"{name} must be {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return arr


@dataclass(frozen=True)
class ConeSpace:
    """Dimension plus norm choice; the cone itself is the nonnegative orthant."""

    dim: int
    norm_kind: NormKind = NormKind.L1
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {self.dim}")
        if isinstance(self.norm_kind, str):
            object.__setattr__(self, "norm_kind", NormKind(self.norm_kind))
        if self.norm_kind is NormKind.WEIGHTED:
            if self.weights is None:
                raise ValueError("weighted norm requires a weights vector")
            w = _as_float_vector(self.weights, "weights")
            if w.shape[0] != self.dim:
                raise DimensionError("weights length does not match dimension")
            if np.any(w <= 0):
                raise ValueError("weights must be strictly positive")
            w = w.copy()
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError("weights are only meaningful for the weighted norm")

    def norm(self, x):
        """Norm of a raw real vector (may have negative entries), or the
        array of column norms of a (dim, k) block."""
        arr = np.asarray(x, dtype=float)
        if arr.shape == (self.dim,):
            # ndarray methods: the cheapest numpy calls, and this path runs
            # once per solver step
            if self.norm_kind is NormKind.L1:
                return float(np.abs(arr).sum())
            if self.norm_kind is NormKind.LINF:
                return float(np.abs(arr).max())
            return float((self.weights * np.abs(arr)).sum())
        if arr.ndim != 2 or arr.shape[0] != self.dim:
            raise DimensionError(f"expected shape ({self.dim},) or ({self.dim}, k), got {arr.shape}")
        a = np.abs(arr)
        if self.norm_kind is NormKind.LINF:
            return a.max(axis=0)
        if self.norm_kind is NormKind.WEIGHTED:
            a = self.weights[:, None] * a
        return a.sum(axis=0)


@dataclass(frozen=True)
class ConeVector:
    """Immutable nonnegative vector; NaN/Inf and negative entries are rejected."""

    entries: np.ndarray = field()

    def __post_init__(self):
        arr = _as_float_vector(self.entries, "entries").copy()
        if np.any(arr < 0):
            raise ValueError("cone membership requires all entries >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_zero(self) -> bool:
        return not np.any(self.entries)

    def to_json(self) -> list:
        return [float(v) for v in self.entries]


def _check_same_dim(x: ConeVector, y: ConeVector) -> None:
    if x.dim != y.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {y.dim}")


def leq(x: ConeVector, y: ConeVector) -> bool:
    """Exact cone order: true iff y - x has no negative entry."""
    _check_same_dim(x, y)
    return bool(np.all(x.entries <= y.entries))


def meet(x: ConeVector, y: ConeVector) -> ConeVector:
    """Entrywise minimum, the lattice greatest lower bound on the orthant."""
    _check_same_dim(x, y)
    return ConeVector(np.minimum(x.entries, y.entries))


def psi_hull(space: ConeSpace, x):
    """Least norm over all vectors dominating x.

    For monotone norms this collapses to the norm of the entrywise positive
    part, so psi is homogeneous, order preserving, subadditive, 1-Lipschitz,
    zero exactly on the negative orthant, and strictly positive on nonzero
    cone vectors.  A (dim, k) block gives the array of its column values.
    """
    return space.norm(np.maximum(_as_float_vector(x, "x", block=True), 0.0))


def diamond_norm(space: ConeSpace, x):
    """max(psi(x), psi(-x)): an equivalent norm that is monotone on the cone.
    A (dim, k) block gives the array of its column values."""
    arr = _as_float_vector(x, "x", block=True)
    pos, neg = space.norm(np.maximum(arr, 0.0)), space.norm(np.maximum(-arr, 0.0))
    return max(pos, neg) if arr.ndim == 1 else np.maximum(pos, neg)


def u_norm(x: ConeVector, u: ConeVector) -> float:
    """Least c with x <= c*u, or +inf when x is not u-bounded.

    On the orthant this is the max of x_i/u_i over the support of u,
    provided x vanishes wherever u does.
    """
    _check_same_dim(x, u)
    if u.is_zero():
        raise DegenerateBoundError("order bound u must be nonzero")
    sup = u.entries > 0
    if np.any(x.entries[~sup] != 0):
        return float("inf")
    if not np.any(x.entries[sup]):
        return 0.0
    return float(np.max(x.entries[sup] / u.entries[sup]))


def lower_ratio(x: ConeVector, u: ConeVector) -> float:
    """Largest beta with beta*u <= x: the min of x_i/u_i over the support of u."""
    _check_same_dim(x, u)
    if u.is_zero():
        raise DegenerateBoundError("order bound u must be nonzero")
    sup = u.entries > 0
    return float(np.min(x.entries[sup] / u.entries[sup]))
