"""Cone spectral radius estimation.

The central routine, ``radius_bracket``, is one loop of a normalized power
iteration that maintains a certified Collatz-Wielandt bracket around the
radius; it keeps each iteration's bracket in ``bound_trace`` and returns
[0, 0] as soon as the orbit dies.  One rule gives every
bound: for a probe vector x and m >= 1, the m-th root of the min ratio
(B^m x)_i / x_i over supp x bounds the radius from below (when B^m x > 0
there), and the m-th root of the max ratio bounds it from above (when
x > 0).  Every probe gives every bound it certifies.  The probes are the
iterate y, its support truncations (entries below a relative threshold
zeroed), each of these plus 2^-k u_hat, a shrinking multiple of the
reference vector that makes it strictly positive, and the last few stored
iterates, whose m-step images are multiples of y.  Every individual bound is
certified on its own, so the running max of lowers and min of uppers is a
certified bracket; reported endpoints are rounded outward by a rigorous
floating-point margin.

Each distinct probe vector is evaluated once, one map call per probe.  The
first probe is y itself, so its image B(y) becomes the next power step; a
regularized probe is formed only while 2^-k u_hat is a normal float and
changes the truncation.  On strictly positive problems an iteration costs
two evaluations, B(y) and B(y + 2^-k u_hat), until 2^-k u_hat no longer
changes y, then one.

Maps follow the evaluator contract of ``homog_map``: a vector (n,) or a
column block (n, k) whose columns are evaluated independently.  The
truncated resolvent series runs on a whole block at once, one series per
column, so many probes cost one map call per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeVector
from .errors import (
    DegenerateBoundError,
    DimensionError,
    MapContractError,
    SpectralDomainError,
    TruncationError,
)
from .homog_map import HomogeneousMap

_ORBIT_MEMORY = 8           # on-orbit ratio bounds use powers m = 1.._ORBIT_MEMORY
_TRUNCATION_LEVELS = (0.0, 1e-2, 1e-5, 1e-8, 1e-11)
_TINY = float(np.finfo(float).tiny)     # smallest normal float


@dataclass
class SpectralEstimate:
    """Point estimate of the cone spectral radius with a certified bracket."""

    value: float
    cw_lower: float
    cw_upper: float
    iterations: int
    converged: bool
    log_norm_trace: list = field(default_factory=list)
    # per-iteration (best_lower, best_upper) pairs before outward rounding:
    # trace.csv writes them, result.json does not
    bound_trace: list = field(default_factory=list, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "cw_lower": self.cw_lower,
            "cw_upper": self.cw_upper,
            "iterations": self.iterations,
            "converged": self.converged,
            "log_norm_trace": [float(s) for s in self.log_norm_trace],
        }


def _outward(lo: float, hi: float, dim: int) -> tuple[float, float]:
    # Rigorous margin for the ratio arithmetic: one inner product of length
    # dim plus a handful of scalar ops, each contributing <= eps relatively.
    margin = (dim + 8) * np.finfo(float).eps
    lo_out = lo - margin * max(1.0, abs(lo))
    hi_out = hi + margin * max(1.0, abs(hi)) if math.isfinite(hi) else hi
    return max(lo_out, 0.0), hi_out


def _cw_ratios(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collatz-Wielandt ratios of the probe columns x (n, k) and their images z.

    lower_j is the min of z/x over supp x, or 0 unless z > 0 there; upper_j is
    the max of z/x, or +inf unless x > 0.  With z = B^m x, z >= lower_j x and
    z <= upper_j x, so lower_j^(1/m) <= radius <= upper_j^(1/m).  A ratio that
    overflows is +inf, a vacuous upper bound.  Column-contiguous blocks (the
    transpose of row-stacked vectors) reduce several times faster at large n.
    """
    sup = x > 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = z / x
        lower = np.where(sup, q, math.inf).min(axis=0)
        lower[~np.all((z > 0) | ~sup, axis=0)] = 0.0
        upper = np.where(sup.all(axis=0), q.max(axis=0), math.inf)
    return lower, upper


def radius_bracket(mp: HomogeneousMap, u: ConeVector, tol: float = 1e-8,
                   max_iter: int = 10000, *, _image: np.ndarray | None = None) -> SpectralEstimate:
    """Certified Collatz-Wielandt bracket; the point value is its midpoint,
    or the lower bound while the upper one is infinite.

    Requires a strictly positive start vector so that regularized upper
    probes exist; they shift along u_hat = u / ||u||, where the orbit
    starts.  Convergence is declared on bracket width only.  Inside the
    package a caller that already holds B(u) passes it as _image; the orbit
    then starts at u itself and evaluates no start image.
    ``eigenproblem._certify`` starts it so from the solved eigenvector of the
    perturbed map, for the radius, functional and two-sex assessment paths;
    every bound is a certificate whatever the start.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not np.all(u.entries > 0):
        raise DegenerateBoundError("radius_bracket requires a strictly positive start vector")
    space = mp.space
    # a strictly positive u of the space's dimension (>= 1) is nonzero
    if u.dim != space.dim:
        raise DegenerateBoundError("start vector dimension mismatch")
    with np.errstate(over="ignore"):
        nu = space.norm(u.entries)
    if not nu < math.inf:
        raise DegenerateBoundError("the norm of start vector u overflows")
    u_hat = u.entries / nu
    if _image is None:
        y = u_hat.copy()
        z = mp.raw(y)                   # B(y): the next power step
    else:
        y, z = u.entries, _image
    hist = [y]                          # y_(k-m), ..., y_k
    logs: list[float] = []
    bounds: list[tuple[float, float]] = []
    best_lower, best_upper = 0.0, math.inf
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        with np.errstate(over="ignore"):
            nz = space.norm(z)
        if not nz < math.inf:
            raise MapContractError(f"{mp.name}: the norm of a power step overflows")
        if nz == 0.0:
            # The orbit of u dies: B^k u = 0 certifies a zero radius under
            # the order-bound hypotheses, so the bracket collapses.
            return SpectralEstimate(value=0.0, cw_lower=0.0, cw_upper=0.0,
                                    iterations=iterations, converged=True,
                                    log_norm_trace=logs, bound_trace=bounds)
        logs.append(math.log(nz))
        y = z / nz
        hist.append(y)
        if len(hist) > _ORBIT_MEMORY + 1:
            hist.pop(0)

        # Probes: the support truncations of y (nested masks, so a repeated
        # size is a repeated probe), then each plus 2^-k u_hat where that
        # changes it, while the shift is a normal float (a subnormal one makes
        # ratios overflow and loses the relative precision _outward assumes).
        mx = y.max()
        masks = {}
        for theta in _TRUNCATION_LEVELS:
            mask = y >= theta * mx
            masks.setdefault(int(np.count_nonzero(mask)), mask)
        probes = [np.where(mask, y, 0.0) for mask in masks.values()]
        shift = 2.0 ** (-iterations) * u_hat
        if shift.min() >= _TINY:
            probes += [xr for x in probes if ((xr := x + shift) != x).any()]
        images = [mp.raw(x) for x in probes]

        # One ratio block: the stored iterates against y, where
        # y_k = B^m y_(k-m) / exp(d) with d the sum of the last m step logs,
        # then the probes against their images.
        old = hist[:-1]
        lower, upper = _cw_ratios(np.array(old + probes).T,
                                  np.array([y] * len(old) + images).T)
        lower, upper = lower.tolist(), upper.tolist()
        # fsum rounds d once; the difference of two running sums would be off
        # by about eps times the log of the whole orbit
        for lo, hi, m in zip(lower, upper, range(len(old), 0, -1)):
            d = math.fsum(logs[-m:])
            if lo > 0.0:
                best_lower = max(best_lower, math.exp((d + math.log(lo)) / m))
            if hi < math.inf:
                best_upper = min(best_upper, math.exp((d + math.log(hi)) / m))
        best_lower = max(best_lower, *lower[len(old):])
        best_upper = min(best_upper, *upper[len(old):])
        z = images[0]                   # probe 0 is y itself
        bounds.append((best_lower, best_upper))
        if best_upper - best_lower <= tol * max(1.0, best_lower):
            converged = True
            break
    lo, hi = _outward(best_lower, best_upper, space.dim)
    return SpectralEstimate(value=0.5 * (lo + hi) if math.isfinite(hi) else lo,
                            cw_lower=lo, cw_upper=hi, iterations=iterations,
                            converged=converged, log_norm_trace=logs, bound_trace=bounds)


@dataclass
class ResolventBlock:
    """Truncated left-resolvent sums of the columns of a block, one series each."""

    vectors: np.ndarray         # (n, k): column j is the sum for the block's column j
    column_terms: np.ndarray    # (k,) series terms of each column

    @property
    def terms(self) -> int:
        """Series terms over all columns."""
        return int(self.column_terms.sum())


def resolvent_series(mp: HomogeneousMap, lam: float, x: np.ndarray,
                     trunc_tol: float = 1e-10, max_terms: int = 100000) -> ResolventBlock:
    """Partial sums of sum_n lam^(-n-1) B^n x, truncated at term norm < trunc_tol.

    For lam above the radius the series acts as a left resolvent,
    R(Bx) = lam * R(x) - x, up to its truncated tail.  `x` is a nonnegative
    (n, k) block.  Its columns are independent series run side by side:
    each keeps its own stop rule and leaves the evaluated block once it has
    converged, so it takes exactly the terms it would take alone.

    Callers certify lam > radius on their own, for instance as
    lam > radius_bracket(...).cw_upper.
    """
    if not trunc_tol > 0:
        raise ValueError("trunc_tol must be positive")
    if not lam > 0:
        raise SpectralDomainError(f"resolvent parameter must be positive, got {lam}")
    block = np.asarray(x, dtype=float)
    if block.ndim != 2 or block.shape[0] != mp.space.dim:
        raise DimensionError(f"expected a ({mp.space.dim}, k) block, got shape {block.shape}")
    if not np.all(np.isfinite(block)) or np.any(block < 0):
        raise ValueError("block columns must be finite and nonnegative")
    # Cutting at trunc_tol alone lets the identity R(Bx) = lam R(x) - x drift
    # by O(lam * tail); the lam-aware safety factor keeps the residual of that
    # identity within a small multiple of trunc_tol for lam >= 1.1 * radius.
    threshold = 0.05 * trunc_tol / max(1.0, lam)
    term = block / lam              # lam^{-1} B^0 x
    acc = term.copy()
    terms = np.ones(block.shape[1], dtype=np.int64)
    active = np.flatnonzero(mp.space.norm(term) >= threshold)
    term = term[:, active]
    count = 1                       # terms taken by every active column
    while active.size:
        if count >= max_terms:
            raise TruncationError(
                f"resolvent series not below {trunc_tol} after {max_terms} terms "
                f"(lambda may be too close to the radius)",
                partial=ResolventBlock(vectors=acc, column_terms=terms))
        term = mp.raw(term) / lam
        acc[:, active] += term
        count += 1
        terms[active] = count
        keep = mp.space.norm(term) >= threshold
        active, term = active[keep], term[:, keep]
    return ResolventBlock(vectors=acc, column_terms=terms)

