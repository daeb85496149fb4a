"""Cone spectral radius estimation.

The central routine is a normalized power iteration that maintains a
certified Collatz-Wielandt bracket around the radius:

* lower bounds come from min ratios (B^m x)_i / x_i at probe vectors x,
* upper bounds come from max ratios at strictly positive probe vectors,

both taken to the 1/m power.  Probe vectors are the current iterate, its
support truncations (entries below a relative threshold zeroed), and, for
upper bounds, those probes re-inflated by a shrinking multiple of the
reference vector so they stay strictly positive.  Every individual bound is
certified on its own, so the running max of lowers and min of uppers is a
certified bracket; reported endpoints are rounded outward by a rigorous
floating-point margin.

Each probe vector is evaluated once.  The untruncated lower probe is the
iterate y itself, so its image B(y) is kept and becomes the next power step:
on strictly positive problems an iteration costs two evaluations, B(y) and
the regularized upper probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeVector, lower_ratio, u_norm
from .errors import DegenerateBoundError, SpectralDomainError, TruncationError
from .homog_map import HomogeneousMap, power_apply

_ORBIT_MEMORY = 8           # on-orbit ratio bounds use powers m = 1.._ORBIT_MEMORY
_TRUNCATION_LEVELS = (0.0, 1e-2, 1e-5, 1e-8, 1e-11)
_WINDOW = 20                # trailing Cesaro window for the power-quotient value


@dataclass
class SpectralEstimate:
    """Point estimate of the cone spectral radius with a certified bracket."""

    value: float
    cw_lower: float
    cw_upper: float
    iterations: int
    converged: bool
    log_norm_trace: list = field(default_factory=list)
    # per-iteration (best_lower, best_upper) pairs; diagnostic only, not
    # part of the JSON wire format
    bound_trace: list | None = field(default=None, repr=False, compare=False)

    def width(self) -> float:
        return self.cw_upper - self.cw_lower

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "cw_lower": self.cw_lower,
            "cw_upper": self.cw_upper,
            "iterations": self.iterations,
            "converged": self.converged,
            "log_norm_trace": [float(s) for s in self.log_norm_trace],
        }


def cw_upper(mp: HomogeneousMap, u: ConeVector, k: int = 1) -> float:
    """(least alpha with B^k u <= alpha^k u)^(1), i.e. the k-step max-ratio bound.

    Returns +inf when B^k u escapes the support of u (valid but vacuous).
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    ratio = u_norm(power_apply(mp, u, k), u)
    return ratio ** (1.0 / k)


def cw_lower(mp: HomogeneousMap, x: ConeVector, m: int = 1) -> float:
    """(largest alpha with B^m x >= alpha^m x): the m-step min-ratio bound."""
    if m < 1:
        raise ValueError("power m must be >= 1")
    if x.is_zero():
        raise DegenerateBoundError("probe vector x must be nonzero")
    ratio = lower_ratio(power_apply(mp, x, m), x)
    return ratio ** (1.0 / m)


def _outward(lo: float, hi: float, dim: int) -> tuple[float, float]:
    # Rigorous margin for the ratio arithmetic: one inner product of length
    # dim plus a handful of scalar ops, each contributing <= eps relatively.
    margin = (dim + 8) * np.finfo(float).eps
    lo_out = lo - margin * max(1.0, abs(lo))
    hi_out = hi + margin * max(1.0, abs(hi)) if math.isfinite(hi) else hi
    return max(lo_out, 0.0), hi_out


class _BracketEngine:
    """Shared state of the normalized power iteration with bracket tracking."""

    def __init__(self, mp: HomogeneousMap, u: ConeVector):
        if u.is_zero():
            raise DegenerateBoundError("start vector u must be nonzero")
        if u.dim != mp.space.dim:
            raise DegenerateBoundError("start vector dimension mismatch")
        self.mp = mp
        self.space = mp.space
        nu = self.space.norm(u.entries)
        self.u_hat = u.entries / nu
        self.u_strict = bool(np.all(u.entries > 0))
        self.y = self.u_hat.copy()
        self.z: np.ndarray | None = None    # B(y), once the probes have computed it
        self.cumlog = 0.0
        self.hist: list[tuple[np.ndarray, float]] = [(self.y, 0.0)]
        self.logs: list[float] = []
        self.bounds: list[tuple[float, float]] = []
        self.best_lower = 0.0
        self.best_upper = math.inf
        self.dead = False
        self.iterations = 0

    def _probe_lower(self, x: np.ndarray) -> np.ndarray:
        z = self.mp.raw(x)
        sup = x > 0
        zs = z[sup]
        if np.all(zs > 0):
            self.best_lower = max(self.best_lower, float(np.min(zs / x[sup])))
        return z

    def _probe_upper(self, x: np.ndarray) -> None:
        # x must be strictly positive for the max ratio to bound the radius.
        z = self.mp.raw(x)
        self.best_upper = min(self.best_upper, float(np.max(z / x)))

    def _orbit_bounds(self) -> None:
        yk, ck = self.hist[-1]
        count = len(self.hist)
        for idx in range(count - 1):
            yo, co = self.hist[idx]
            m = count - 1 - idx
            d = ck - co
            sup = yo > 0
            yks = yk[sup]
            if np.all(yks > 0):
                lo = math.exp((d + math.log(float(np.min(yks / yo[sup])))) / m)
                self.best_lower = max(self.best_lower, lo)
            if np.all(yo > 0):
                top = float(np.max(yk / yo))
                if top > 0:
                    hi = math.exp((d + math.log(top)) / m)
                    self.best_upper = min(self.best_upper, hi)

    def step(self) -> None:
        self.iterations += 1
        k = self.iterations
        z = self.mp.raw(self.y) if self.z is None else self.z
        nz = self.space.norm(z)
        if nz == 0.0:
            # The orbit of u dies: B^k u = 0 certifies a zero radius under
            # the order-bound hypotheses, so the bracket collapses.
            self.dead = True
            self.best_lower = 0.0
            self.best_upper = 0.0
            return
        self.cumlog += math.log(nz)
        self.logs.append(math.log(nz))
        self.y = z / nz
        self.hist.append((self.y, self.cumlog))
        if len(self.hist) > _ORBIT_MEMORY + 1:
            self.hist.pop(0)
        self._orbit_bounds()

        sigma = 2.0 ** (-k)
        mx = float(np.max(self.y))
        seen = set()
        for theta in _TRUNCATION_LEVELS:
            mask = self.y >= theta * mx
            key = mask.tobytes()
            if key in seen:
                continue
            seen.add(key)
            x = np.where(mask, self.y, 0.0)
            if not x.any():
                continue
            z = self._probe_lower(x)
            if theta == 0.0:
                self.z = z  # x equals y here, so this is the next step's B(y)
            if self.u_strict:
                xr = x + sigma * self.u_hat
                if np.all(xr > 0):  # sigma * u_hat underflows after ~1070 iterations
                    self._probe_upper(xr)
        self.bounds.append((self.best_lower, self.best_upper))

    def bracket_closed(self, tol: float) -> bool:
        if self.dead:
            return True
        return (self.best_upper - self.best_lower) <= tol * max(1.0, self.best_lower)

    def window_value(self) -> float:
        if self.dead:
            return 0.0
        if not self.logs:
            return 0.0
        tail = self.logs[-_WINDOW:]
        return math.exp(sum(tail) / len(tail))

    def estimate(self, value: float, converged: bool) -> SpectralEstimate:
        lo, hi = _outward(self.best_lower, self.best_upper, self.space.dim)
        if self.dead:
            lo, hi = 0.0, 0.0
        return SpectralEstimate(
            value=value,
            cw_lower=lo,
            cw_upper=hi,
            iterations=self.iterations,
            converged=converged,
            log_norm_trace=list(self.logs),
            bound_trace=list(self.bounds),
        )


def radius_power_quotient(mp: HomogeneousMap, u: ConeVector, max_iter: int = 10000,
                          tol: float = 1e-9) -> SpectralEstimate:
    """Radius via the limit of ||B^n u||^(1/n) along a renormalized orbit.

    The point value is the trailing-window Cesaro mean of the step log norms;
    the run is declared converged once the certified bracket has closed to
    `tol` and the window value agrees with the bracket midpoint.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eng = _BracketEngine(mp, u)
    for _ in range(max_iter):
        eng.step()
        if eng.dead:
            return eng.estimate(value=0.0, converged=True)
        if eng.bracket_closed(tol):
            val = eng.window_value()
            mid = 0.5 * (eng.best_lower + eng.best_upper)
            if abs(val - mid) <= 0.25 * tol * max(1.0, mid):
                est = eng.estimate(value=val, converged=True)
                # the window mean may sit a rounding hair outside a bracket
                # far tighter than tol; the certified bracket wins
                est.value = min(max(est.value, est.cw_lower), est.cw_upper)
                return est
    return eng.estimate(value=eng.window_value(), converged=False)


def radius_bracket(mp: HomogeneousMap, u: ConeVector, tol: float = 1e-8,
                   max_iter: int = 10000) -> SpectralEstimate:
    """Certified Collatz-Wielandt bracket; the point value is its midpoint.

    Requires a strictly positive start vector so that regularized upper
    probes exist.  Convergence is declared on bracket width only.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.all(u.entries > 0):
        raise DegenerateBoundError("radius_bracket requires a strictly positive start vector")
    eng = _BracketEngine(mp, u)
    for _ in range(max_iter):
        eng.step()
        if eng.bracket_closed(tol):
            est = eng.estimate(value=0.0, converged=True)
            est.value = 0.5 * (est.cw_lower + est.cw_upper) if not eng.dead else 0.0
            return est
    est = eng.estimate(value=0.0, converged=False)
    if math.isfinite(est.cw_upper):
        est.value = 0.5 * (est.cw_lower + est.cw_upper)
    else:
        est.value = est.cw_lower
    return est


@dataclass
class ResolventResult:
    """Truncated left-resolvent sum with its truncation diagnostics."""

    vector: ConeVector
    terms: int
    tail_bound: float
    lambda_used: float
    trunc_tol: float


def resolvent_series(mp: HomogeneousMap, lam: float, x: ConeVector,
                     trunc_tol: float = 1e-10, max_terms: int = 100000) -> ResolventResult:
    """The truncated series itself, with no admissibility gate.

    Callers must have certified lam > radius on their own (resolvent_apply
    does it with a quick bracket run).
    """
    if trunc_tol <= 0:
        raise ValueError("trunc_tol must be positive")
    if lam <= 0:
        raise SpectralDomainError(f"resolvent parameter must be positive, got {lam}")
    # Cutting at trunc_tol alone lets the identity R(Bx) = lam R(x) - x drift
    # by O(lam * tail); the lam-aware safety factor keeps the residual of that
    # identity within a small multiple of trunc_tol for lam >= 1.1 * radius.
    threshold = 0.05 * trunc_tol / max(1.0, lam)
    term = x.entries / lam          # lam^{-1} B^0 x
    acc = term.copy()
    prev_norm = mp.space.norm(term)  # norm of the latest term
    ratio = 0.0
    terms = 1
    while prev_norm >= threshold:
        if terms >= max_terms:
            raise TruncationError(
                f"resolvent series not below {trunc_tol} after {max_terms} terms "
                f"(lambda may be too close to the radius)",
                partial=ResolventResult(
                    vector=ConeVector(acc), terms=terms,
                    tail_bound=math.inf, lambda_used=lam, trunc_tol=trunc_tol))
        term = mp.raw(term) / lam
        acc += term
        terms += 1
        cur = mp.space.norm(term)
        if prev_norm > 0:
            ratio = max(ratio if terms > 8 else 0.0, cur / prev_norm)
        prev_norm = cur
    tail = prev_norm * ratio / (1.0 - ratio) if 0.0 < ratio < 1.0 else prev_norm
    return ResolventResult(vector=ConeVector(acc), terms=terms, tail_bound=tail,
                           lambda_used=lam, trunc_tol=trunc_tol)


def resolvent_apply(mp: HomogeneousMap, lam: float, x: ConeVector,
                    trunc_tol: float = 1e-10, max_terms: int = 100000) -> ResolventResult:
    """Partial sums of sum_n lam^(-n-1) B^n x, truncated at term norm < trunc_tol.

    The parameter must exceed the certified lower radius bound from a short
    bracket run (at most 50 steps); the series acts as a left resolvent,
    R(Bx) = lam * R(x) - x, up to the reported tail bound.
    """
    gate = radius_bracket(mp, ConeVector(np.ones(mp.space.dim)), tol=1e-12, max_iter=50)
    if lam <= gate.cw_lower:
        raise SpectralDomainError(
            f"lambda = {lam} is at or below the certified radius lower bound {gate.cw_lower}")
    return resolvent_series(mp, lam, x, trunc_tol, max_terms)
