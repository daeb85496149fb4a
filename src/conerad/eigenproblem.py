"""Positive eigenvector and eigenfunctional solvers.

Three constructive schemes:

* a continuation over shrinking perturbations B + eps * psi(.) * u, each
  solved by a normalized fixed-point iteration (eigenvectors),
* the decreasing lattice iteration x_k = min(B x_{k-1}/r + 2^-k u, u)
  producing sub-eigenvectors, refined by a nondecreasing orbit iteration,
* truncated-resolvent functionals x -> x* . R_lam(x), normalized by a
  sampled operator norm (eigenfunctionals).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeSpace, ConeVector, psi_hull, u_norm
from .errors import (
    DegenerateBoundError,
    InnerIterationError,
    MapContractError,
    PreconditionError,
    ScaleError,
    SpectralDomainError,
    ZeroLimitError,
)
from .homog_map import HomogeneousMap, perturb, unit_cone_probes
from .spectral import radius_bracket, resolvent_series

_MONOTONE_SLACK = 1e-12  # relative slack absorbing evaluator roundoff


class EigenMode(enum.Enum):
    SUB_EIGEN = "sub_eigen"
    EXACT = "exact"


@dataclass
class EigenResult:
    """Eigenpair (or sub-eigenpair) with the trace that produced it."""

    vector: ConeVector          # normalized so psi(vector) = 1
    lam: float
    residual: float             # ||B(v) - lam v||
    mode: EigenMode
    trace: list = field(default_factory=list)  # (eps_or_k, lambda) pairs
    lam_raw: float | None = None

    def to_json(self) -> dict:
        return {
            "vector": self.vector.to_json(),
            "lambda": self.lam,
            "lambda_raw": self.lam_raw,
            "residual": self.residual,
            "mode": self.mode.value,
            "trace": [[float(a), float(b)] for a, b in self.trace],
        }


def _psi_normalize(space: ConeSpace, v: np.ndarray) -> np.ndarray:
    p = psi_hull(space, v)
    if p == 0.0:
        raise DegenerateBoundError("cannot normalize the zero vector")
    return v / p


def solve_eigenvector_perturbation(mp: HomogeneousMap, u: ConeVector,
                                   eps_schedule=None, inner_tol: float = 1e-13,
                                   max_inner: int = 20000) -> EigenResult:
    """Eigenvector by continuation over B_eps = B + eps * psi(.) * u, eps -> 0.

    Each stage runs v <- B_eps(v) / psi(B_eps(v)) warm-started from the
    previous stage until successive iterates differ by less than inner_tol.
    The stage value lam_eps = psi(B_eps(v)) is nonincreasing along the
    schedule; the returned lam is the unperturbed Rayleigh value psi(B(v))
    at the final iterate (the raw perturbed values stay in the trace).
    """
    space = mp.space
    if u.dim != space.dim or not np.all(u.entries > 0):
        raise DegenerateBoundError("perturbation direction u must be strictly positive")
    if eps_schedule is None:
        eps_schedule = [10.0 ** (-n) for n in range(1, 9)]
    eps_schedule = [float(e) for e in eps_schedule]
    if any(e <= 0 for e in eps_schedule) or any(
            b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps_schedule must be positive and strictly decreasing")

    v = _psi_normalize(space, u.entries)
    if not mp.raw(v).any():
        # B annihilates a strictly positive vector, hence the whole cone.
        return EigenResult(vector=ConeVector(v), lam=0.0, residual=0.0,
                           mode=EigenMode.SUB_EIGEN, trace=[], lam_raw=0.0)

    trace: list[tuple[float, float]] = []
    lam_prev = math.inf
    lam_raw = math.nan
    for eps in eps_schedule:
        pert = perturb(mp, eps, u)
        for _ in range(max_inner):
            w = pert.raw(v)
            w = _psi_normalize(space, w)
            delta = space.norm(w - v)
            v = w
            if delta < inner_tol:
                break
        else:
            raise InnerIterationError(
                f"inner iteration did not settle within {max_inner} steps at eps={eps}",
                trace=trace)
        lam_raw = psi_hull(space, pert.raw(v))
        slack = 100.0 * inner_tol * max(1.0, lam_raw)
        if lam_raw > lam_prev + slack:
            raise MapContractError(
                f"stage value increased along the schedule ({lam_prev} -> {lam_raw}); "
                "map is not order preserving")
        lam_prev = lam_raw
        trace.append((eps, lam_raw))

    bv = mp.raw(v)
    lam = psi_hull(space, bv)
    residual = space.norm(bv - lam * v)
    mode = EigenMode.EXACT if residual <= 100.0 * inner_tol * max(1.0, lam) else EigenMode.SUB_EIGEN
    return EigenResult(vector=ConeVector(v), lam=lam, residual=residual,
                       mode=mode, trace=trace, lam_raw=lam_raw)


def solve_subeigenvector_min(mp: HomogeneousMap, u: ConeVector, r_est: float,
                             k_max: int = 4000) -> EigenResult:
    """Sub-eigenvector via the decreasing iteration x_k = min(Bx/r + 2^-k u, u).

    The sequence is entrywise nonincreasing; it is run to its exact
    floating-point fixed point (the additive term underflows to zero on the
    way), where the limit x satisfies min(B(x)/r_est, u) = x and hence
    B(x) >= r_est * x entrywise.  Collapse to zero certifies r_est > radius
    and raises ZeroLimitError.
    """
    if r_est <= 0:
        raise ValueError("r_est must be positive")
    if u.is_zero():
        raise DegenerateBoundError("order bound u must be nonzero")
    space = mp.space
    c = u_norm(ConeVector(mp.raw(u.entries)), u)
    if not math.isfinite(c):
        raise DegenerateBoundError("map is not uniformly u-bounded: B(u) escapes u's support")

    psi_u = psi_hull(space, u.entries)
    x = u.entries.copy()
    prev = None
    trace: list[tuple[float, float]] = []
    for k in range(1, k_max + 1):
        step = mp.raw(x) / r_est + (2.0 ** -k) * u.entries
        nxt = np.minimum(step, u.entries)
        overshoot = float(np.max(nxt - x))
        if overshoot > _MONOTONE_SLACK * max(1.0, float(np.max(np.abs(x)))):
            raise MapContractError(
                "min-iteration stopped decreasing; map is not order preserving")
        nxt = np.minimum(nxt, x)  # clamp roundoff-level overshoot
        fixed = bool(np.array_equal(nxt, x))
        cycling = prev is not None and bool(np.array_equal(nxt, prev))
        prev = x
        x = nxt
        p = psi_hull(space, x)
        trace.append((float(k), p))
        if p <= 1e-12 * max(1.0, psi_u):
            raise ZeroLimitError(
                f"iteration collapsed to zero at step {k}: r_est={r_est} exceeds the radius")
        if (fixed or cycling) and (2.0 ** -k) == 0.0:
            break
    bx = mp.raw(x)
    violation = float(np.max(r_est * x - bx))
    vec = ConeVector(_psi_normalize(space, x))
    return EigenResult(vector=vec, lam=r_est, residual=max(violation, 0.0) / psi_hull(space, x),
                       mode=EigenMode.SUB_EIGEN, trace=trace)


def refine_eigenvector_monotone(mp: HomogeneousMap, x0: ConeVector, u: ConeVector,
                                r_est: float, tol: float = 1e-12,
                                max_iter: int = 5000) -> EigenResult:
    """Upgrade a sub-eigenvector to an eigenvector by iterating x <- B(x)/r_est.

    Starting from B(x0) >= r_est * x0 - tol the orbit is entrywise
    nondecreasing and stays u-bounded; its limit is a fixed point of B/r_est.
    """
    if r_est <= 0:
        raise ValueError("r_est must be positive")
    space = mp.space
    x = x0.entries.copy()
    bx = mp.raw(x)
    if float(np.max(r_est * x - bx)) > tol * max(1.0, r_est):
        raise PreconditionError("x0 is not a sub-eigenvector at rate r_est within tol")
    c0 = u_norm(x0, u)
    if not math.isfinite(c0):
        raise PreconditionError("x0 is not bounded by any multiple of u")

    trace: list[tuple[float, float]] = []
    converged = False
    for k in range(1, max_iter + 1):
        nxt = bx / r_est
        drop = float(np.max(x - nxt))
        if drop > _MONOTONE_SLACK * max(1.0, float(np.max(x))):
            raise PreconditionError(
                "orbit stopped increasing; x0 was not a sub-eigenvector of this map")
        bound = u_norm(ConeVector(np.maximum(nxt, 0.0)), u)
        if not math.isfinite(bound) or bound > 1e9 * max(1.0, c0):
            raise ScaleError("orbit diverges in the order norm; r_est underestimates the radius")
        delta = space.norm(nxt - x)
        x = nxt
        bx = mp.raw(x)
        trace.append((float(k), psi_hull(space, x)))
        if delta <= tol:
            converged = True
            break
    v = _psi_normalize(space, x)
    bv = mp.raw(v)
    residual = space.norm(bv - r_est * v)
    mode = EigenMode.EXACT if converged else EigenMode.SUB_EIGEN
    return EigenResult(vector=ConeVector(v), lam=r_est, residual=residual,
                       mode=mode, trace=trace)


@dataclass
class EigenfunctionalEstimate:
    """Homogeneous order-preserving functional with phi(B x) ~ r phi(x)."""

    probe_vector: ConeVector
    lambda_used: float
    normalizer: float
    evaluator: object           # Callable[[ConeVector], float]
    defect_max: float
    radius_used: float

    def __call__(self, x: ConeVector) -> float:
        return self.evaluator(x)

    def to_json(self) -> dict:
        return {
            "probe_vector": self.probe_vector.to_json(),
            "lambda_used": self.lambda_used,
            "normalizer": self.normalizer,
            "defect_max": self.defect_max,
            "radius_used": self.radius_used,
        }


def estimate_eigenfunctional(mp: HomogeneousMap, u: ConeVector, xstar: ConeVector,
                             lambda_schedule=None, trunc_tol: float = 1e-10,
                             normalizer_samples: int = 256, seed: int = 0) -> EigenfunctionalEstimate:
    """Eigenfunctional from truncated resolvents: phi(x) = x* . R_lam(x) / N.

    Every schedule entry must sit above the current upper radius estimate;
    the evaluator is built from the last (smallest) entry.  N is a sampled
    sup of the unnormalized functional over the unit cone sphere, and the
    reported defect is max |phi(Bx) - r phi(x)| over the sample points.
    """
    space = mp.space
    if xstar.dim != space.dim or xstar.is_zero():
        raise DegenerateBoundError("probe functional vector xstar must be nonzero")
    if not np.all(u.entries > 0):
        raise DegenerateBoundError("order bound u must be strictly positive")

    est = radius_bracket(mp, u, tol=1e-10, max_iter=10000)
    upper = est.cw_upper if math.isfinite(est.cw_upper) else est.value
    if lambda_schedule is None:
        base = max(upper, 1e-6)
        lambda_schedule = [base * (1.0 + s) for s in (0.5, 0.3, 0.2)]
    lambda_schedule = [float(l) for l in lambda_schedule]
    if any(b >= a for a, b in zip(lambda_schedule, lambda_schedule[1:])):
        raise ValueError("lambda_schedule must be strictly decreasing")
    for lam in lambda_schedule:
        if lam <= upper:
            raise SpectralDomainError(
                f"schedule entry {lam} is not above the upper radius estimate {upper}")

    lam = lambda_schedule[-1]
    xs = xstar.entries

    # lam > cw_upper >= radius was certified above, so the bare series is safe.
    def psi_n(x: ConeVector) -> float:
        return float(xs @ resolvent_series(mp, lam, x, trunc_tol).vector.entries)

    probes = unit_cone_probes(space, normalizer_samples, np.random.default_rng(seed))
    values = [psi_n(ConeVector(p)) for p in probes]
    normalizer = max(values)
    if normalizer <= 0:
        raise DegenerateBoundError("sampled normalizer is zero; xstar annihilates the orbit")

    def evaluator(x: ConeVector, _n=normalizer) -> float:
        return psi_n(x) / _n

    r = est.value
    defect = 0.0
    for p, value in zip(probes[: space.dim + 8], values):
        fbx = evaluator(ConeVector(mp.raw(p)))
        defect = max(defect, abs(fbx - r * (value / normalizer)))
    return EigenfunctionalEstimate(probe_vector=xstar, lambda_used=lam,
                                   normalizer=normalizer, evaluator=evaluator,
                                   defect_max=defect, radius_used=r)


def reduce_power_functional(psi_p, mp: HomogeneousMap, r: float, p: int):
    """Turn a functional with psi(B^p x) = r^p psi(x) into one for B itself.

    Returns phi(x) = sum_{k<p} r^-k psi(B^k x), which satisfies
    phi(B x) = r phi(x) whenever psi satisfies the p-step relation.
    """
    if p < 1:
        raise ValueError("power p must be >= 1")
    if r <= 0:
        raise ValueError("rate r must be positive")
    if p == 1:
        return psi_p

    def phi(x: ConeVector) -> float:
        acc = 0.0
        cur = x
        for k in range(p):
            acc += (r ** -k) * psi_p(cur)
            if k + 1 < p:
                cur = ConeVector(mp.raw(cur.entries))
        return acc

    return phi
