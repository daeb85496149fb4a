"""Positive eigenvector and eigenfunctional solvers.

Five constructive schemes:

* Noda's shifted inverse iteration on B_eps = B + eps * psi(.) * u, with eps
  one ulp of B(u_hat), for a matrix map on an L1 or weighted space of at
  most _NODA_MAX_DIM cells (eigenvectors): B_eps is then a strictly
  positive matrix, and each step is one dense solve at a shift above every
  Collatz-Wielandt bound, so the iterates converge to its Perron vector,
  reducible B included; each step reads its ratios from its own solve, so
  the stage evaluates B only at u_hat and at the final vector,
* Arnoldi's process on B_eps for every other map whose B_eps is linear, a
  larger matrix map or a map with a transpose (a two-sex map whose sexes
  share one kernel factor tuple) on an L1 or weighted space, and the
  fallback when Noda's first solve fails (eigenvectors): each signed basis
  vector costs one cone column, and the stop rule reads the Ritz vector's
  Collatz-Wielandt spread from the Arnoldi relation,
* one shifted stage of normalized fixed-point steps on B_eps + c I, sped up
  by Anderson mixing of the last few steps after a coarse phase at a larger
  eps (eigenvectors of every other map, and the handover of an Arnoldi
  stage that finds no positive Ritz vector),
* the decreasing lattice iteration x_k = min(B x_{k-1}/r + 2^-k u, u)
  producing sub-eigenvectors,
* left-resolvent functionals x -> x* . R_lam(x), normalized by their sup
  over the unit cone sphere (eigenfunctionals).  A map with a transpose (a
  matrix map, or a two-sex map whose sexes share one kernel factor tuple)
  takes y = R_lam^T(x*), and then phi(x) = y . x / N, with N the dual norm
  of y in closed form; other maps sample N.  A matrix map, of any
  size, gets y exactly, by one dense solve of (lam I - B^T) y = x*, so
  trunc_tol does not apply there; a two-sex map with a transpose, or a
  matrix whose solve fails, sums one series on B^T, which stops on the dual
  norm (LInf for L1, L1 for LInf) or, on a weighted space, on a norm at
  least as large, so trunc_tol keeps its meaning at unit probes.  Other
  maps run one forward series per probe.

Every dense solve is ``_positive_solve``: s I - m solved for one right-hand
side, with None for a singular system or a solution that is not strictly
positive and finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeSpace, ConeVector, NormKind, psi_hull, u_norm
from .errors import (
    DegenerateBoundError,
    DimensionError,
    InnerIterationError,
    MapContractError,
    SpectralDomainError,
    ZeroLimitError,
)
from .homog_map import HomogeneousMap, perturb, unit_cone_probes
from .spectral import SpectralEstimate, _cw_ratios, _outward, radius_bracket, resolvent_series

_MONOTONE_SLACK = 1e-12  # relative slack absorbing evaluator roundoff
_ANDERSON_DEPTH = 6      # residual differences one mixing step combines
_COARSE_EPS = 1e-4       # eps of the coarse phase, relative to psi(B(u_hat)) / psi(u)
_COARSE_TOL = 1e-6       # step size at which the coarse phase hands over
_NODA_MAX_DIM = 128      # largest matrix map that takes Noda's iteration (dense solves)
_NODA_SHIFT = 1.0 + 2.0 ** -40   # relative lift of each Noda shift above its bound
_KRYLOV_MAX_DIM = 40     # basis vectors of the Arnoldi stage before it hands over


class EigenMode(enum.Enum):
    SUB_EIGEN = "sub_eigen"
    EXACT = "exact"


@dataclass
class EigenResult:
    """Eigenpair (or sub-eigenpair) with the trace that produced it.

    [cw_lower, cw_upper] is the outward-rounded Collatz-Wielandt bracket of
    the vector itself, a certified enclosure of the radius; it is [0, inf]
    where the solver computes none.  steps counts the map evaluations of the
    solve and solves its dense linear solves.  image is B(vector) where the
    solver evaluated it; it is not part of the JSON wire format.
    """

    vector: ConeVector          # normalized so psi(vector) = 1
    lam: float
    residual: float             # ||B(v) - lam v||
    mode: EigenMode
    trace: list = field(default_factory=list)  # (eps_or_k, lambda) pairs
    cw_lower: float = 0.0
    cw_upper: float = math.inf
    steps: int = 0
    solves: int = 0
    image: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "vector": self.vector.to_json(),
            "lambda": self.lam,
            "cw_lower": self.cw_lower,
            "cw_upper": self.cw_upper,
            "residual": self.residual,
            "mode": self.mode.value,
            "steps": self.steps,
            "solves": self.solves,
            "trace": [[float(a), float(b)] for a, b in self.trace],
        }


def _psi_normalize(space: ConeSpace, v: np.ndarray) -> np.ndarray:
    """v / psi(v) for a finite nonnegative v (a cone vector or a value from
    ``raw``), where psi(v) is ||v|| bit for bit, so v is not checked again."""
    p = space.norm(v)
    if p == 0.0:
        raise DegenerateBoundError("cannot normalize the zero vector")
    if not p < math.inf:
        # v / inf would be the zero vector, read later as a map that kills the cone
        raise DegenerateBoundError("cannot normalize a vector whose norm overflows")
    return v / p


def solve_eigenvector_perturbation(mp: HomogeneousMap, u: ConeVector,
                                   inner_tol: float = 1e-13,
                                   max_inner: int = 20000) -> EigenResult:
    """Eigenvector of B_eps = B + eps * psi(.) * u, by Noda's iteration on a
    small matrix, by Arnoldi's process on any other map whose B_eps is
    linear and by a shifted Anderson stage on every other map.

    Both constants come from the image B(u_hat) of u_hat = u / psi(u), which
    also checks that B does not annihilate the cone: c = psi(B(u_hat)) and
    eps = 2^-52 * c / psi(u), one ulp of that image in the direction u.  The
    eps term makes B_eps strictly increasing, so its Perron vector is unique
    and strictly positive, and moves the eigenvector by rounding level only.

    A matrix map on an L1 or weighted space of dimension at most
    _NODA_MAX_DIM has a strictly positive matrix B_eps, and takes Noda's
    shifted inverse iteration (``_noda_stage``; T. Noda, Numer. Math. 17,
    1971): each step is one dense solve at a shift above every
    Collatz-Wielandt bound, whose inverse is a positive operator, so the
    stage converges to the Perron vector even of a reducible B, quadratically
    (L. Elsner, Linear Algebra Appl. 15, 1976).  The solve also gives the
    step's image, B_eps x = s x - v, so the stage evaluates no map column
    between B(u_hat) and the final B(v), and steps is 2.  A later solve
    that leaves the open cone is retried once at the last shift whose solve
    was strictly positive, which lies above the radius.  Every solve counts
    against max_inner.  When its first solve is singular or leaves the open
    cone, the Arnoldi stage below runs instead, and that solve still counts.

    Every other map whose B_eps is linear, a larger matrix map or a map
    with a transpose on an L1 or weighted space (psi is then additive on
    the cone), takes Arnoldi's process (``_arnoldi_stage``; Y. Saad,
    Numerical Methods for Large Eigenvalue Problems, 2nd ed., SIAM 2011,
    ch. 6) from u_hat, whose first product is B_eps(u_hat) from B(u_hat).
    A signed basis vector x costs one cone column:
    B_eps x = B_eps(x + a u_hat) - a B_eps(u_hat) with x + a u_hat >= 0.
    The residual of the Ritz vector y of the Ritz value theta of largest
    real part is known from the Arnoldi relation, so the stage stops,
    with no further evaluation, when y > 0 and the spread of its
    Collatz-Wielandt ratios is at most inner_tol * theta, Noda's rule; that
    spread steers only and is never reported.  With _KRYLOV_MAX_DIM basis
    vectors, or a basis that spans an invariant subspace, and no such y,
    the Anderson stage below runs from u_hat on the budget left.  Every
    evaluation counts against max_inner.

    Every other map (a two-sex map whose sexes disperse differently,
    ``from_callable``, a matrix map on an LInf space, where B_eps holds no
    matrix) takes one shifted stage of Anderson mixing (Walker & Ni 2011)
    on the fixed-point step g = normalize(B_eps(v) + c v), from u_hat until
    a step moves the iterate by less than inner_tol; the shift c I keeps
    the eigenvectors, moves the radius to r + c and removes any
    periodicity.  The first step
    takes B_eps(u_hat) from B(u_hat) instead of evaluating u_hat again.
    Every step keeps the last _ANDERSON_DEPTH + 1 steps g and residuals
    f = g - v, solves one least squares problem min ||f - dF gamma|| on the
    residual differences dF, and moves to normalize(g - dG gamma), with dG
    the matching differences of g.  That removes several error modes at
    once, real or rotating, and needs nothing from B but its values, so
    nonlinear maps take it too.  Mixing acts on the support only: an entry
    with g_i < inner_tol * max(g) keeps g_i, every other entry is clipped at
    0 (and a mix clipped to zero keeps g).  One step is one evaluation, and
    max_inner counts steps.

    Two safeguards keep the mixing on the Perron vector.  Mixing minimizes
    the residual, so it also converges to the other nonnegative eigenvectors
    of a reducible map, where the Perron part has been mixed away to
    rounding level and the plain step grows it too slowly to show.  The
    stage therefore first settles, to _COARSE_TOL, with eps = _COARSE_EPS *
    c / psi(u): there every such vector is off by far more than that, and
    the coarse vector carries the Perron part on to the fine phase, which
    runs on the one-ulp eps above.  And a phase that goes 2 * _ANDERSON_DEPTH
    steps without a new smallest residual takes plain steps until one comes,
    then starts a fresh window.

    Whatever the stage, the returned lam is the Rayleigh value psi(B(v)) of
    the unperturbed map at the final iterate, the trace is the one row
    (eps, lam), [cw_lower, cw_upper] is the Collatz-Wielandt bracket of
    (v, B(v)), an evaluated image on every path, steps counts the map
    evaluations of the solve, B(u_hat) and the final B(v) included, and
    solves counts its dense solves.
    """
    space = mp.space
    if u.dim != space.dim or not np.all(u.entries > 0):
        raise DegenerateBoundError("perturbation direction u must be strictly positive")
    if not inner_tol > 0:
        raise ValueError("inner_tol must be positive")

    with np.errstate(over="ignore"):
        v = _psi_normalize(space, u.entries)
    bv = mp.raw(v)
    if not bv.any():
        # B annihilates a strictly positive vector, hence the whole cone.
        return EigenResult(vector=ConeVector(v), lam=0.0, residual=0.0,
                           mode=EigenMode.SUB_EIGEN, cw_lower=0.0, cw_upper=0.0,
                           steps=1, image=bv)
    with np.errstate(over="ignore"):
        c = space.norm(bv)
    if not c < math.inf:
        raise MapContractError(f"{mp.name}: psi(B(u_hat)) overflows")
    scale = c / space.norm(u.entries)
    eps = 2.0 ** -52 * scale
    if not eps > 0:
        raise DegenerateBoundError(f"perturbation eps = 2^-52 * {scale!r} underflows to zero")
    pert = perturb(mp, eps, u)
    if pert.matrix is not None and space.dim <= _NODA_MAX_DIM:
        stage = _noda_stage
    elif pert.matrix is not None or (mp.transpose is not None
                                     and space.norm_kind is not NormKind.LINF):
        stage = _arnoldi_stage
    else:
        stage = _anderson_stage
    v, steps, solves = stage(pert, u, v, bv, c, eps, scale, inner_tol, max_inner)

    bv = mp.raw(v)
    lam = psi_hull(space, bv)
    residual = space.norm(bv - lam * v)
    mode = EigenMode.EXACT if residual <= 100.0 * inner_tol * max(1.0, lam) else EigenMode.SUB_EIGEN
    lower, upper = _cw_ratios(v[:, None], bv[:, None])
    lo, hi = _outward(float(lower[0]), float(upper[0]), space.dim)
    return EigenResult(vector=ConeVector(v), lam=lam, residual=residual, mode=mode,
                       trace=[(eps, lam)], cw_lower=lo, cw_upper=hi, steps=steps + 1,
                       solves=solves, image=bv)


def _positive_solve(s: float, m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """x = (s I - m)^-1 b for a square matrix m, or None when s I - m is
    exactly singular or x is not strictly positive and finite."""
    a = -m
    a[np.diag_indices_from(a)] += s
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    return x if x.min() > 0.0 and x.max() < math.inf else None


def _noda_stage(pert: HomogeneousMap, u: ConeVector, v: np.ndarray, bv: np.ndarray,
                c: float, eps: float, scale: float, inner_tol: float,
                max_inner: int) -> tuple[np.ndarray, int, int]:
    """Noda's iteration on the strictly positive matrix of pert = B_eps, from
    v = u_hat with bv = B(u_hat): (v, evaluations, solves), B(u_hat) the one
    evaluation unless the Arnoldi stage runs.

    Each step solves (s I - B_eps) x = v at s = sigma * _NODA_SHIFT, sigma
    the largest ratio (B_eps v)_i / v_i, the first from B_eps(u_hat) by
    perturb's own arithmetic on B(u_hat), and moves to x / psi(x).  The
    solve gives the image too: B_eps x = s x - v, so the ratios of x are
    s - v_i / x_i, and the next sigma is s - min(v / x), their spread
    max(v / x) - min(v / x), with no map evaluation (Noda's own
    lambda_(k+1) = lambda_k - min(x_k / x_(k+1))).  That sigma is no bound:
    once the iterate has settled, cancellation on entries near rounding
    level can put it well below the evaluated ratio, so it steers the shift
    and the stop rule and is never reported.  s lies above the radius, so
    the inverse is the positive series sum_k B_eps^k / s^(k+1).  The stage
    stops when the spread is at most inner_tol * sigma, and when an iterate
    lowers neither the least sigma nor the least spread so far: then it
    keeps the iterate before.  sigma alone can reach the radius, to
    rounding level, steps before the vector does on a reducible B.  A shift
    within rounding of the radius can give an iterate that is not strictly
    positive and finite; the solve is then retried once at the last shift
    whose solve gave a strictly positive x, which lies above the radius
    (B_eps x = s x - v < s x), and the stage keeps the iterate before when
    the retry fails too.  When the first solve gives no strictly positive
    finite iterate, the Arnoldi stage runs instead, and the failed solve
    still counts.  It raises InnerIterationError after max_inner solves.
    """
    space = pert.space
    ratios = (bv + u.entries * (eps * space.norm(v))) / v
    sigma = best_sigma = float(ratios.max())
    best_spread = sigma - float(ratios.min())
    s, good = sigma * _NODA_SHIFT, None     # good: the last shift whose solve was positive
    for solves in range(1, max_inner + 1):
        x = _positive_solve(s, pert.matrix, v)
        if x is not None:
            with np.errstate(all="ignore"):
                q = v / x                   # a tiny x_i overflows q_i: a vacuous spread
                x = x / space.norm(x)       # psi(x) may overflow, x / psi(x) underflow
        if x is None or not (x.min() > 0.0 and x.max() < math.inf):
            if solves == 1:
                v, steps, _ = _arnoldi_stage(pert, u, v, bv, c, eps, scale, inner_tol,
                                             max_inner)
                return v, steps, 1
            if good is None:                # the retry failed too
                return v, 1, solves
            s, good = good, None
            continue
        good, low = s, float(q.min())
        sigma, spread = s - low, float(q.max()) - low
        if not (sigma < best_sigma or spread < best_spread):
            return v, 1, solves
        v, best_sigma, best_spread = x, min(sigma, best_sigma), min(spread, best_spread)
        if spread <= inner_tol * sigma:
            return v, 1, solves
        s = sigma * _NODA_SHIFT
    raise InnerIterationError(f"inner iteration did not settle within {max_inner} steps")


def _arnoldi_stage(pert: HomogeneousMap, u: ConeVector, v: np.ndarray, bv: np.ndarray,
                   c: float, eps: float, scale: float, inner_tol: float,
                   max_inner: int) -> tuple[np.ndarray, int, int]:
    """Arnoldi's process on pert = B_eps, linear on the cone, from v = u_hat
    with bv = B(u_hat): (v, evaluations, 0), B(u_hat) included.

    The basis is orthonormal in the Euclidean product, twice
    orthogonalized.  Its first product B_eps(u_hat) comes from B(u_hat) by
    perturb's own arithmetic; every later basis vector x is signed, and
    B_eps x = B_eps(max(x + a u_hat, 0)) - a B_eps(u_hat), a =
    max(0, max(-x / u_hat)), one cone column, exact up to rounding since
    B_eps is additive on the cone.  The Ritz vector y = Q z of the Ritz
    value theta of largest real part has the residual B_eps y - theta y =
    z_m w, w the last product orthogonalized, so its Collatz-Wielandt
    spread is max - min of z_m w / y with no evaluation; like Noda's sigma
    it only steers.  The stage stops when theta is real, y is strictly
    positive and that spread is at most inner_tol * theta.  At
    _KRYLOV_MAX_DIM basis vectors, or when the basis spans an invariant
    subspace or the whole space without such a y, the Anderson stage runs
    from u_hat on the budget left.
    """
    space = pert.space
    b_hat = bv + u.entries * (eps * space.norm(v))
    dim = min(_KRYLOV_MAX_DIM, space.dim)
    q = np.empty((space.dim, dim))
    h = np.zeros((dim, dim))
    top = v.max()
    length = top * np.linalg.norm(v / top)     # no square under- or overflows
    q[:, 0] = v / length
    w = b_hat / length
    evaluations = 1
    for j in range(dim):
        if j:
            if evaluations >= max_inner:
                raise InnerIterationError(
                    f"inner iteration did not settle within {max_inner} steps")
            with np.errstate(over="ignore"):
                a = max(0.0, float((-q[:, j] / v).max()))
            if not a < math.inf:
                break
            w = pert.raw(np.maximum(q[:, j] + a * v, 0.0)) - a * b_hat
            evaluations += 1
        basis = q[:, : j + 1]
        coef = basis.T @ w
        w = w - basis @ coef
        again = basis.T @ w
        w = w - basis @ again
        h[: j + 1, j] = coef + again
        theta, z = np.linalg.eig(h[: j + 1, : j + 1])
        k = int(np.argmax(theta.real))
        if theta[k].imag == 0.0:
            zk = z[:, k].real
            y = basis @ zk
            if y.sum() < 0:
                y, zk = -y, -zk
            if y.min() > 0.0:
                with np.errstate(over="ignore"):
                    ratios = zk[j] * w / y
                if ratios.max() - ratios.min() <= inner_tol * theta[k].real:
                    return _psi_normalize(space, y), evaluations, 0
        beta = np.linalg.norm(w)
        if j + 1 == dim or not beta > 0.0:
            break
        h[j + 1, j] = beta
        q[:, j + 1] = w / beta
    try:
        v, steps, _ = _anderson_stage(pert, u, v, bv, c, eps, scale, inner_tol,
                                      max_inner - evaluations + 1)
    except InnerIterationError:
        raise InnerIterationError(
            f"inner iteration did not settle within {max_inner} steps") from None
    return v, evaluations - 1 + steps, 0


def _anderson_stage(pert: HomogeneousMap, u: ConeVector, v: np.ndarray, bv: np.ndarray,
                    c: float, eps: float, scale: float, inner_tol: float,
                    max_inner: int) -> tuple[np.ndarray, int, int]:
    """The mixed stage of ``solve_eigenvector_perturbation`` on pert = B_eps,
    from v = u_hat with bv = B(u_hat): (v, evaluations, 0), B(u_hat) included."""
    space = pert.space
    # the coarse phase runs on B_eps + extra * psi(.) * u, the fine one on B_eps
    extra, tol = _COARSE_EPS * scale - eps, max(_COARSE_TOL, inner_tol)
    # the first image by perturb's own arithmetic on B(u_hat): no second evaluation
    bv_eps = bv + u.entries * ((eps + extra) * space.norm(v))
    m = _ANDERSON_DEPTH
    dg, df = np.empty((space.dim, m), order="F"), np.empty((space.dim, m), order="F")
    fresh = True
    for steps in range(1, max_inner + 1):
        if fresh:
            g_prev = f_prev = None
            k = 0           # differences stored since the window was last emptied
            best, stalled, fresh = math.inf, 0, False
        g = _psi_normalize(space, bv_eps + c * v)
        f = g - v
        res = space.norm(f)
        v = g
        if res < tol:
            if not extra:
                return v, steps, 0
            # the coarse phase has settled: the fine one starts from it
            extra, tol, fresh = 0.0, inner_tol, True
        else:
            if res < best:
                best, stalled = res, 0
            else:
                stalled += 1
            if stalled >= 2 * m:
                # no new smallest residual in 2m steps: plain steps until one
                # comes, then a fresh window
                f_prev, k = None, 0
            else:
                if f_prev is not None:
                    j, k = k % m, k + 1
                    dg[:, j] = g - g_prev
                    df[:, j] = f - f_prev
                    cols = min(k, m)
                    gamma = np.linalg.lstsq(df[:, :cols], f, rcond=None)[0]
                    mixed = np.maximum(g - dg[:, :cols] @ gamma, 0.0)
                    w = np.where(g < inner_tol * g.max(), g, mixed)
                    if w.any():         # else every mixed entry was clipped: keep g
                        v = _psi_normalize(space, w)
                g_prev, f_prev = g, f
        bv_eps = pert.raw(v)
        if extra:
            bv_eps = bv_eps + u.entries * (extra * space.norm(v))
    raise InnerIterationError(f"inner iteration did not settle within {max_inner} steps")


def _certify(mp: HomogeneousMap, u: ConeVector, tol: float, max_iter: int,
             inner_tol: float = 1e-13) -> tuple[SpectralEstimate, EigenResult | None, str | None, str]:
    """Radius bracket started from the solved eigenvector: (bracket, eigen, error, start).

    A strictly positive eigenvector v of B_eps has B(v) <= lam_eps v, so its
    Collatz-Wielandt ratios bracket the radius to rounding level.  The
    bracket starts at v with the B(v) the solve already holds (start
    "eigenvector"), and ends on those ratios, with no probe, when they
    close at tol; otherwise its regularized probes shift along v, whose
    near-zero entries on a reducible map come from B_eps, not from u.  It
    starts from u (start "u") when v is not strictly positive, or when the
    stage raises InnerIterationError or DegenerateBoundError (an eps that
    underflows, say); then eigen is None and error is "<Type>: message".
    max_iter caps both the stage's steps and the bracket's iterations.
    Every bound is a certificate whatever the start: correctness never rests
    on the stage finding the Perron vector.
    """
    eigen, error = None, None
    try:
        eigen = solve_eigenvector_perturbation(mp, u, inner_tol, max_inner=max_iter)
    except (InnerIterationError, DegenerateBoundError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    if eigen is not None and np.all(eigen.vector.entries > 0):
        bracket = radius_bracket(mp, eigen.vector, tol, max_iter, _image=eigen.image)
        return bracket, eigen, error, "eigenvector"
    return radius_bracket(mp, u, tol, max_iter), eigen, error, "u"


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
                       mode=EigenMode.SUB_EIGEN, trace=trace, steps=k + 2)


def _left_resolvent(mpt: HomogeneousMap, lam: float, xs: np.ndarray,
                    trunc_tol: float) -> np.ndarray:
    """y = R_lam^T(x*) on the transposed map mpt, for lam above the radius.

    A matrix map takes one dense solve of (lam I - B^T) y = x*; a solve that
    is singular, or whose y is not strictly positive and finite, leaves y to
    the series on B^T, as does every map without a matrix.
    """
    y = None if mpt.matrix is None else _positive_solve(lam, mpt.matrix, xs)
    if y is None:
        y = resolvent_series(mpt, lam, xs[:, None], trunc_tol).vectors[:, 0]
    return y


def _dual_norm(space: ConeSpace, y: np.ndarray) -> float:
    """sup of y . x over the unit sphere of the cone, for y >= 0: max y_i on
    L1, max y_i / w_i on a weighted space (both at a vertex e_i / ||e_i||)
    and sum y_i on LInf (at x = 1)."""
    if space.norm_kind is NormKind.LINF:
        return float(y.sum())
    if space.norm_kind is NormKind.WEIGHTED:
        return float((y / space.weights).max())
    return float(y.max())


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
                             lam: float | None = None, trunc_tol: float = 1e-10,
                             normalizer_samples: int = 256, seed: int = 0) -> EigenfunctionalEstimate:
    """Eigenfunctional from the left resolvent: phi(x) = x* . R_lam(x) / N.

    The radius estimate is the bracket started from the solved eigenvector
    (``_certify`` at tol 1e-10, with at most 10000 eigen steps and 10000
    bracket iterations), or from u where that vector is not strictly
    positive or the stage fails.  lam must sit above its upper end; it
    defaults to 1.2 times that, or to 1.2e-6 when it is smaller.  N is the
    sup of the unnormalized functional over the unit cone sphere, sampled at
    normalizer_samples random probes and the scaled basis vectors, and the
    reported defect is max |phi(Bx) - r phi(x)| over the basis vectors and
    the first 8 random probes.

    A map with a transpose (a matrix map, or a two-sex map whose sexes share
    one kernel factor tuple) takes x* . R_lam(x) = y . x with
    y = R_lam^T(x*), so every call of the returned functional is an inner
    product with y, N is that sup in closed form, the dual norm of y
    (``_dual_norm``: no sample reaches it on an LInf space, where it sits at
    x = 1), and the defect pass takes
    phi(B p) = (B^T y) . p / N from one column B^T y.  A matrix map, of
    any size and on any space, gets y exactly from one dense solve of
    (lam I - B^T) y = x*, and trunc_tol does not apply to it; a solve that
    is singular, or whose y is not strictly positive and finite, leaves y
    to the series.  Every other map with a transpose sums one series on
    B^T, which stops on the dual norm, LInf for the L1 and L1 for the LInf
    space, or on a norm at least as large for a weighted space
    (``HomogeneousMap.transposed``), so trunc_tol bounds the truncation
    error of phi at a unit probe as it does on the forward path.  Any other
    map runs one forward series per probe, per image B(p) of the defect
    pass, and per call of the functional.
    """
    space = mp.space
    if xstar.dim != space.dim or xstar.is_zero():
        raise DegenerateBoundError("probe functional vector xstar must be nonzero")
    if not np.all(u.entries > 0):
        raise DegenerateBoundError("order bound u must be strictly positive")

    est = _certify(mp, u, tol=1e-10, max_iter=10000)[0]
    upper = est.cw_upper if math.isfinite(est.cw_upper) else est.value
    lam = 1.2 * max(upper, 1e-6) if lam is None else float(lam)
    if not lam > upper:
        raise SpectralDomainError(
            f"lambda {lam} is not above the upper radius estimate {upper}")
    xs = xstar.entries

    # lam > cw_upper >= radius was certified above, so the bare series
    # converges and lam I - B^T has a positive inverse; phi maps a probe
    # block (n, k) to its k unnormalized values.
    mpt = mp.transposed()
    if mpt is not None:
        y = _left_resolvent(mpt, lam, xs, trunc_tol)

        def phi(block):
            return y @ block
    else:
        def phi(block):
            return xs @ resolvent_series(mp, lam, block, trunc_tol).vectors

    probes = unit_cone_probes(space, normalizer_samples, np.random.default_rng(seed))
    values = phi(probes)
    normalizer = _dual_norm(space, y) if mpt is not None else float(np.max(values))
    if normalizer <= 0:
        raise DegenerateBoundError("normalizer is zero; xstar annihilates the orbit")

    def evaluator(x: ConeVector, _n=normalizer) -> float:
        if x.dim != space.dim:
            raise DimensionError(f"expected a vector of dimension {space.dim}, got {x.dim}")
        return float(phi(x.entries[:, None])[0]) / _n

    # The first n + 8 probes reuse their normalizer values; only phi at
    # their images B(p) is new, and y . B(p) = (B^T y) . p is one column.
    head = probes[:, : space.dim + 8]
    fbx = (mpt.raw(y) @ head if mpt is not None else phi(mp.raw(head))) / normalizer
    r = est.value
    defect = float(np.max(np.abs(fbx - r * (values[: head.shape[1]] / normalizer))))
    return EigenfunctionalEstimate(probe_vector=xstar, lambda_used=lam,
                                   normalizer=normalizer, evaluator=evaluator,
                                   defect_max=defect, radius_used=r)
