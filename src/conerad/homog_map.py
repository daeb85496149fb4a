"""Bounded homogeneous maps on the cone: evaluation, combinators, checks.

A map is stored as a raw evaluator on ndarrays or as a frozen matrix.  A
map is linear exactly when it holds its matrix, and then it evaluates that
matrix, which keeps a rank-one perturbation of a linear map linear.  A map
with a transpose, a matrix map or one that supplies its own, builds it on
demand as a map on the dual-norm space (``HomogeneousMap.transposed``).
``HomogeneousMap.raw`` checks every map value against the cone contract
once; solvers do not check it again.

Evaluator contract: an evaluator takes a vector of shape (n,) or a column
block of shape (n, k) and returns an array of the same shape; for a block,
each column is the independent evaluation of that column.  Matrix maps,
perturbed maps and the two-sex map evaluate a block at once; a map made by
``from_callable`` hands its function one column at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cone import ConeSpace, ConeVector, NormKind
from .errors import DegenerateBoundError, DimensionError, MapContractError


@dataclass(frozen=True)
class HomogeneousMap:
    """Evaluatable map of the cone into itself, homogeneous of degree one.

    A map given ``matrix``, which must be finite and nonnegative, is linear:
    it evaluates and transposes its own frozen copy and takes no evaluator.
    Any other map that is linear on the cone may supply ``transpose``, a
    function of no arguments that builds the evaluator of its transpose; it
    runs only when ``transposed`` is called.
    """

    space: ConeSpace
    evaluator: object = None  # Callable[[np.ndarray], np.ndarray], on (n,) or (n, k)
    matrix: np.ndarray | None = None
    name: str = "map"
    transpose: object = None  # Callable[[], evaluator of B^T] or None

    def __post_init__(self):
        if self.matrix is not None:
            if self.evaluator is not None or self.transpose is not None:
                raise ValueError("a linear map evaluates its matrix and takes no evaluator")
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.space.dim, self.space.dim):
                raise DimensionError(
                    f"matrix shape {m.shape} does not match dimension {self.space.dim}")
            if not (m.min() >= 0.0 and m.max() < math.inf):
                raise ValueError("linear map matrix must be finite and nonnegative")
            # a read-only array that owns its data cannot change under the map
            if m.flags.writeable or not m.flags.owndata:
                m = m.copy()
                m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
            object.__setattr__(self, "evaluator", m.__matmul__)
        elif self.evaluator is None:
            raise ValueError("only a matrix map may leave out its evaluator")

    def raw(self, x: np.ndarray) -> np.ndarray:
        """Evaluate on a raw vector (n,) or column block (n, k) with the cone
        contract enforced entry by entry.

        This is the one place a map value is checked: solvers rely on a value
        from ``raw`` being finite and nonnegative and do not check it again.
        """
        out = np.asarray(self.evaluator(x), dtype=float)
        if out.shape != x.shape:
            raise MapContractError(
                f"{self.name}: evaluator changed shape {x.shape} -> {out.shape}")
        # NaN fails both comparisons; the diagnosis runs only on failure
        if out.size and not (out.min() >= 0.0 and out.max() < math.inf):
            if not np.isfinite(out).all():
                raise MapContractError(f"{self.name}: evaluator produced NaN/Inf")
            raise MapContractError(f"{self.name}: evaluator left the cone")
        return out

    def transposed(self) -> HomogeneousMap | None:
        """The transpose B^T as a map on the dual-norm space, or None when the
        map has none.

        The space's norm is at least the dual norm of this map's: LInf for an
        L1 space and L1 for an LInf space, both exact, and weights 1/w for a
        weighted space.  A tail of norm t in it therefore moves y . x by at
        most t for every x of unit norm in this map's space, so a truncation
        tolerance keeps its meaning.
        """
        if self.matrix is None and self.transpose is None:
            return None
        kind = self.space.norm_kind
        if kind is NormKind.WEIGHTED:
            space = ConeSpace(self.space.dim, NormKind.WEIGHTED, 1.0 / self.space.weights)
        else:
            dual = NormKind.LINF if kind is NormKind.L1 else NormKind.L1
            space = ConeSpace(self.space.dim, dual)
        if self.matrix is not None:
            return from_matrix(self.matrix.T, space, name=f"{self.name}^T")
        return HomogeneousMap(space=space, evaluator=self.transpose(), name=f"{self.name}^T")


def from_matrix(matrix, space: ConeSpace | None = None, name: str = "linear") -> HomogeneousMap:
    """Wrap a nonnegative square matrix as a linear homogeneous map."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    if space is None:
        space = ConeSpace(m.shape[0])
    return HomogeneousMap(space=space, matrix=m, name=name)


def from_callable(space: ConeSpace, fn, name: str = "map") -> HomogeneousMap:
    """Wrap a function of one (n,) vector; a block is fed to it column by column."""

    def evaluator(x, _fn=fn):
        if np.ndim(x) == 2:
            return np.column_stack([np.asarray(_fn(np.array(c)), dtype=float) for c in x.T])
        return _fn(x)

    return HomogeneousMap(space=space, evaluator=evaluator, name=name)


def _psi_weight_vector(space: ConeSpace) -> np.ndarray | None:
    """Weight vector w with psi(x) = w . x on the cone, or None for LInf."""
    if space.norm_kind is NormKind.L1:
        return np.ones(space.dim)
    if space.norm_kind is NormKind.WEIGHTED:
        return np.asarray(space.weights, dtype=float)
    return None


def perturb(mp: HomogeneousMap, eps: float, u: ConeVector) -> HomogeneousMap:
    """The map x -> B(x) + eps * psi(x) * u with psi the cone-restricted norm.

    The result dominates eps*psi(x)*u, so it sends nonzero vectors to
    strictly positive multiples of u plus B(x), and it is strictly
    increasing whenever B is order preserving.  For L1-type norms psi is
    additive on the cone, so a linear B stays linear (rank-one update).
    """
    if eps <= 0:
        raise ValueError("perturbation strength eps must be positive")
    space = mp.space
    if u.dim != space.dim:
        raise DimensionError("perturbation direction dimension mismatch")
    if u.is_zero():
        raise DegenerateBoundError("perturbation direction u must be nonzero")

    w = _psi_weight_vector(space)
    if w is not None and mp.matrix is not None:
        matrix = mp.matrix + eps * np.outer(u.entries, w)
        matrix.flags.writeable = False      # fresh, so the map keeps it uncopied
        return HomogeneousMap(space=space, matrix=matrix, name=f"{mp.name}+{eps:g}*psi*u")

    ue = u.entries.copy()

    def shifted(x, _mp=mp, _eps=eps, _u=ue, _sp=space):
        x = np.asarray(x, dtype=float)
        # psi(x) = ||x+||, a float for a vector and one per column for a block
        return _mp.raw(x) + np.multiply.outer(_u, _eps * _sp.norm(np.maximum(x, 0.0)))

    return HomogeneousMap(space=space, evaluator=shifted, name=f"{mp.name}+{eps:g}*psi*u")


def unit_cone_probes(space: ConeSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Probe block on the unit sphere of the active norm: its columns are the
    scaled basis vectors e_j / ||e_j||, then `count` entrywise |N(0,1)| draws
    (a draw of norm zero is dropped)."""
    basis = np.eye(space.dim)
    draws = np.abs(rng.standard_normal((count, space.dim))).T
    norms = space.norm(draws)
    keep = norms > 0
    return np.hstack([basis / space.norm(basis), draws[:, keep] / norms[keep]])


@dataclass
class PropertyReport:
    """Outcome of randomized homogeneity and monotonicity checks; a matrix
    map is certified by its entry check and reports 0 trials."""

    trials: int
    tol: float
    seed: int
    homogeneity_violations: list = field(default_factory=list)
    monotonicity_violations: list = field(default_factory=list)
    max_homogeneity_defect: float = 0.0
    max_monotonicity_defect: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.homogeneity_violations or self.monotonicity_violations)

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "tol": self.tol,
            "seed": self.seed,
            "ok": self.ok,
            "violations": {
                "homogeneity": len(self.homogeneity_violations),
                "monotonicity": len(self.monotonicity_violations),
            },
            "max_defects": {
                "homogeneity": self.max_homogeneity_defect,
                "monotonicity": self.max_monotonicity_defect,
            },
        }


_TRIAL_BLOCK_ENTRIES = 1 << 18   # 2 MB of float64 per trial block


def _trial_blocks(rng: np.random.Generator, n: int, trials: int, alpha_high: float):
    """Random trials x, y ~ N(0, I_n), alpha ~ U(0, alpha_high) in column-major
    (n, k) blocks X, Y and a length-k array of alphas.  Yields (first trial,
    X, Y, alpha).  Each block draws its normals as one (k, 2n) array, then
    its alphas as one array.  A block holds at most _TRIAL_BLOCK_ENTRIES
    entries, or one column when a column is longer, so a check's memory
    stays bounded on large maps."""
    width = max(1, _TRIAL_BLOCK_ENTRIES // n)
    for start in range(0, trials, width):
        k = min(trials - start, width)
        # column-major, so per-column sums match one-vector calls bit for bit:
        # the rows of a C-ordered (k, 2n) array are the columns of its transpose
        xy = rng.standard_normal((k, 2 * n)).T
        yield start, xy[:n], xy[n:], rng.uniform(0.0, alpha_high, size=k)


def _over(values: np.ndarray, tol: float) -> list:
    """Columns whose defect exceeds tol, in order."""
    return np.flatnonzero(values > tol).tolist()


def verify_properties(mp: HomogeneousMap, trials: int = 200, tol: float = 1e-9,
                      seed: int = 0) -> PropertyReport:
    """Probe B(alpha x) = alpha B(x) and x <= y => B(x) <= B(y) on random pairs.

    A matrix map needs no trials: the finite nonnegative matrix its
    constructor checks makes it homogeneous, additive and order preserving,
    so it reports 0 trials and makes no ``raw`` call.  Violations are
    collected, never raised.  The trials run as column blocks: B(X),
    B(alpha X) and B(X + D) are one ``raw`` call each, and every defect is
    taken per column at that column's own scale.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if mp.matrix is not None:
        return PropertyReport(trials=0, tol=tol, seed=seed)
    rep = PropertyReport(trials=trials, tol=tol, seed=seed)
    rng = np.random.default_rng(seed)
    for start, xs, ds, alpha in _trial_blocks(rng, mp.space.dim, trials, 4.0):
        xs, ds = np.abs(xs), np.abs(ds)
        bx = mp.raw(xs)
        scale = np.maximum(1.0, np.abs(bx).max(axis=0))

        defect = np.abs(mp.raw(xs * alpha) - bx * alpha).max(axis=0)
        rel = np.divide(defect, np.maximum(scale * alpha, 1e-300), out=defect, where=alpha > 0)
        rep.max_homogeneity_defect = max(rep.max_homogeneity_defect, float(rel.max()))
        rep.homogeneity_violations += [{"trial": start + j, "alpha": float(alpha[j]),
                                        "defect": float(rel[j])} for j in _over(rel, tol)]

        by = mp.raw(xs + ds)
        slack = (bx - by).max(axis=0) / scale
        rep.max_monotonicity_defect = max(rep.max_monotonicity_defect, float(slack.max()))
        rep.monotonicity_violations += [{"trial": start + j, "defect": float(slack[j])}
                                        for j in _over(slack, tol)]
    return rep
