"""Discretized spatially distributed two-sex population model.

The yearly update composes two linear migration/survival kernels (one per
sex) with a cellwise homogeneous mating and birth function:

    next_year(f) = F(K_female f, K_male f)

on a quadrature grid, with the weighted L1 norm playing the role of the
continuous total-population norm.  A grid is the product of its axes
(slowest first), and a kernel is ``scale * (F_1 kron ... kron F_d)``: one
square factor of raw kernel values k(x_i, x_j) per grid axis, applied by
quadrature axis by axis, K @ (w * f) with w the cell weights.  No n x n
kernel is ever formed: a Gaussian or local kernel on an nx x ny rectangle
holds nx^2 + ny^2 values, and ``build_model`` gives both sexes one shared
factor tuple with per-sex scales, so an evaluation spreads w * f once.
A hand-built dense n x n kernel is the one-factor case.
The model derives from its kernels' factors and the mating field an
order-bound certificate vector u with next_year(f) <= ||f||_1 * u for
every f, which both feeds the spectral routines and is checked at every
evaluation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from .cone import ConeSpace, ConeVector, NormKind, u_norm
from .errors import (
    DegenerateBoundError,
    DimensionError,
    FieldError,
    KernelMassError,
    ModelContractError,
    _field,
    _integer,
    _reals,
    _require_keys,
)
from .homog_map import HomogeneousMap
from .spectral import SpectralEstimate
from .eigenproblem import EigenResult, _certify

_MASS_TOL = 1e-12
_CHAIN_SLACK = 1e-9   # relative slack for the certified bound chain


def _frozen(a) -> np.ndarray:
    """a as a read-only float array; one that already is one is not copied."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        return a
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpatialGrid:
    """Midpoint-rule quadrature grid on an interval or a rectangle.

    ``axes`` holds one (centers, widths) pair per grid axis, slowest axis
    first: cell i of a rectangle is (x[i % nx], y[i // nx]), so its axes
    are (y, x).  A cell's weight is the product of its axes' widths,
    ``cell_weights``, derived once from the axes.
    """

    axes: tuple                 # ((centers, widths), ...), slowest axis first
    cell_weights: np.ndarray = field(init=False)    # (n_cells,)

    def __post_init__(self):
        axes = tuple((_frozen(ac), _frozen(aw)) for ac, aw in self.axes)
        if not axes or any(ac.ndim != 1 or ac.shape != aw.shape for ac, aw in axes):
            raise DimensionError("each grid axis needs one center and one width per cell")
        w = reduce(np.multiply.outer, [aw for _, aw in axes]).ravel()
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "cell_weights", _frozen(w))

    @property
    def n_cells(self) -> int:
        return self.cell_weights.shape[0]

    @classmethod
    def interval(cls, a: float, b: float, n_cells: int) -> "SpatialGrid":
        if b <= a or n_cells < 1:
            raise ValueError("interval grid needs b > a and n_cells >= 1")
        h = (b - a) / n_cells
        xs = a + (np.arange(n_cells) + 0.5) * h
        return cls(((xs, np.full(n_cells, h)),))

    @classmethod
    def rectangle(cls, bounds, nx: int, ny: int) -> "SpatialGrid":
        (ax, bx), (ay, by) = bounds
        if bx <= ax or by <= ay or nx < 1 or ny < 1:
            raise ValueError("rectangle grid needs positive extents and cell counts")
        hx, hy = (bx - ax) / nx, (by - ay) / ny
        xs = ax + (np.arange(nx) + 0.5) * hx
        ys = ay + (np.arange(ny) + 0.5) * hy
        return cls(((ys, np.full(ny, hy)), (xs, np.full(nx, hx))))


def _per_cell(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The per-cell vector v shaped to broadcast against f, (n,) or (n, k)."""
    return v if f.ndim == 1 else v[:, None]


def _kron_apply(factors: tuple, t: np.ndarray) -> np.ndarray:
    """(F_1 kron ... kron F_d) @ t for t of shape (n,) or (n, k), one matmul
    per factor on its own axis of the rows of t.T, (k, n1, ..., nd).

    A block comes back with its longer side contiguous: column-major when
    n >= k, row-major when k > n.  Numpy's entrywise and per-column work on
    an (n, k) block is fastest that way, and the rest of an evaluation
    inherits the layout.
    """
    wide = t.ndim == 2 and t.shape[1] > t.shape[0]
    if len(factors) == 1:   # a dense kernel: one product, no reshaping
        return factors[0] @ t if wide else (t.T @ factors[0].T).T
    rows = t.T
    post = rows.shape[-1]
    for fac in factors:
        m = fac.shape[0]
        post //= m
        if post == 1:   # the last axis: one product with every row at once
            rows = rows.reshape(-1, m) @ fac.T
        else:
            rows = fac @ rows.reshape(-1, m, post)
    out = rows.reshape(t.T.shape).T
    return np.ascontiguousarray(out) if wide else out


def _kron_row_max(factors: tuple) -> np.ndarray:
    """Row maxima of F_1 kron ... kron F_d, the products of the factors' row
    maxima (every entry is nonnegative)."""
    return reduce(np.multiply.outer, [fac.max(axis=1) for fac in factors]).ravel()


@dataclass(frozen=True)
class MigrationKernel:
    """The kernel ``scale * (F_1 kron ... kron F_d)`` of raw kernel values
    k(x_i, x_j), one square factor per grid axis, slowest axis first.

    ``factors`` is a tuple of factors, or one square array: a dense kernel
    is the one-factor case.  Factors that already are read-only float
    arrays are held, not copied, so two kernels can share one tuple.
    Column quadrature mass must be <= 1.  The kernel's sex is the model
    slot it fills.
    """

    factors: tuple
    scale: float = 1.0

    def __post_init__(self):
        given = self.factors if isinstance(self.factors, tuple) else (self.factors,)
        factors = tuple(_frozen(fac) for fac in given)
        if not factors:
            raise DimensionError("a kernel needs at least one factor")
        for fac in factors:
            if fac.ndim != 2 or fac.shape[0] != fac.shape[1]:
                raise DimensionError("kernel factors must be square")
            if not np.all(np.isfinite(fac)) or np.any(fac < 0):
                raise FieldError("kernel values must be finite and nonnegative")
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale >= 0):
            raise FieldError("kernel scale must be finite and nonnegative")
        if not (given is self.factors and all(a is b for a, b in zip(factors, given))):
            object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "scale", scale)

    @property
    def n_cells(self) -> int:
        return math.prod(fac.shape[0] for fac in self.factors)

    def column_mass(self, grid: SpatialGrid) -> np.ndarray:
        """Quadrature mass of each column of the unscaled factor product."""
        return _kron_apply(tuple(fac.T for fac in self.factors), grid.cell_weights)

    def validate_mass(self, column_mass: np.ndarray, slot: str) -> None:
        """Raise unless every column carries mass <= 1, given this kernel's
        ``column_mass(grid)``; slot names the kernel in the error."""
        mass = self.scale * column_mass
        worst = int(np.argmax(mass))
        if mass[worst] > 1.0 + _MASS_TOL:
            raise KernelMassError(
                f"{slot} kernel column {worst} carries mass "
                f"{mass[worst]:.6g} > 1", cell=worst)


class MatingKind(enum.Enum):
    HARMONIC_MEAN = "harmonic_mean"
    MIN_RATE = "min_rate"


@dataclass(frozen=True)
class MatingFunction:
    """Cellwise homogeneous order-preserving birth function."""

    kind: MatingKind
    beta: np.ndarray | None = None     # harmonic mean: per-pair birth rate
    beta1: np.ndarray | None = None    # min rate: female coefficient
    beta2: np.ndarray | None = None    # min rate: male coefficient

    def __post_init__(self):
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", MatingKind(self.kind))
        names = ("beta",) if self.kind is MatingKind.HARMONIC_MEAN else ("beta1", "beta2")
        for name in names:
            v = getattr(self, name)
            if v is None:
                raise FieldError(f"{self.kind.value} mating requires field {name}")
            arr = np.asarray(v, dtype=float)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise FieldError(f"field {name} must be a finite nonnegative vector")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_cells(self) -> int:
        return (self.beta if self.kind is MatingKind.HARMONIC_MEAN else self.beta1).shape[0]

    @property
    def psi_field(self) -> np.ndarray:
        """Per-cell value of the mating function at (1, 1)."""
        if self.kind is MatingKind.HARMONIC_MEAN:
            return self.beta / 2.0
        return np.minimum(self.beta1, self.beta2)

    def apply(self, females: np.ndarray, males: np.ndarray) -> np.ndarray:
        """Offspring per cell from densities of shape (n,) or (n, k)."""
        if self.kind is MatingKind.HARMONIC_MEAN:
            total = females + males
            births = _per_cell(self.beta, total) * females * males
            return np.divide(births, total, out=np.zeros_like(total), where=total > 0)
        return np.minimum(_per_cell(self.beta1, females) * females,
                          _per_cell(self.beta2, males) * males)


@dataclass(frozen=True)
class TwoSexModel:
    """Grid, kernels and mating function; the order-bound certificate u is
    derived from them.

    u = psi * (c_f R_f + c_m R_m), with psi the mating function at (1, 1),
    c the kernel scales and R the row maxima of each kernel's factor
    product, dominates psi * (K_f + K_m) row by row.  Kernels sharing one
    factor tuple have R_f = R_m, and u = psi * ((c_f + c_m) R) is then the
    least such bound.
    """

    grid: SpatialGrid
    k_female: MigrationKernel
    k_male: MigrationKernel
    mating: MatingFunction
    order_bound: ConeVector = field(init=False)

    def __post_init__(self):
        n = self.grid.n_cells
        k_f, k_m = self.k_female, self.k_male
        if k_f.n_cells != n or k_m.n_cells != n:
            raise DimensionError("kernel size does not match grid")
        shared = k_m.factors is k_f.factors
        # kernels sharing one factor tuple share its column masses and row maxima
        mass = k_f.column_mass(self.grid)
        k_f.validate_mass(mass, "female")
        if not shared:
            mass = k_m.column_mass(self.grid)
        k_m.validate_mass(mass, "male")
        if self.mating.n_cells != n:
            raise DimensionError("field sizes do not match grid")
        rows = _kron_row_max(k_f.factors)
        if shared:
            rows = (k_f.scale + k_m.scale) * rows
        else:
            rows = k_f.scale * rows + k_m.scale * _kron_row_max(k_m.factors)
        with np.errstate(over="ignore"):
            bound = self.mating.psi_field * rows
        if not np.all(bound < math.inf):
            raise DegenerateBoundError(
                "the order bound psi * (c_f R_f + c_m R_m) overflows: the mating rates are "
                "too large for the kernels")
        object.__setattr__(self, "order_bound", ConeVector(bound))

    @property
    def space(self) -> ConeSpace:
        return ConeSpace(self.grid.n_cells, NormKind.WEIGHTED, self.grid.cell_weights)

    def as_map(self) -> HomogeneousMap:
        """The yearly update as a map; kernels sharing one factor tuple make
        it linear on the cone, and then it supplies its transpose."""
        def evaluator(x, _model=self):
            return _step_raw(_model, np.asarray(x, dtype=float))

        shared = self.k_male.factors is self.k_female.factors
        return HomogeneousMap(space=self.space, evaluator=evaluator, name="two_sex",
                              transpose=partial(_transposed_step, self) if shared else None)


def _transposed_step(model: TwoSexModel):
    """The evaluator of B^T for kernels sharing one factor tuple.

    Then females and males are s_f S and s_m S with S = K(w * f) and K the
    unscaled factor product, and the mating function is homogeneous, so
    B f = c * S with c_i the mating function of cell i at (s_f, s_m), and
    B^T y = w * K^T(c * y), with K^T the product of the transposed factors.
    """
    k_f, k_m = model.k_female, model.k_male
    n = model.grid.n_cells
    c = model.mating.apply(np.full(n, k_f.scale), np.full(n, k_m.scale))
    factors = tuple(np.ascontiguousarray(fac.T) for fac in k_f.factors)
    w = model.grid.cell_weights

    def evaluator(y):
        return _per_cell(w, y) * _kron_apply(factors, _per_cell(c, y) * y)

    return evaluator


def _step_raw(model: TwoSexModel, f: np.ndarray) -> np.ndarray:
    """The yearly update of one density (n,) or of each column of (n, k).

    Kernels sharing one factor tuple spread w * f once and scale the result
    per sex.  Both order-bound checks run per column, each at that column's
    own scale.
    """
    k_f, k_m = model.k_female, model.k_male
    weighted = _per_cell(model.grid.cell_weights, f) * f
    spread = _kron_apply(k_f.factors, weighted)
    females = k_f.scale * spread
    if k_m.factors is not k_f.factors:
        spread = _kron_apply(k_m.factors, weighted)
    males = k_m.scale * spread
    out = model.mating.apply(females, males)
    cap = _per_cell(model.mating.psi_field, f) * (females + males)
    # ndarray methods, the cheapest numpy calls on a scalar: this runs once
    # per evaluation, often at small n.  Each check compares entrywise
    # against its column's threshold.
    scale = cap.max(axis=0, initial=1.0)
    if (out - cap > _CHAIN_SLACK * scale).any():
        raise ModelContractError("offspring exceeded psi * (K1 f + K2 f)")
    mass = model.grid.cell_weights @ f
    u = model.order_bound.entries
    bound = np.maximum(mass * u.max(), scale)  # scale >= 1
    top = np.multiply(_per_cell(u, f), mass, out=np.empty_like(out))  # laid out like out
    if (out - top > _CHAIN_SLACK * bound).any():
        raise ModelContractError("offspring exceeded ||f||_1 * order bound")
    return out


def _gaussian_kernel(grid: SpatialGrid, sigma: float) -> tuple:
    """Gaussian displacement density sampled at cell centers, one factor per
    grid axis (not renormalized, so mass dispersing outside the habitat is
    lost).  The isotropic Gaussian is the product of its 1D marginals."""
    norm = (2.0 * math.pi * sigma * sigma) ** 0.5
    factors = []
    for centers, _ in grid.axes:
        diff = centers[:, None] - centers[None, :]
        factors.append(np.exp(-(diff * diff) / (2.0 * sigma * sigma)) / norm)
    return tuple(factors)


def _local_kernel(grid: SpatialGrid) -> tuple:
    """No dispersal: offspring recruit in their natal cell; one factor per
    grid axis."""
    return tuple(np.diag(1.0 / widths) for _, widths in grid.axes)


def _parse_field(value, n: int, name: str) -> np.ndarray:
    with _field(name, "model config"):
        arr = _reals(value)
        arr = np.full(n, float(arr)) if arr.ndim == 0 else arr
        if arr.shape != (n,):
            raise ValueError(f"must be a scalar or a length-{n} array")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise FieldError(f"field {name} must be finite and nonnegative")
    return arr


# the kinds of each model config section, with the keys each takes beside "kind"
_KINDS = {
    "grid": {"interval1d": ("a", "b", "n_cells"), "rectangle2d": ("bounds", "nx", "ny")},
    "dispersal": {"gaussian": ("sigma",), "local": ()},
    "mating": {"harmonic_mean": ("beta",), "min_rate": ("beta1", "beta2")},
}


def build_model(config: dict) -> TwoSexModel:
    """Assemble a model from a configuration mapping.

    Expected shape::

        {"grid": {"kind": "interval1d", "a": 0, "b": 1, "n_cells": 50}
                 | {"kind": "rectangle2d", "bounds": [[ax,bx],[ay,by]], "nx": , "ny": },
         "dispersal": {"kind": "gaussian", "sigma": 0.1} | {"kind": "local"},
         "survival": {"female": 0.5, "male": 0.5},
         "sex_ratio": 0.5,
         "mating": {"kind": "harmonic_mean", "beta": 2.0}
                  | {"kind": "min_rate", "beta1": ..., "beta2": ...}}

    A malformed value raises ConfigError naming its field.
    """
    _require_keys(config, ("grid", "dispersal", "survival", "sex_ratio", "mating"), "model config")
    for name, kinds in _KINDS.items():
        section = config[name]
        _require_keys(section, ("kind",), name, optional=sum(kinds.values(), ()))
        with _field(f"{name}.kind", "model config"):
            if section["kind"] not in list(kinds):   # a list: a kind may be unhashable
                raise ValueError(f"must be one of {list(kinds)}, got {section['kind']!r}")
        _require_keys(section, ("kind", *kinds[section["kind"]]), name)
    _require_keys(config["survival"], ("female", "male"), "survival")
    g, disp, mat = config["grid"], config["dispersal"], config["mating"]

    if disp["kind"] == "gaussian":
        with _field("dispersal.sigma", "model config"):
            sigma = float(_reals(disp["sigma"], 0))
            if not sigma > 0:
                raise ValueError(f"must be positive, got {sigma!r}")
    if g["kind"] == "interval1d":
        with _field("grid.a", "model config"):
            a = float(_reals(g["a"], 0))
        with _field("grid.b", "model config"):
            b = float(_reals(g["b"], 0))
        with _field("grid.n_cells", "model config"):
            n_cells = _integer(g["n_cells"])
        make_grid = partial(SpatialGrid.interval, a, b, n_cells)
    else:
        with _field("grid.bounds", "model config"):
            (ax, bx), (ay, by) = _reals(g["bounds"]).tolist()
        with _field("grid.nx", "model config"):
            nx = _integer(g["nx"])
        with _field("grid.ny", "model config"):
            ny = _integer(g["ny"])
        make_grid = partial(SpatialGrid.rectangle, ((ax, bx), (ay, by)), nx, ny)
    # a grid too large to allocate fails here, in its cell weights or kernel factors
    with _field("grid", "model config"):
        grid = make_grid()
        factors = (_gaussian_kernel(grid, sigma) if disp["kind"] == "gaussian"
                   else _local_kernel(grid))
    n = grid.n_cells

    rates = []
    for name, value in (("survival.female", config["survival"]["female"]),
                        ("survival.male", config["survival"]["male"]),
                        ("sex_ratio", config["sex_ratio"])):
        with _field(name, "model config"):
            rates.append(float(_reals(value, 0)))
            if not 0.0 <= rates[-1] <= 1.0:
                raise ValueError(f"must lie in [0, 1], got {rates[-1]}")
    s_f, s_m, q = rates

    mating = MatingFunction(mat["kind"], **{key: _parse_field(mat[key], n, f"mating.{key}")
                                            for key in _KINDS["mating"][mat["kind"]]})

    # both sexes hold the female kernel's (frozen) factor tuple
    k_female = MigrationKernel(factors, s_f * q)
    k_male = MigrationKernel(k_female.factors, s_m * (1.0 - q))
    try:
        return TwoSexModel(grid=grid, k_female=k_female, k_male=k_male, mating=mating)
    except DegenerateBoundError:    # the order bound, which the mating rates scale, overflowed
        with _field("mating", "model config"):
            raise


@dataclass
class GammaEstimate:
    """Trailing orbit growth factor for one initial distribution."""

    gamma: float
    years: int
    died: bool

    def to_json(self) -> dict:
        return {"gamma": self.gamma, "years": self.years, "died": self.died}


@dataclass
class Trajectory:
    """Yearly log masses with renormalized shapes and a running growth factor."""

    log_mass: list          # log total (weighted) mass per year, year 0 first
    shapes: np.ndarray      # (years + 1, n) mass-normalized density per year
    gamma_estimates: list   # per-year growth factor (mass_n / mass_0)^(1/n)
    died_at: int | None

    def final_gamma(self) -> float:
        return self.gamma_estimates[-1] if self.gamma_estimates else 0.0

    def to_json(self) -> dict:
        return {
            "log_mass": [float(v) for v in self.log_mass],
            "gamma_estimates": [float(v) for v in self.gamma_estimates],
            "died_at": self.died_at,
        }


def simulate(model: TwoSexModel, f0: ConeVector, years: int) -> Trajectory:
    """Iterate the yearly update, storing log mass and normalized shape.

    The running growth factor is checked against the rigorous chain bound
    gamma_n <= alpha * (||u|| / alpha)^(1/n) with alpha the one-step
    max-ratio bound at u, the least alpha with B(u) <= alpha u (+inf, so no
    check, unless u is strictly positive: only then does it bound the
    radius).
    """
    if years < 1:
        raise ValueError("years must be >= 1")
    mp = model.as_map()
    space = model.space
    u = model.order_bound
    alpha = u_norm(ConeVector(mp.raw(u.entries)), u) if np.all(u.entries > 0) else math.inf

    mass0 = float(model.grid.cell_weights @ f0.entries)
    log_mass = [math.log(mass0) if mass0 > 0 else -math.inf]
    # renormalized storage: each row carries unit mass, log_mass the scale;
    # rows after a die-out stay zero
    shapes = np.zeros((years + 1, space.dim))
    gammas = []
    died_at = None if mass0 > 0 else 0
    if mass0 > 0:
        shapes[0] = f0.entries / mass0
    norm_u = space.norm(u.entries)
    cum = log_mass[0]
    year = 0
    while died_at is None and year < years:
        year += 1
        nxt = mp.raw(shapes[year - 1])
        mass = float(model.grid.cell_weights @ nxt)
        if mass == 0.0:
            died_at = year
            break
        shapes[year] = nxt / mass
        cum += math.log(mass)
        log_mass.append(cum)
        gamma = math.exp((cum - log_mass[0]) / year)
        gammas.append(gamma)
        if alpha > 0 and math.isfinite(alpha):
            bound = alpha * (norm_u / alpha) ** (1.0 / year)
            if gamma > bound * (1.0 + 1e-9):
                raise ModelContractError(
                    f"growth factor {gamma} exceeded the certified chain bound {bound}")
    dead_years = years + 1 - len(log_mass)
    log_mass += [-math.inf] * dead_years
    gammas += [0.0] * dead_years
    return Trajectory(log_mass=log_mass, shapes=shapes,
                      gamma_estimates=gammas, died_at=died_at)


@dataclass
class PersistenceReport:
    """Radius bracket, threshold verdict, eigenpair, and orbit growth probes.

    ``error`` names an eigen stage that did not settle; the bracket and the
    verdict still hold, and ``eigen`` is None.
    """

    radius: SpectralEstimate
    verdict: str                # "persistence" | "extinction" | "inconclusive"
    eigen: EigenResult | None
    gamma_probes: list
    error: str | None = None

    def to_json(self) -> dict:
        eigen = None if self.eigen is None else self.eigen.to_json()
        if eigen is not None:
            del eigen["solves"]     # always 0: a two-sex map takes no dense solves
        out = {
            "radius": self.radius.to_json(),
            "verdict": self.verdict,
            "eigen": eigen,
            "gamma_probes": [g.to_json() for g in self.gamma_probes],
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def assess_persistence(model: TwoSexModel, tol: float = 1e-8,
                       f0_probes=None, max_iter: int = 10000) -> PersistenceReport:
    """Compare the radius bracket against the threshold value 1.

    The bracket is the one the ``radius`` command computes
    (``eigenproblem._certify``): the eigenvector v is solved first, from the
    order bound u, and the bracket is started from v with the image B(v)
    the solve has already evaluated.  At an eigenvector the Collatz-Wielandt
    ratios of B(v)/v all equal the radius, so the bracket closes in about
    one iteration where a start from u takes tens.  Every bound stays a
    certificate whatever the start; ``radius.iterations`` and
    ``log_norm_trace`` describe the iteration from v.  The bracket starts
    from u instead when v is not strictly positive, or when the eigen stage
    fails; in the second case the report carries the error and no
    eigenpair.  max_iter caps both the stage's steps and the bracket's
    iterations.  Supplied initial distributions get 20-year orbit growth
    estimates.
    """
    u = model.order_bound
    if u.is_zero():
        # The operator is identically zero; nothing can persist.
        radius = SpectralEstimate(value=0.0, cw_lower=0.0, cw_upper=0.0,
                                  iterations=0, converged=True)
        return PersistenceReport(radius=radius, verdict="extinction",
                                 eigen=None, gamma_probes=[])
    radius, eigen, error, _ = _certify(model.as_map(), u, tol, max_iter)
    if radius.cw_lower > 1.0:
        verdict = "persistence"
    elif radius.cw_upper < 1.0:
        verdict = "extinction"
    else:
        verdict = "inconclusive"
    if radius.value <= 0:
        eigen = None
    probes = []
    if f0_probes:
        for f0 in f0_probes:
            traj = simulate(model, f0, years=20)
            probes.append(GammaEstimate(gamma=traj.final_gamma(), years=20,
                                        died=traj.died_at is not None))
    return PersistenceReport(radius=radius, verdict=verdict, eigen=eigen,
                             gamma_probes=probes, error=error)
