"""Discretized spatially distributed two-sex population model.

The yearly update composes two linear migration/survival kernels (one per
sex) with a cellwise homogeneous mating and birth function:

    next_year(f) = F(K_female f, K_male f)

on a quadrature grid, with the weighted L1 norm playing the role of the
continuous total-population norm.  Kernel matrices store raw kernel values
k(x_i, x_j) and are applied by quadrature, K @ (w * f) with w the cell
weights; no weighted copy of a kernel is kept.
The model carries an order-bound certificate vector u with
next_year(f) <= ||f||_1 * u for every f, which both feeds the spectral
routines and is checked at every evaluation.
"""

from __future__ import annotations

import enum
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cone import ConeSpace, ConeVector, NormKind
from .errors import (
    ConfigError,
    DimensionError,
    FieldError,
    KernelMassError,
    ModelContractError,
)
from .homog_map import HomogeneousMap, MapFlag
from .spectral import SpectralEstimate, cw_upper, radius_bracket
from .eigenproblem import EigenResult, solve_eigenvector_perturbation

_MASS_TOL = 1e-12
_CHAIN_SLACK = 1e-9   # relative slack for the certified bound chain


@dataclass(frozen=True)
class SpatialGrid:
    """Midpoint-rule quadrature grid on an interval or a rectangle."""

    kind: str                   # "interval1d" | "rectangle2d"
    cell_centers: np.ndarray    # (n_cells, spatial_dim)
    cell_weights: np.ndarray    # (n_cells,)

    def __post_init__(self):
        c = np.asarray(self.cell_centers, dtype=float)
        w = np.asarray(self.cell_weights, dtype=float)
        if c.ndim != 2 or w.ndim != 1 or c.shape[0] != w.shape[0]:
            raise DimensionError("cell centers and weights are inconsistent")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        c.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "cell_centers", c)
        object.__setattr__(self, "cell_weights", w)

    @property
    def n_cells(self) -> int:
        return self.cell_weights.shape[0]

    @classmethod
    def interval(cls, a: float, b: float, n_cells: int) -> "SpatialGrid":
        if b <= a or n_cells < 1:
            raise ValueError("interval grid needs b > a and n_cells >= 1")
        h = (b - a) / n_cells
        centers = (a + (np.arange(n_cells) + 0.5) * h).reshape(-1, 1)
        return cls("interval1d", centers, np.full(n_cells, h))

    @classmethod
    def rectangle(cls, bounds, nx: int, ny: int) -> "SpatialGrid":
        (ax, bx), (ay, by) = bounds
        if bx <= ax or by <= ay or nx < 1 or ny < 1:
            raise ValueError("rectangle grid needs positive extents and cell counts")
        hx, hy = (bx - ax) / nx, (by - ay) / ny
        xs = ax + (np.arange(nx) + 0.5) * hx
        ys = ay + (np.arange(ny) + 0.5) * hy
        centers = np.array([(x, y) for y in ys for x in xs])
        return cls("rectangle2d", centers, np.full(nx * ny, hx * hy))


class KernelRole(enum.Enum):
    FEMALE = "female"
    MALE = "male"


@dataclass(frozen=True)
class MigrationKernel:
    """Raw kernel values k(x_i, x_j); column quadrature mass must be <= 1."""

    matrix: np.ndarray
    role: KernelRole

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("kernel matrix must be square")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise FieldError("kernel values must be finite and nonnegative")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        if isinstance(self.role, str):
            object.__setattr__(self, "role", KernelRole(self.role))

    def validate_mass(self, grid: SpatialGrid) -> None:
        mass = grid.cell_weights @ self.matrix
        worst = int(np.argmax(mass))
        if mass[worst] > 1.0 + _MASS_TOL:
            raise KernelMassError(
                f"{self.role.value} kernel column {worst} carries mass "
                f"{mass[worst]:.6g} > 1", cell=worst)

    def apply(self, grid: SpatialGrid, f: np.ndarray) -> np.ndarray:
        """The integral operator at per-cell densities f, by quadrature."""
        return self.matrix @ (grid.cell_weights * f)


def _tight_order_bound(psi: np.ndarray, k_female: MigrationKernel,
                       k_male: MigrationKernel) -> np.ndarray:
    """psi * rowmax(K_f + K_m): the least u with psi_i (K_f + K_m)_ij <= u_i."""
    return psi * np.max(k_female.matrix + k_male.matrix, axis=1)


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
        if self.kind is MatingKind.HARMONIC_MEAN:
            total = females + males
            out = np.zeros_like(total)
            mask = total > 0
            out[mask] = self.beta[mask] * females[mask] * males[mask] / total[mask]
            return out
        return np.minimum(self.beta1 * females, self.beta2 * males)


def mating_value(mating: MatingFunction, cell: int, x1: float, x2: float) -> float:
    """Offspring produced at one cell from x1 females and x2 males."""
    if x1 < 0 or x2 < 0:
        raise ValueError("sex densities must be nonnegative")
    n = mating.n_cells
    return float(mating.apply(np.full(n, float(x1)), np.full(n, float(x2)))[cell])


@dataclass(frozen=True)
class TwoSexModel:
    """Grid, kernels, mating function, and the order-bound certificate u."""

    grid: SpatialGrid
    k_female: MigrationKernel
    k_male: MigrationKernel
    mating: MatingFunction
    order_bound: ConeVector

    def __post_init__(self):
        n = self.grid.n_cells
        for kern in (self.k_female, self.k_male):
            if kern.matrix.shape != (n, n):
                raise DimensionError("kernel size does not match grid")
            kern.validate_mass(self.grid)
        if self.mating.n_cells != n or self.order_bound.dim != n:
            raise DimensionError("field sizes do not match grid")
        bound = _tight_order_bound(self.mating.psi_field, self.k_female, self.k_male)
        if float(np.max(bound - self.order_bound.entries)) > 1e-12 * max(
                1.0, float(np.max(bound))):
            raise FieldError("order bound does not dominate psi * (k1 + k2)")

    @property
    def space(self) -> ConeSpace:
        return ConeSpace(self.grid.n_cells, NormKind.WEIGHTED, self.grid.cell_weights)

    def population_mass(self, f: ConeVector) -> float:
        return float(self.grid.cell_weights @ f.entries)

    def as_map(self) -> HomogeneousMap:
        def evaluator(x, _model=self):
            return _step_raw(_model, np.asarray(x, dtype=float))

        return HomogeneousMap(space=self.space, evaluator=evaluator,
                              flags=MapFlag.NONE, name="two_sex")


def _step_raw(model: TwoSexModel, f: np.ndarray) -> np.ndarray:
    females = model.k_female.apply(model.grid, f)
    males = model.k_male.apply(model.grid, f)
    out = model.mating.apply(females, males)
    psi = model.mating.psi_field
    cap = psi * (females + males)
    # ndarray.max, not np.max: this runs once per evaluation, often at small n
    scale = max(1.0, float(cap.max()))
    if float((out - cap).max()) > _CHAIN_SLACK * scale:
        raise ModelContractError("offspring exceeded psi * (K1 f + K2 f)")
    mass = float(model.grid.cell_weights @ f)
    u = model.order_bound.entries
    if float((out - mass * u).max()) > _CHAIN_SLACK * max(1.0, mass * float(u.max()), scale):
        raise ModelContractError("offspring exceeded ||f||_1 * order bound")
    return out


def step_next_year(model: TwoSexModel, f: ConeVector) -> ConeVector:
    """One yearly update: migrate and survive both sexes, then mate cellwise."""
    if f.dim != model.grid.n_cells:
        raise DimensionError("population vector does not match grid")
    return ConeVector(_step_raw(model, f.entries))


def _gaussian_kernel(grid: SpatialGrid, sigma: float) -> np.ndarray:
    """Gaussian displacement density sampled at cell centers (not renormalized,
    so mass dispersing outside the habitat is lost)."""
    if sigma <= 0:
        raise ConfigError("dispersal sigma must be positive")
    n, dim = grid.cell_centers.shape
    d2 = np.zeros((n, n))
    for coord in grid.cell_centers.T:
        diff = coord[:, None] - coord[None, :]
        d2 += diff * diff
    norm = (2.0 * math.pi * sigma * sigma) ** (dim / 2.0)
    return np.exp(-d2 / (2.0 * sigma * sigma)) / norm


def _local_kernel(grid: SpatialGrid) -> np.ndarray:
    """No dispersal: offspring recruit in their natal cell."""
    return np.diag(1.0 / grid.cell_weights)


@contextmanager
def _config_field(name: str):
    """Report a malformed model-config value as a ConfigError naming its field."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"model config field '{name}' is invalid: {exc}") from exc


def _number(value, name: str, kind=float):
    with _config_field(name):
        return kind(value)


def _parse_field(value, n: int, name: str) -> np.ndarray:
    with _config_field(name):
        arr = np.full(n, float(value)) if np.isscalar(value) else np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"field {name} must be a scalar or a length-{n} array")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise FieldError(f"field {name} must be finite and nonnegative")
    return arr


def _mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    return obj


def _require_keys(obj, keys: set, where: str) -> None:
    """Check that `obj` is a mapping with exactly the given keys."""
    unknown = set(_mapping(obj, where)) - keys
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = keys - set(obj)
    if missing:
        raise ConfigError(f"{where} is missing required key(s) {sorted(missing)}")


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
    _require_keys(config, {"grid", "dispersal", "survival", "sex_ratio", "mating"},
                  "model config")

    g = config["grid"]
    kind = _mapping(g, "grid").get("kind")
    if kind == "interval1d":
        _require_keys(g, {"kind", "a", "b", "n_cells"}, "grid")
        a, b = _number(g["a"], "grid.a"), _number(g["b"], "grid.b")
        n_cells = _number(g["n_cells"], "grid.n_cells", int)
        with _config_field("grid"):
            grid = SpatialGrid.interval(a, b, n_cells)
    elif kind == "rectangle2d":
        _require_keys(g, {"kind", "bounds", "nx", "ny"}, "grid")
        with _config_field("grid.bounds"):
            (ax, bx), (ay, by) = g["bounds"]
            bounds = ((float(ax), float(bx)), (float(ay), float(by)))
        nx, ny = _number(g["nx"], "grid.nx", int), _number(g["ny"], "grid.ny", int)
        with _config_field("grid"):
            grid = SpatialGrid.rectangle(bounds, nx, ny)
    else:
        raise ConfigError("grid.kind must be 'interval1d' or 'rectangle2d'")
    n = grid.n_cells

    disp = config["dispersal"]
    kind = _mapping(disp, "dispersal").get("kind")
    if kind == "gaussian":
        _require_keys(disp, {"kind", "sigma"}, "dispersal")
        base = _gaussian_kernel(grid, _number(disp["sigma"], "dispersal.sigma"))
    elif kind == "local":
        _require_keys(disp, {"kind"}, "dispersal")
        base = _local_kernel(grid)
    else:
        raise ConfigError("dispersal.kind must be 'gaussian' or 'local'")

    surv = config["survival"]
    _require_keys(surv, {"female", "male"}, "survival")
    s_f = _number(surv["female"], "survival.female")
    s_m = _number(surv["male"], "survival.male")
    q = _number(config["sex_ratio"], "sex_ratio")
    for name, val in (("survival.female", s_f), ("survival.male", s_m), ("sex_ratio", q)):
        if not (0.0 <= val <= 1.0):
            raise ConfigError(f"{name} must lie in [0, 1], got {val}")

    mat = config["mating"]
    kind = _mapping(mat, "mating").get("kind")
    if kind == "harmonic_mean":
        _require_keys(mat, {"kind", "beta"}, "mating")
        mating = MatingFunction(MatingKind.HARMONIC_MEAN,
                                beta=_parse_field(mat["beta"], n, "mating.beta"))
    elif kind == "min_rate":
        _require_keys(mat, {"kind", "beta1", "beta2"}, "mating")
        mating = MatingFunction(MatingKind.MIN_RATE,
                                beta1=_parse_field(mat["beta1"], n, "mating.beta1"),
                                beta2=_parse_field(mat["beta2"], n, "mating.beta2"))
    else:
        raise ConfigError("mating.kind must be 'harmonic_mean' or 'min_rate'")

    k_female = MigrationKernel(base * (s_f * q), KernelRole.FEMALE)
    k_male = MigrationKernel(base * (s_m * (1.0 - q)), KernelRole.MALE)
    u = _tight_order_bound(mating.psi_field, k_female, k_male)
    return TwoSexModel(grid=grid, k_female=k_female, k_male=k_male,
                       mating=mating, order_bound=ConeVector(u))


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

    def slope(self) -> float:
        """Mean yearly log-mass increment over the recorded horizon."""
        finite = [v for v in self.log_mass if math.isfinite(v)]
        if len(finite) < 2:
            return -math.inf
        return (finite[-1] - finite[0]) / (len(finite) - 1)

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
    max-ratio bound at u, valid whenever u is strictly positive.
    """
    if years < 1:
        raise ValueError("years must be >= 1")
    mp = model.as_map()
    space = model.space
    u = model.order_bound
    alpha = None
    if not u.is_zero() and np.all(u.entries > 0):
        alpha = cw_upper(mp, u, 1)

    mass0 = model.population_mass(f0)
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
        if alpha is not None and alpha > 0 and math.isfinite(alpha):
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
    """Radius bracket, threshold verdict, eigenpair, and orbit growth probes."""

    radius: SpectralEstimate
    verdict: str                # "persistence" | "extinction" | "inconclusive"
    eigen: EigenResult | None
    gamma_probes: list

    def to_json(self) -> dict:
        return {
            "radius": self.radius.to_json(),
            "verdict": self.verdict,
            "eigen": None if self.eigen is None else self.eigen.to_json(),
            "gamma_probes": [g.to_json() for g in self.gamma_probes],
        }


def assess_persistence(model: TwoSexModel, tol: float = 1e-8,
                       f0_probes=None, max_iter: int = 10000) -> PersistenceReport:
    """Compare the radius bracket against the threshold value 1.

    The bracket is started from the order-bound certificate u.  When u is
    strictly positive an eigenvector is computed as well; supplied initial
    distributions get 20-year orbit growth estimates.
    """
    u = model.order_bound
    if u.is_zero():
        # The operator is identically zero; nothing can persist.
        radius = SpectralEstimate(value=0.0, cw_lower=0.0, cw_upper=0.0,
                                  iterations=0, converged=True)
        return PersistenceReport(radius=radius, verdict="extinction",
                                 eigen=None, gamma_probes=[])
    mp = model.as_map()
    radius = radius_bracket(mp, u, tol=tol, max_iter=max_iter)
    if radius.cw_lower > 1.0:
        verdict = "persistence"
    elif radius.cw_upper < 1.0:
        verdict = "extinction"
    else:
        verdict = "inconclusive"
    eigen = None
    if radius.value > 0:
        eigen = solve_eigenvector_perturbation(mp, u)
    probes = []
    if f0_probes:
        for f0 in f0_probes:
            traj = simulate(model, f0, years=20)
            probes.append(GammaEstimate(gamma=traj.final_gamma(), years=20,
                                        died=traj.died_at is not None))
    return PersistenceReport(radius=radius, verdict=verdict, eigen=eigen,
                             gamma_probes=probes)
