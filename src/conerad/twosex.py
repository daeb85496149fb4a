"""Discretized spatially distributed two-sex population model.

The yearly update composes two linear migration/survival kernels (one per
sex) with a cellwise homogeneous mating and birth function:

    next_year(f) = F(K_female f, K_male f)

on a quadrature grid, with the weighted L1 norm playing the role of the
continuous total-population norm.  Kernel matrices store raw kernel values
k(x_i, x_j); application multiplies by the source-cell quadrature weights.
The model carries an order-bound certificate vector u with
next_year(f) <= ||f||_1 * u for every f, which both feeds the spectral
routines and is checked at every evaluation.
"""

from __future__ import annotations

import enum
import math
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
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError("kernel matrix must be square")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise FieldError("kernel values must be finite and nonnegative")
        m = m.copy()
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

    def operator(self, grid: SpatialGrid) -> np.ndarray:
        """Dense matrix applying the integral operator to per-cell densities."""
        return self.matrix * grid.cell_weights[None, :]


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
    f = np.array([x1])
    m = np.array([x2])
    sub = MatingFunction(
        mating.kind,
        beta=None if mating.beta is None else mating.beta[cell:cell + 1],
        beta1=None if mating.beta1 is None else mating.beta1[cell:cell + 1],
        beta2=None if mating.beta2 is None else mating.beta2[cell:cell + 1],
    )
    return float(sub.apply(f, m)[0])


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
        psi = self.mating.psi_field
        needed = psi[:, None] * (self.k_female.matrix + self.k_male.matrix)
        if float(np.max(needed - self.order_bound.entries[:, None])) > 1e-12 * max(
                1.0, float(np.max(needed))):
            raise FieldError("order bound does not dominate psi * (k1 + k2)")

    @property
    def space(self) -> ConeSpace:
        return ConeSpace(self.grid.n_cells, NormKind.WEIGHTED, self.grid.cell_weights)

    def population_mass(self, f: ConeVector) -> float:
        return float(self.grid.cell_weights @ f.entries)

    def as_map(self) -> HomogeneousMap:
        kf = self.k_female.operator(self.grid)
        km = self.k_male.operator(self.grid)

        def evaluator(x, _model=self, _kf=kf, _km=km):
            return _step_raw(_model, _kf, _km, np.asarray(x, dtype=float))

        return HomogeneousMap(space=self.space, evaluator=evaluator,
                              flags=MapFlag.NONE, name="two_sex")


def _step_raw(model: TwoSexModel, kf: np.ndarray, km: np.ndarray,
              f: np.ndarray) -> np.ndarray:
    females = kf @ f
    males = km @ f
    out = model.mating.apply(females, males)
    psi = model.mating.psi_field
    cap = psi * (females + males)
    scale = max(1.0, float(np.max(cap)))
    if float(np.max(out - cap)) > _CHAIN_SLACK * scale:
        raise ModelContractError("offspring exceeded psi * (K1 f + K2 f)")
    mass = float(model.grid.cell_weights @ f)
    u = model.order_bound.entries
    if float(np.max(out - mass * u)) > _CHAIN_SLACK * max(1.0, mass * float(np.max(u)), scale):
        raise ModelContractError("offspring exceeded ||f||_1 * order bound")
    return out


def step_next_year(model: TwoSexModel, f: ConeVector) -> ConeVector:
    """One yearly update: migrate and survive both sexes, then mate cellwise."""
    if f.dim != model.grid.n_cells:
        raise DimensionError("population vector does not match grid")
    kf = model.k_female.operator(model.grid)
    km = model.k_male.operator(model.grid)
    return ConeVector(_step_raw(model, kf, km, f.entries))


def _gaussian_kernel(grid: SpatialGrid, sigma: float) -> np.ndarray:
    """Gaussian displacement density sampled at cell centers (not renormalized,
    so mass dispersing outside the habitat is lost)."""
    if sigma <= 0:
        raise ConfigError("dispersal sigma must be positive")
    diff = grid.cell_centers[:, None, :] - grid.cell_centers[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    dim = grid.cell_centers.shape[1]
    norm = (2.0 * math.pi * sigma * sigma) ** (dim / 2.0)
    return np.exp(-d2 / (2.0 * sigma * sigma)) / norm


def _local_kernel(grid: SpatialGrid) -> np.ndarray:
    """No dispersal: offspring recruit in their natal cell."""
    return np.diag(1.0 / grid.cell_weights)


def _parse_field(value, n: int, name: str) -> np.ndarray:
    if np.isscalar(value):
        arr = np.full(n, float(value))
    else:
        arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ConfigError(f"field {name} must be a scalar or a length-{n} array")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise FieldError(f"field {name} must be finite and nonnegative")
    return arr


def _require_keys(obj, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


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
    """
    _require_keys(config, {"grid", "dispersal", "survival", "sex_ratio", "mating"}, "model config")
    for key in ("grid", "dispersal", "survival", "sex_ratio", "mating"):
        if key not in config:
            raise ConfigError(f"model config is missing required key '{key}'")

    g = config["grid"]
    if g.get("kind") == "interval1d":
        _require_keys(g, {"kind", "a", "b", "n_cells"}, "grid")
        grid = SpatialGrid.interval(float(g["a"]), float(g["b"]), int(g["n_cells"]))
    elif g.get("kind") == "rectangle2d":
        _require_keys(g, {"kind", "bounds", "nx", "ny"}, "grid")
        grid = SpatialGrid.rectangle(g["bounds"], int(g["nx"]), int(g["ny"]))
    else:
        raise ConfigError("grid.kind must be 'interval1d' or 'rectangle2d'")
    n = grid.n_cells

    disp = config["dispersal"]
    if disp.get("kind") == "gaussian":
        _require_keys(disp, {"kind", "sigma"}, "dispersal")
        base = _gaussian_kernel(grid, float(disp["sigma"]))
    elif disp.get("kind") == "local":
        _require_keys(disp, {"kind"}, "dispersal")
        base = _local_kernel(grid)
    else:
        raise ConfigError("dispersal.kind must be 'gaussian' or 'local'")

    surv = config["survival"]
    _require_keys(surv, {"female", "male"}, "survival")
    s_f, s_m = float(surv["female"]), float(surv["male"])
    q = float(config["sex_ratio"])
    for name, val in (("survival.female", s_f), ("survival.male", s_m), ("sex_ratio", q)):
        if not (0.0 <= val <= 1.0):
            raise ConfigError(f"{name} must lie in [0, 1], got {val}")

    mat = config["mating"]
    if mat.get("kind") == "harmonic_mean":
        _require_keys(mat, {"kind", "beta"}, "mating")
        mating = MatingFunction(MatingKind.HARMONIC_MEAN,
                                beta=_parse_field(mat["beta"], n, "beta"))
    elif mat.get("kind") == "min_rate":
        _require_keys(mat, {"kind", "beta1", "beta2"}, "mating")
        mating = MatingFunction(MatingKind.MIN_RATE,
                                beta1=_parse_field(mat["beta1"], n, "beta1"),
                                beta2=_parse_field(mat["beta2"], n, "beta2"))
    else:
        raise ConfigError("mating.kind must be 'harmonic_mean' or 'min_rate'")

    k_female = MigrationKernel(base * (s_f * q), KernelRole.FEMALE)
    k_male = MigrationKernel(base * (s_m * (1.0 - q)), KernelRole.MALE)

    psi = mating.psi_field
    if not np.all(np.isfinite(psi)):
        raise FieldError("psi field is not finite")
    u = psi * np.max(k_female.matrix + k_male.matrix, axis=1)
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
    shapes: list            # psi-normalized density per year (lists)
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
    shapes = [list(f0.entries / mass0 if mass0 > 0 else f0.entries)]
    gammas = []
    died_at = 0 if mass0 == 0 else None
    # renormalized storage: cur always carries unit mass, cum the log scale
    cur = f0.entries / mass0 if mass0 > 0 else f0.entries.copy()
    cum = log_mass[0]
    for year in range(1, years + 1):
        if died_at is not None:
            log_mass.append(-math.inf)
            shapes.append([0.0] * space.dim)
            gammas.append(0.0)
            continue
        cur = mp.raw(cur)
        mass = float(model.grid.cell_weights @ cur)
        if mass == 0.0:
            died_at = year
            log_mass.append(-math.inf)
            shapes.append([0.0] * space.dim)
            gammas.append(0.0)
            continue
        cur = cur / mass  # renormalized storage; scale lives in cum
        cum += math.log(mass)
        log_mass.append(cum)
        shapes.append(list(cur))
        gamma = math.exp((cum - log_mass[0]) / year)
        gammas.append(gamma)
        if alpha is not None and alpha > 0 and math.isfinite(alpha):
            bound = alpha * (space.norm(u.entries) / alpha) ** (1.0 / year)
            if gamma > bound * (1.0 + 1e-9):
                raise ModelContractError(
                    f"growth factor {gamma} exceeded the certified chain bound {bound}")
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
