"""Independent brute-force validators for the spectral routines.

Nothing here shares code with the estimators it checks: linear radii come
from determinant-sign bisection (small matrices) or a long, per-component
power iteration (larger ones), and nonlinear brackets from exhaustive
ratio-bound searches over a simplex lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .homog_map import HomogeneousMap

_CHARPOLY_MAX_DIM = 4
_POWER_STEPS = 100000


@dataclass
class OracleReport:
    value: float
    method: str                 # "charpoly" | "long_power_iteration" | "grid_search"
    certificate: dict = field(default_factory=dict)
    accuracy: float = 0.0       # half-width of the certified uncertainty


def _is_above_radius(matrix: np.ndarray, lam: float) -> bool:
    # lam exceeds the Perron root iff lam*I - A is a nonsingular M-matrix,
    # i.e. all leading principal minors are positive (Fiedler-Ptak test).
    n = matrix.shape[0]
    shifted = lam * np.eye(n) - matrix
    for k in range(1, n + 1):
        if np.linalg.det(shifted[:k, :k]) <= 0.0:
            return False
    return True


def _charpoly_radius(matrix: np.ndarray) -> OracleReport:
    if not matrix.any():
        return OracleReport(0.0, "charpoly", {"zero_matrix": True})
    hi = float(max(matrix.sum(axis=1).max(), 1e-300)) * (1.0 + 1e-12) + 1e-300
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _is_above_radius(matrix, mid):
            hi = mid
        else:
            lo = mid
    value = 0.5 * (lo + hi)
    return OracleReport(value, "charpoly",
                        {"interval": [lo, hi]},
                        accuracy=0.5 * (hi - lo) + 1e-12 * max(1.0, value))


def _component_power_radius(block: np.ndarray) -> tuple[float, int]:
    """Perron root of an irreducible block via a shifted power iteration.

    Adding c*I makes the block primitive without moving the eigenvector;
    the dominant ratio then converges and the shift is subtracted off.
    """
    n = block.shape[0]
    shift = float(block.max())
    m = block + shift * np.eye(n)
    y = np.ones(n)
    ratio = prev = 0.0
    steps = 0
    for k in range(_POWER_STEPS):
        z = m @ y
        total = z.sum()
        ratio = total / y.sum()
        y = z / total
        steps = k + 1
        if k > 20 and abs(ratio - prev) <= 1e-15 * ratio:
            break
        prev = ratio
    return ratio - shift, steps


def _long_power_radius(matrix: np.ndarray) -> OracleReport:
    # Imported here: scipy.sparse costs every CLI process about 0.1 s at start,
    # and only this oracle path uses it.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    ncomp, labels = connected_components(csr_matrix(matrix != 0), connection="strong")
    best = 0.0
    sizes = []
    steps_total = 0
    for comp in range(ncomp):
        idx = np.where(labels == comp)[0]
        sizes.append(len(idx))
        if len(idx) == 1:
            best = max(best, float(matrix[idx[0], idx[0]]))
            continue
        val, steps = _component_power_radius(matrix[np.ix_(idx, idx)])
        steps_total += steps
        best = max(best, val)
    return OracleReport(best, "long_power_iteration",
                        {"component_sizes": sorted(sizes, reverse=True),
                         "irreducible": ncomp == 1,
                         "power_steps": steps_total},
                        accuracy=1e-8 * max(1.0, best))


def linear_radius_exact(matrix) -> OracleReport:
    """Spectral radius of a nonnegative matrix, with a certified accuracy.

    Dimension <= 4 uses determinant-sign bisection on [0, max row sum];
    larger matrices are split into strongly connected components, each
    resolved by a long shifted power iteration.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {m.shape}")
    if np.any(m < 0) or not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite and nonnegative")
    if m.shape[0] <= _CHARPOLY_MAX_DIM:
        return _charpoly_radius(m)
    return _long_power_radius(m)


def _simplex_lattice(dim: int, resolution: int) -> np.ndarray:
    """All nonnegative rational points with coordinates summing to one, as
    the columns of a (dim, points) block."""
    r = resolution
    if dim == 1:
        rows = [(r,)]
    elif dim == 2:
        rows = [(i, r - i) for i in range(r + 1)]
    else:
        rows = [(i, j, r - i - j) for i in range(r + 1) for j in range(r + 1 - i)]
    return np.array(rows, dtype=float).T / r


def brute_force_bracket(mp: HomogeneousMap, grid_points_per_axis: int = 50,
                        max_power: int = 6) -> OracleReport:
    """Exhaustive ratio-bound search over a simplex lattice (dimension <= 3).

    Lower bounds use every lattice point, upper bounds only the strictly
    positive ones; both scan powers 1..max_power, so the returned interval
    contains the cone spectral radius of any order-preserving homogeneous map.
    Each power is evaluated on the whole lattice as one block; a witness is
    the first (point, m), points outer and powers inner, that reaches the
    best bound.
    """
    dim = mp.space.dim
    if dim > 3:
        raise DimensionError("brute-force search is limited to dimension <= 3")
    margin = (dim + 8) * np.finfo(float).eps  # covers ratio-evaluation rounding
    points = _simplex_lattice(dim, grid_points_per_axis)
    sup = points > 0
    interior = sup.all(axis=0).tolist()
    safe = np.where(sup, points, 1.0)
    # lower[p, m-1], upper[p, m-1]: the m-step bounds at point p, or -inf/+inf
    lower = np.full((points.shape[1], max_power), -math.inf)
    upper = np.full((points.shape[1], max_power), math.inf)
    cur = points
    for m in range(1, max_power + 1):
        cur = mp.raw(cur)
        ratio = cur / safe
        low = np.where(sup, ratio, math.inf).min(axis=0).tolist()
        positive = np.where(sup, cur > 0, True).all(axis=0).tolist()
        high = ratio.max(axis=0).tolist()
        e = 1.0 / m
        lower[:, m - 1] = [lo ** e if ok else -math.inf for lo, ok in zip(low, positive)]
        upper[:, m - 1] = [hi ** e if ok else math.inf for hi, ok in zip(high, interior)]
    lower_witness = upper_witness = None
    k = int(np.argmax(lower))
    best_lower = max(0.0, float(lower.flat[k]))
    if best_lower > 0.0:
        lower_witness = (list(points[:, k // max_power]), k % max_power + 1)
    k = int(np.argmin(upper))
    best_upper = float(upper.flat[k])
    if math.isfinite(best_upper):
        upper_witness = (list(points[:, k // max_power]), k % max_power + 1)
    best_lower = max(0.0, best_lower * (1.0 - margin))
    if math.isfinite(best_upper):
        best_upper *= 1.0 + margin
    return OracleReport(
        0.5 * (best_lower + best_upper) if math.isfinite(best_upper) else best_lower,
        "grid_search",
        {"bracket": [best_lower, best_upper],
         "lower_witness": lower_witness,
         "upper_witness": upper_witness,
         "grid_points_per_axis": grid_points_per_axis},
        accuracy=0.5 * (best_upper - best_lower) if math.isfinite(best_upper) else math.inf,
    )
