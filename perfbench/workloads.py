"""Seeded input generation for the four benchmark workloads.

Every workload is a fixed batch of CLI operations built from one seed.  An
operation is ``{"command", "input", "extra", "class"}``: the problem input
(a matrix or a two-sex model config, exactly as a user would write it), any
extra run-config keys, and a label for reports.  The batch cost must be
comparable across seeds, so every seed gets the same mix of sizes: drawn
by stratified sampling in linear-mix, fixed in the other workloads.

Nothing here imports the program: the inputs are plain JSON-ready data.
"""

from __future__ import annotations

import numpy as np

# Seed used for the untimed warm-up operations.  It is fixed, so set-up time
# does not depend on the workload seed.
WARMUP_SEED = 7


def _slices(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """One draw inside each of `count` equal slices of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _strata(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[int]:
    """One integer draw inside each of `count` equal slices of [lo, hi]."""
    return [int(round(v)) for v in _slices(rng, lo, hi, count)]


def _perron_root(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(m)).max())


def _matrix_input(m: np.ndarray) -> dict:
    return {"matrix": [[float(v) for v in row] for row in m], "norm": "l1"}


def _positive(rng, n):
    return rng.uniform(0.05, 1.0, size=(n, n))


def _sparse(rng, n):
    # about three nonzeros per row and none empty: usually reducible
    m = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 3.0 / n)
    m[np.arange(n), rng.integers(0, n, size=n)] += rng.uniform(0.1, 1.0, size=n)
    return m


def _block_triangular(rng, n, gap):
    # two irreducible diagonal blocks with a sparse coupling block above them;
    # the lower block's radius is `gap` times the upper one's
    h = n // 2
    m = np.zeros((n, n))
    m[:h, :h] = rng.uniform(0.05, 1.0, size=(h, h))
    low = rng.uniform(0.05, 1.0, size=(n - h, n - h))
    m[h:, h:] = low * (gap * _perron_root(m[:h, :h]) / _perron_root(low))
    m[:h, h:] = rng.uniform(0.0, 1.0, size=(h, n - h)) * (rng.random((h, n - h)) < 0.2)
    return m


def _upper_triangular(rng, n, gap):
    # the spectrum is the diagonal: its two largest entries are top and gap * top
    m = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.1))
    top = rng.uniform(0.5, 1.0)
    diag = rng.uniform(0.0, gap * top, size=n) * (rng.random(n) < 0.1)
    i, j = rng.choice(n, size=2, replace=False)
    diag[i], diag[j] = top, gap * top
    m[np.diag_indices(n)] = diag
    return m


def _block_cyclic(rng, n, period):
    # period-p block-cyclic: every block row maps only into the next block
    b = max(1, n // period)
    n = b * period
    m = np.zeros((n, n))
    for i in range(period):
        j = (i + 1) % period
        m[i * b:(i + 1) * b, j * b:(j + 1) * b] = rng.uniform(0.05, 1.0, size=(b, b))
    return m


# Commands each linear-mix class runs in the timed batch (every fourth matrix
# of each class also runs ``validate``).  The two pairs left out are known
# defects, so they run only as untimed probes (``known_defects``): block-cyclic
# ``eigen`` exits 2 with InnerIterationError, and sparse upper-triangular
# ``radius`` almost never closes its bracket before the iteration cap.
LINEAR_COMMANDS = {"block_cyclic": ("radius",), "upper_triangular": ("eigen",)}
DEFECT_COMMANDS = {"block_cyclic": "eigen", "upper_triangular": "radius"}
# Iteration cap of the probes.  A probe that still fails uses the whole cap,
# and at the CLI default of 10000 the probes alone would outlast a batch.
DEFECT_MAX_ITER = 2000


def _linear_matrices(seed: int) -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng([seed, 1])
    mats = []
    for n in _strata(rng, 8, 120, 24):
        mats.append(("positive", _positive(rng, n)))
    for n in _strata(rng, 8, 120, 16):
        mats.append(("sparse", _sparse(rng, n)))
    # The iteration counts of the reducible classes grow like 1 / (1 - gap),
    # with gap the ratio of the two largest eigenvalue moduli.  The gaps are
    # stratified too, and paired with the sizes at random.
    for n, gap in zip(_strata(rng, 8, 120, 24), rng.permutation(_slices(rng, 0.3, 0.9, 24))):
        mats.append(("block_triangular", _block_triangular(rng, n, gap)))
    for n, gap in zip(_strata(rng, 50, 70, 4), rng.permutation(_slices(rng, 0.5, 0.9, 4))):
        mats.append(("upper_triangular", _upper_triangular(rng, n, gap)))
    for i, n in enumerate(_strata(rng, 12, 120, 12)):
        mats.append(("block_cyclic", _block_cyclic(rng, n, period=2 + i % 3)))
    return [mats[idx] for idx in rng.permutation(len(mats))]


def linear_mix(seed: int) -> list[dict]:
    """Matrices of the three documented classes through radius/eigen/validate."""
    ops = []
    seen: dict[str, int] = {}
    for cls, m in _linear_matrices(seed):
        inp = _matrix_input(m)
        commands = LINEAR_COMMANDS.get(cls, ("radius", "eigen"))
        seen[cls] = seen.get(cls, 0) + 1
        if seen[cls] % 4 == 0:
            commands += ("validate",)
        ops.extend({"command": cmd, "input": inp, "extra": {}, "class": cls} for cmd in commands)
    return ops


def known_defects(workload: str, seed: int) -> list[dict]:
    """Probes of the known defects, on the batch's own matrices."""
    if workload != "linear-mix":
        return []
    return [{"command": DEFECT_COMMANDS[cls], "input": _matrix_input(m),
             "extra": {"max_iter": DEFECT_MAX_ITER}, "class": cls}
            for cls, m in _linear_matrices(seed) if cls in DEFECT_COMMANDS]


def _twosex_config(rng, grid: dict, target_radius: float, sigma: float) -> dict:
    s_f, s_m = (float(v) for v in rng.uniform(0.4, 0.8, size=2))
    q = float(rng.uniform(0.4, 0.6))
    c_f, c_m = s_f * q, s_m * (1.0 - q)
    # Both kernels scale one Gaussian of mass just under 1, so the radius is
    # close to the birth rate times the per-pair factor below; beta is set
    # from a target radius drawn on both sides of the threshold 1.
    if rng.random() < 0.75:
        beta = target_radius * (c_f + c_m) / (c_f * c_m) / 0.93
        mating = {"kind": "harmonic_mean", "beta": float(beta)}
    else:
        ratio = float(rng.uniform(0.8, 1.25))
        beta1 = target_radius / c_f / 0.93
        mating = {"kind": "min_rate", "beta1": float(beta1),
                  "beta2": float(beta1 * ratio * c_f / c_m)}
    return {"grid": grid, "dispersal": {"kind": "gaussian", "sigma": float(sigma)},
            "survival": {"female": s_f, "male": s_m}, "sex_ratio": q, "mating": mating}


def _grid_1d(n: int) -> dict:
    return {"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": n}


def _grid_2d(nx: int) -> dict:
    return {"kind": "rectangle2d", "bounds": [[0.0, 1.0], [0.0, 1.0]], "nx": nx, "ny": nx}


# The two-sex workloads use a fixed set of grid sizes, each with a fixed
# dispersal width; the seed draws every other parameter.  A batch is a few
# dense operations, so jittered sizes would move its time, and jittered
# widths (which set the spectral gap, hence the iteration counts) its map
# columns and per-operation median, more than the program does.  The
# operations run in this fixed order, and the largest grid, 40x40, comes
# last and sets the peak memory.
ASSESS_GRIDS = [_grid_1d(n) for n in (400, 700, 1000, 1300)] + [_grid_2d(30), _grid_2d(40)]
SIMULATE_GRIDS = [_grid_1d(n) for n in (400, 700, 1000)] + [_grid_2d(40)]
SIMULATE_YEARS = 200


def twosex_assess(seed: int) -> list[dict]:
    """Dense two-sex models across the persistence threshold."""
    rng = np.random.default_rng([seed, 2])
    k = len(ASSESS_GRIDS)
    targets = rng.permutation(np.linspace(0.7, 1.3, k) + rng.uniform(-0.05, 0.05, k))
    sigmas = np.linspace(0.08, 0.12, k)
    return [{"command": "twosex-assess", "input": _twosex_config(rng, g, t, s),
             "extra": {}, "class": g["kind"]} for g, t, s in zip(ASSESS_GRIDS, targets, sigmas)]


def functional_series(seed: int) -> list[dict]:
    """Eigenfunctionals of small linear and two-sex maps (resolvent-bound)."""
    rng = np.random.default_rng([seed, 3])
    ops = [{"command": "functional", "input": _matrix_input(_positive(rng, n)),
            "extra": {}, "class": "positive"} for n in (20, 45, 70)]
    ops.append({"command": "functional", "class": "interval1d", "extra": {},
                "input": _twosex_config(rng, _grid_1d(25), rng.uniform(0.7, 1.3), 0.1)})
    return ops


def twosex_simulate(seed: int) -> list[dict]:
    """Forward orbits of two-sex models with every yearly density emitted."""
    rng = np.random.default_rng([seed, 4])
    return [{"command": "twosex-simulate", "class": g["kind"],
             "input": _twosex_config(rng, g, rng.uniform(0.8, 1.2), 0.1),
             "extra": {"years": SIMULATE_YEARS, "emit_densities": True}}
            for g in SIMULATE_GRIDS]


def warmup(workload: str) -> list[dict]:
    """Small untimed operations that load every code path the batch uses."""
    rng = np.random.default_rng(WARMUP_SEED)
    if workload == "linear-mix":
        m = _positive(rng, 40)
        return [{"command": c, "input": _matrix_input(m), "extra": {}, "class": "positive"}
                for c in ("radius", "eigen", "validate")]
    if workload == "twosex-assess":
        return [{"command": "twosex-assess", "input": _twosex_config(rng, _grid_1d(800), 1.1, 0.1),
                 "extra": {}, "class": "interval1d"}]
    if workload == "functional-series":
        return [{"command": "functional", "input": _matrix_input(_positive(rng, 6)),
                 "extra": {}, "class": "positive"}]
    if workload == "twosex-simulate":
        return [{"command": "twosex-simulate", "input": _twosex_config(rng, _grid_1d(800), 1.0, 0.1),
                 "extra": {"years": 50, "emit_densities": True}, "class": "interval1d"}]
    raise ValueError(f"unknown workload {workload!r}")


GENERATORS = {
    "linear-mix": linear_mix,
    "twosex-assess": twosex_assess,
    "functional-series": functional_series,
    "twosex-simulate": twosex_simulate,
}
WORKLOADS = tuple(GENERATORS)
