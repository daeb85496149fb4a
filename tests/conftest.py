"""Shared test scenarios: linear matrices and two-sex model configurations,
and the benchmark's modules loaded from their files."""

from __future__ import annotations

import importlib.util
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from conerad import ConeVector, build_model, from_callable, from_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A perfbench module, loaded from its file without importing perfbench."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def single_cell_config(beta: float = 2.0, s_f: float = 0.5, s_m: float = 0.5,
                       q: float = 0.5) -> dict:
    return {
        "grid": {"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": 1},
        "dispersal": {"kind": "local"},
        "survival": {"female": s_f, "male": s_m},
        "sex_ratio": q,
        "mating": {"kind": "harmonic_mean", "beta": beta},
    }


def two_patch_config(beta: float = 2.0) -> dict:
    cfg = single_cell_config(beta=beta)
    cfg["grid"] = {"kind": "interval1d", "a": 0.0, "b": 2.0, "n_cells": 2}
    return cfg


def gaussian_config(n_cells: int = 40, sigma: float = 0.1, beta: float = 2.0,
                    s_f: float = 0.5, s_m: float = 0.5, q: float = 0.5) -> dict:
    return {
        "grid": {"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": n_cells},
        "dispersal": {"kind": "gaussian", "sigma": sigma},
        "survival": {"female": s_f, "male": s_m},
        "sex_ratio": q,
        "mating": {"kind": "harmonic_mean", "beta": beta},
    }


def random_scenario(rng: np.random.Generator) -> dict:
    n = int(rng.integers(15, 35))
    beta = rng.uniform(0.5, 2.5, size=n)
    return {
        "grid": {"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": n},
        "dispersal": {"kind": "gaussian", "sigma": float(rng.uniform(0.05, 0.3))},
        "survival": {"female": float(rng.uniform(0.3, 0.9)),
                     "male": float(rng.uniform(0.3, 0.9))},
        "sex_ratio": float(rng.uniform(0.3, 0.7)),
        "mating": {"kind": "harmonic_mean", "beta": [float(b) for b in beta]},
    }


def scale_beta(cfg: dict, factor: float) -> dict:
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in cfg.items()}
    mat = out["mating"]
    for key in ("beta", "beta1", "beta2"):
        if key in mat:
            val = mat[key]
            mat[key] = [v * factor for v in val] if isinstance(val, list) else val * factor
    return out


def random_cone_vector(rng: np.random.Generator, n: int) -> ConeVector:
    return ConeVector(np.abs(rng.standard_normal(n)))


def random_positive_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.05, 1.0, size=(n, n))


def dense_kernel(kern) -> np.ndarray:
    """A migration kernel as the dense n x n matrix scale * kron(*factors)."""
    return kern.scale * reduce(np.kron, kern.factors)


def trial_draws(rng: np.random.Generator, n: int, trials: int, alpha_high: float,
                width: int):
    """(x, y, alpha) of each trial in the order the validate checks draw them:
    per block of `width` trials, its normals as one (k, 2n) array, one row
    per trial, then its k alphas ~ U(0, alpha_high)."""
    for start in range(0, trials, width):
        k = min(trials - start, width)
        xy = rng.standard_normal((k, 2 * n))
        for row, alpha in zip(xy, rng.uniform(0.0, alpha_high, size=k)):
            yield row[:n], row[n:], float(alpha)


def counting_map(target):
    """A matrix (x -> mat @ x) or a HomogeneousMap behind a callable map,
    plus the list of its evaluations."""
    mp = from_matrix(target) if isinstance(target, np.ndarray) else target
    calls = []

    def fn(x):
        calls.append(x)
        return mp.raw(x)

    return from_callable(mp.space, fn), calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def diag21():
    return from_matrix(np.diag([2.0, 1.0]))


@pytest.fixture
def swap():
    return from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def single_cell_model():
    return build_model(single_cell_config())


@pytest.fixture
def two_patch_model():
    return build_model(two_patch_config())


@pytest.fixture
def gaussian_model():
    return build_model(gaussian_config())
