"""Independent references and the correctness gate for every operation.

References are computed before the timed run.  Linear inputs use
``conerad.oracle.linear_radius_exact``.  Two-sex inputs use an explicit
matrix built here from the model config alone, never through the program's
``as_map``: with both kernels scaled from one Gaussian, the yearly map is
``f -> diag(c) K W f``, and ``diag(sqrt c) K diag(sqrt c) h`` is a symmetric
matrix with the same spectrum (uniform midpoint weights h), so its top
eigenvalue plus the Lanczos residual gives a reference interval.

``check`` then judges one operation from its exit code and ``result.json``.
It returns ``(ok, ref_err, reason)``; ``ref_err`` is the relative error of
the reported value against the reference, or None when there is none.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _field(value, n: int) -> np.ndarray:
    return np.full(n, float(value)) if np.isscalar(value) else np.asarray(value, dtype=float)


def _grid(cfg: dict) -> tuple[np.ndarray, float]:
    g = cfg["grid"]
    if g["kind"] == "interval1d":
        h = (g["b"] - g["a"]) / g["n_cells"]
        centers = (g["a"] + (np.arange(g["n_cells"]) + 0.5) * h)[:, None]
        return centers, h
    (ax, bx), (ay, by) = g["bounds"]
    hx, hy = (bx - ax) / g["nx"], (by - ay) / g["ny"]
    xs = ax + (np.arange(g["nx"]) + 0.5) * hx
    ys = ay + (np.arange(g["ny"]) + 0.5) * hy
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()]), hx * hy


def twosex_factors(cfg: dict) -> tuple[np.ndarray, np.ndarray, float]:
    """(c, K, h) with the yearly map equal to f -> c * (K @ (h * f))."""
    centers, h = _grid(cfg)
    n, dim = centers.shape
    sigma = float(cfg["dispersal"]["sigma"])
    d2 = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    kernel = np.exp(-d2 / (2.0 * sigma * sigma)) / (2.0 * math.pi * sigma * sigma) ** (dim / 2.0)
    q = float(cfg["sex_ratio"])
    c_f = float(cfg["survival"]["female"]) * q
    c_m = float(cfg["survival"]["male"]) * (1.0 - q)
    mat = cfg["mating"]
    if mat["kind"] == "harmonic_mean":
        pair = c_f * c_m / (c_f + c_m) if c_f + c_m > 0 else 0.0
        c = _field(mat["beta"], n) * pair
    else:
        c = np.minimum(_field(mat["beta1"], n) * c_f, _field(mat["beta2"], n) * c_m)
    return c, kernel, h


def _twosex_radius(cfg: dict) -> dict:
    from scipy.sparse.linalg import eigsh

    c, kernel, h = twosex_factors(cfg)
    root = np.sqrt(c)
    sym = root[:, None] * kernel * root[None, :] * h
    vals, vecs = eigsh(sym, k=1, which="LA", tol=1e-14, v0=np.ones(len(c)))
    theta, x = float(vals[0]), vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    resid = float(np.linalg.norm(sym @ x - theta * x))
    return {"radius": theta, "accuracy": resid + 1e-12 * max(1.0, theta)}


def _simulate_log_mass(cfg: dict, years: int) -> list[float]:
    c, kernel, h = twosex_factors(cfg)
    x = np.ones(len(c))
    mass = h * x.sum()
    cum = math.log(mass)
    x = x / mass
    out = [cum]
    for _ in range(years):
        x = c * (kernel @ (h * x))
        mass = h * x.sum()
        cum += math.log(mass)
        x = x / mass
        out.append(cum)
    return out


def reference(op: dict) -> dict:
    """Reference values for one operation, computed outside any timed region."""
    inp = op["input"]
    if "matrix" in inp:
        from conerad.oracle import linear_radius_exact

        rep = linear_radius_exact(np.asarray(inp["matrix"], dtype=float))
        return {"radius": float(rep.value), "accuracy": float(rep.accuracy)}
    if op["command"] == "twosex-simulate":
        return {"log_mass": _simulate_log_mass(inp, int(op["extra"]["years"]))}
    return _twosex_radius(inp)


def _check_eigen(res: dict, matrix: np.ndarray, ref: dict):
    v = np.asarray(res["vector"], dtype=float)
    bv = matrix @ v
    lam = float(np.abs(bv).sum())
    resid = float(np.abs(bv - lam * v).sum())
    if _rel(lam, res["lambda"]) > 1e-9:
        return False, None, f"lambda {res['lambda']} != recomputed {lam}"
    if abs(resid - res["residual"]) > 1e-9 * max(1.0, lam):
        return False, None, f"residual {res['residual']} != recomputed {resid}"
    return True, _rel(res["lambda"], ref["radius"]), ""


def _contains(lo: float, hi: float, ref: dict) -> bool:
    return lo - ref["accuracy"] <= ref["radius"] <= hi + ref["accuracy"]


def check(op: dict, ref: dict, code, result_path) -> tuple[bool, float | None, str]:
    """Judge one finished operation; a missing result.json is a failure."""
    if code != 0:
        return False, None, f"exit code {code}"
    if not result_path.is_file():
        return False, None, "no result.json"
    res = json.loads(result_path.read_text())
    cmd = op["command"]
    if cmd == "radius":
        if not _contains(res["cw_lower"], res["cw_upper"], ref):
            return False, None, f"bracket misses reference radius {ref['radius']}"
        return True, _rel(res["value"], ref["radius"]), ""
    if cmd == "eigen":
        return _check_eigen(res, np.asarray(op["input"]["matrix"], dtype=float), ref)
    if cmd == "validate":
        ok = res["map_properties"]["ok"] and res["cone_functionals"]["violations"] == 0
        return ok, None, "" if ok else "property violations reported"
    if cmd == "twosex-assess":
        rad = res["radius"]
        r, acc = ref["radius"], ref["accuracy"]
        want = "persistence" if r - acc > 1.0 else "extinction" if r + acc < 1.0 else None
        if want is not None and res["verdict"] != want:
            return False, None, f"verdict {res['verdict']} but reference radius is {r}"
        if not _contains(rad["cw_lower"], rad["cw_upper"], ref):
            return False, None, f"bracket misses reference radius {r}"
        return True, _rel(rad["value"], r), ""
    if cmd == "twosex-simulate":
        got, want = res["log_mass"], ref["log_mass"]
        if len(got) != len(want):
            return False, None, f"{len(got)} log masses, expected {len(want)}"
        err = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want))
        return err <= 1e-9, err, "" if err <= 1e-9 else f"log_mass off by {err:.3g}"
    if cmd == "functional":
        if not res["lambda_used"] > ref["radius"] + ref["accuracy"]:
            return False, None, f"lambda_used {res['lambda_used']} not above radius {ref['radius']}"
        if not res["normalizer"] > 0:
            return False, None, "normalizer is not positive"
        return True, _rel(res["radius_used"], ref["radius"]), ""
    raise ValueError(f"no check for command {cmd!r}")
