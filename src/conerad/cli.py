"""Command-line front end: JSON configs in, JSON/CSV artifacts out.

Every run reads one config file naming a command and a problem input,
executes it with the recorded seed, and writes result.json plus optional
CSV traces and a manifest listing every emitted file.  Identical config and
seed produce byte-identical JSON.

Exit codes: 0 success, 1 validation/config error, 2 numerical
non-convergence (partial outputs are still written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cone import ConeSpace, ConeVector, diamond_norm, psi_hull
from .errors import ConeRadError, ConfigError, InnerIterationError
from .eigenproblem import estimate_eigenfunctional, solve_eigenvector_perturbation
from .homog_map import HomogeneousMap, from_matrix, verify_properties
from .spectral import SpectralEstimate, radius_bracket
from .twosex import TwoSexModel, assess_persistence, build_model, simulate

_COMMANDS = ("radius", "eigen", "functional", "twosex-assess", "twosex-simulate", "validate")
_BASE_KEYS = {"command", "input", "output_dir", "tolerances", "max_iter", "seed"}
_EXTRA_KEYS = {
    "twosex-simulate": {"years", "f0", "emit_densities"},
    "twosex-assess": {"f0"},
}
_DEFAULT_TOLERANCES = {"tol": 1e-8, "inner_tol": 1e-13, "trunc_tol": 1e-10}


@dataclass
class RunConfig:
    command: str
    input_path: Path
    output_dir: Path
    tolerances: dict = field(default_factory=dict)
    max_iter: int = 10000
    seed: int = 0
    years: int = 20
    f0: object = None
    emit_densities: bool = False
    config_path: Path | None = None


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    command = raw.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got {command!r}")
    allowed = _BASE_KEYS | _EXTRA_KEYS.get(command, set())
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    if "input" not in raw:
        raise ConfigError("config is missing required key 'input'")

    tolerances = dict(_DEFAULT_TOLERANCES)
    for name, val in (raw.get("tolerances") or {}).items():
        if name not in _DEFAULT_TOLERANCES:
            raise ConfigError(f"unknown tolerance '{name}'")
        val = float(val)
        if val <= 0:
            raise ConfigError(f"tolerance '{name}' must be positive, got {val}")
        tolerances[name] = val

    max_iter = int(raw.get("max_iter", 10000))
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    years = int(raw.get("years", 20))
    if years < 1:
        raise ConfigError("years must be >= 1")

    input_path = Path(raw["input"])
    if not input_path.is_absolute():
        input_path = path.parent / input_path
    return RunConfig(
        command=command,
        input_path=input_path,
        output_dir=Path(raw.get("output_dir", "out")),
        tolerances=tolerances,
        max_iter=max_iter,
        seed=int(raw.get("seed", 0)),
        years=years,
        f0=raw.get("f0"),
        emit_densities=bool(raw.get("emit_densities", False)),
        config_path=path,
    )


@contextmanager
def _input_field(name: str):
    """Report a bad value of one input field as a config error naming it."""
    try:
        yield
    except (ConeRadError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"input field '{name}' is invalid: {exc}") from exc


def _load_input(path: Path):
    """Returns ("linear", map, u) or ("twosex", model, u)."""
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"input is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("input must be a JSON object")

    if "matrix" in raw:
        unknown = set(raw) - {"matrix", "norm", "u"}
        if unknown:
            raise ConfigError(f"unknown input key(s): {sorted(unknown)}")
        with _input_field("matrix"):
            matrix = np.asarray(raw["matrix"], dtype=float)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("matrix must be square")
        n = matrix.shape[0]
        norm = raw.get("norm", "l1")
        with _input_field("norm"):
            if isinstance(norm, dict) and set(norm) != {"weighted"}:
                raise ValueError('a weighted norm is {"weighted": [...]}')
            space = ConeSpace.from_json({"dim": n, "norm": norm})
        with _input_field("matrix"):
            mp = from_matrix(matrix, space=space)
        with _input_field("u"):
            u = ConeVector(np.asarray(raw.get("u", np.ones(n)), dtype=float))
            if u.dim != n:
                raise ValueError(f"u has {u.dim} entries, the matrix has {n} rows")
        return "linear", mp, u
    if "grid" in raw:
        model = build_model(raw)
        return "twosex", model, model.order_bound
    raise ConfigError("input must contain either 'matrix' or a two-sex model config")


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Emitter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_json(self, name: str, obj) -> None:
        (self.out_dir / name).write_bytes(_json_bytes(obj))
        self.files.append(name)

    def write_csv(self, name: str, header: list, rows) -> None:
        with open(self.out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        self.files.append(name)


def _radius_trace_rows(est: SpectralEstimate):
    bounds = est.bound_trace or []
    for i, s in enumerate(est.log_norm_trace):
        lo, hi = bounds[i] if i < len(bounds) else (est.cw_lower, est.cw_upper)
        yield [i + 1, repr(s), repr(lo), repr(hi)]


def _wrap_map(kind: str, problem) -> HomogeneousMap:
    return problem.as_map() if kind == "twosex" else problem


def _run_radius(cfg: RunConfig, kind: str, problem, u, emit: _Emitter) -> int:
    mp = _wrap_map(kind, problem)
    est = radius_bracket(mp, u, tol=cfg.tolerances["tol"], max_iter=cfg.max_iter)
    payload = est.to_json()
    payload["seed"] = cfg.seed
    emit.write_json("result.json", payload)
    emit.write_csv("trace.csv", ["iter", "log_norm", "cw_lower", "cw_upper"],
                   _radius_trace_rows(est))
    return 0 if est.converged else 2


def _write_eigen_trace(emit: _Emitter, trace, residual: str) -> None:
    rows = [[i, repr(eps), repr(lam), ""] for i, (eps, lam) in enumerate(trace)]
    if rows:
        rows[-1][3] = residual  # residual is measured at the final stage
    emit.write_csv("trace.csv", ["step", "eps_or_k", "lambda", "residual"], rows)


def _run_eigen(cfg: RunConfig, kind: str, problem, u, emit: _Emitter) -> int:
    mp = _wrap_map(kind, problem)
    try:
        res = solve_eigenvector_perturbation(mp, u, inner_tol=cfg.tolerances["inner_tol"],
                                             max_inner=cfg.max_iter)
    except InnerIterationError as exc:
        # partial outputs: the stages completed before the inner iteration stalled
        emit.write_json("result.json", {
            "error": str(exc),
            "trace": [[float(a), float(b)] for a, b in exc.trace],
            "seed": cfg.seed,
        })
        _write_eigen_trace(emit, exc.trace, "")
        return 2
    payload = res.to_json()
    payload["seed"] = cfg.seed
    emit.write_json("result.json", payload)
    _write_eigen_trace(emit, res.trace, repr(res.residual))
    return 0


def _run_functional(cfg: RunConfig, kind: str, problem, u, emit: _Emitter) -> int:
    mp = _wrap_map(kind, problem)
    xstar = ConeVector(np.ones(mp.space.dim))
    est = estimate_eigenfunctional(mp, u, xstar, trunc_tol=cfg.tolerances["trunc_tol"],
                                   seed=cfg.seed)
    payload = est.to_json()
    payload["seed"] = cfg.seed
    emit.write_json("result.json", payload)
    return 0


def _run_assess(cfg: RunConfig, kind: str, problem, u, emit: _Emitter) -> int:
    if kind != "twosex":
        raise ConfigError("twosex-assess requires a two-sex model input")
    probes = None
    if cfg.f0 is not None:
        probes = [ConeVector(np.asarray(v, dtype=float)) for v in cfg.f0]
    report = assess_persistence(problem, tol=cfg.tolerances["tol"],
                                f0_probes=probes, max_iter=cfg.max_iter)
    payload = report.to_json()
    payload["seed"] = cfg.seed
    emit.write_json("result.json", payload)
    return 0 if report.radius.converged else 2


def _run_simulate(cfg: RunConfig, kind: str, problem, u, emit: _Emitter) -> int:
    if kind != "twosex":
        raise ConfigError("twosex-simulate requires a two-sex model input")
    model: TwoSexModel = problem
    n = model.grid.n_cells
    if cfg.f0 is None or cfg.f0 == "uniform":
        f0 = ConeVector(np.ones(n))
    elif cfg.f0 == "order_bound":
        f0 = model.order_bound
    else:
        f0 = ConeVector(np.asarray(cfg.f0, dtype=float))
    traj = simulate(model, f0, years=cfg.years)
    payload = traj.to_json()
    payload["seed"] = cfg.seed
    emit.write_json("result.json", payload)
    header = ["year", "log_total_mass", "gamma_estimate"]
    if cfg.emit_densities:
        header += [f"cell_{i}" for i in range(n)]
    rows = []
    for year, (logm, gamma) in enumerate(zip(traj.log_mass, [""] + traj.gamma_estimates)):
        densities = traj.shapes[year].tolist() if cfg.emit_densities else []
        rows.append([year, logm, gamma] + densities)
    emit.write_csv("trajectory.csv", header, rows)
    return 0


def _run_validate(cfg: RunConfig, kind: str, problem, u, emit: _Emitter) -> int:
    mp = _wrap_map(kind, problem)
    rng = np.random.default_rng(cfg.seed)
    report = verify_properties(mp, trials=200, tol=1e-9, seed=cfg.seed)
    space = mp.space
    cone_violations = 0
    worst = 0.0
    for _ in range(500):
        x = rng.standard_normal(space.dim)
        y = rng.standard_normal(space.dim)
        alpha = float(rng.uniform(0, 10))
        px, py, nx = psi_hull(space, x), psi_hull(space, y), space.norm(x)
        checks = (
            abs(psi_hull(space, alpha * x) - alpha * px),
            max(0.0, abs(px - py) - space.norm(x - y)),
            max(0.0, psi_hull(space, x + y) - px - py),
            max(0.0, diamond_norm(space, x) - nx),
        )
        scale = max(1.0, nx + space.norm(y))
        defect = max(checks) / scale
        worst = max(worst, defect)
        if defect > 1e-12:
            cone_violations += 1
    payload = {
        "map_properties": report.to_json(),
        "cone_functionals": {"trials": 500, "violations": cone_violations,
                             "max_defect": worst},
        "seed": cfg.seed,
    }
    emit.write_json("result.json", payload)
    return 0 if report.ok and cone_violations == 0 else 1


_RUNNERS = {
    "radius": _run_radius,
    "eigen": _run_eigen,
    "functional": _run_functional,
    "twosex-assess": _run_assess,
    "twosex-simulate": _run_simulate,
    "validate": _run_validate,
}


def run(cfg: RunConfig) -> int:
    try:
        kind, problem, u = _load_input(cfg.input_path)
    except ConfigError:
        raise
    except ConeRadError as exc:
        # Problems found while validating the input are configuration
        # failures, not numerical ones; keep the original error name visible.
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    emit = _Emitter(cfg.output_dir)
    code = 0
    try:
        code = _RUNNERS[cfg.command](cfg, kind, problem, u, emit)
    finally:
        manifest = {
            "command": cfg.command,
            "seed": cfg.seed,
            "config_sha256": _sha256(cfg.config_path) if cfg.config_path else None,
            "input_sha256": _sha256(cfg.input_path),
            "versions": {
                "conerad": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "files": sorted(set(emit.files)) + ["manifest.json"],
        }
        emit.write_json("manifest.json", manifest)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conerad",
        description="cone spectral radius and positive eigenproblem toolkit")
    parser.add_argument("--config", required=True, help="path to a run config JSON")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.output_dir = Path(args.out)
        if args.seed is not None:
            cfg.seed = args.seed
        code = run(cfg)
    except ConfigError as exc:
        print(f"conerad: config error: {exc}", file=sys.stderr)
        return 1
    except ConeRadError as exc:
        print(f"conerad: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"conerad: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"conerad: {cfg.command} finished with exit code {code}; "
              f"outputs in {cfg.output_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
