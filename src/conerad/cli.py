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
import hashlib
import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import orjson
import scipy

from . import __version__
from .cone import ConeSpace, ConeVector, NormKind, diamond_norm, psi_hull
from .errors import ConeRadError, ConfigError, _field, _integer, _reals, _require_keys
from .eigenproblem import _certify, estimate_eigenfunctional, solve_eigenvector_perturbation
from .homog_map import HomogeneousMap, _trial_blocks, from_matrix, verify_properties
from .spectral import SpectralEstimate
from .twosex import TwoSexModel, assess_persistence, build_model, simulate

_COMMANDS = ("radius", "eigen", "functional", "twosex-assess", "twosex-simulate", "validate")
_OPTIONAL_KEYS = {"output_dir", "tolerances", "max_iter", "seed"}
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
    f0: object = None           # as in the config; run() parses it for the command
    emit_densities: bool = False
    config_sha256: str | None = None


def _density(value, n: int) -> ConeVector:
    """An initial density from the run config; raises TypeError or ValueError
    unless it is a nonnegative vector of numbers, one entry per grid cell."""
    f = ConeVector(_reals(value))
    if f.dim != n:
        raise ValueError(f"a density has {f.dim} entries, the grid has {n} cells")
    return f


def _initial_densities(cfg: RunConfig, model: TwoSexModel):
    """The config's f0 parsed for a two-sex command: a list of densities, or
    None, for twosex-assess; one density for twosex-simulate."""
    n = model.grid.n_cells
    if cfg.command == "twosex-assess":
        if cfg.f0 is None:
            return None
        with _field("f0", "config"):
            if not isinstance(cfg.f0, list):
                raise ValueError("twosex-assess takes a list of initial densities")
            return [_density(v, n) for v in cfg.f0]
    if cfg.f0 is None or cfg.f0 == "uniform":
        return ConeVector(np.ones(n))
    if cfg.f0 == "order_bound":
        return model.order_bound
    with _field("f0", "config"):
        return _density(cfg.f0, n)


def _loads_input(data: bytes):
    """An input file's JSON value: orjson's parse, which reads every float as
    json.loads does, bit for bit, and an integer literal outside
    [-2**63, 2**64) as a float.  A document orjson rejects goes to json.loads:
    NaN, Infinity, a literal beyond the double range and a leading BOM then
    reach the field checks, which name the field, and text that is not
    JSON or not UTF-8 raises there."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        return json.loads(data)


def _read_json(path: Path, what: str, loads=json.loads) -> tuple[object, str]:
    """The JSON value in a file and the SHA-256 of the bytes it was read from."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    try:
        obj = loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}")
    return obj, hashlib.sha256(data).hexdigest()


def _check_seed(seed: int, name: str) -> None:
    # numpy's generators take nonnegative seeds only
    if seed < 0:
        raise ConfigError(f"{name} must be a nonnegative integer, got {seed}")


def parse_config(path) -> RunConfig:
    path = Path(path)
    raw, sha256 = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    command = raw.get("command")
    with _field("command", "config"):
        if command not in _COMMANDS:
            raise ValueError(f"must be one of {_COMMANDS}, got {command!r}")
    _require_keys(raw, ("command", "input"), "config",
                  optional=_OPTIONAL_KEYS | _EXTRA_KEYS.get(command, set()))

    tolerances = dict(_DEFAULT_TOLERANCES)
    given = raw.get("tolerances", {})
    _require_keys(given, (), "config field 'tolerances'", optional=_DEFAULT_TOLERANCES)
    for name, val in given.items():
        with _field(f"tolerances.{name}", "config"):
            tolerances[name] = float(_reals(val, 0))
            if not 0.0 < tolerances[name] < np.inf:
                raise ValueError(f"must be finite and positive, got {tolerances[name]!r}")

    with _field("max_iter", "config"):
        max_iter = _integer(raw.get("max_iter", 10000))
        if max_iter < 1:
            raise ValueError("must be >= 1")
    with _field("years", "config"):
        years = _integer(raw.get("years", 20))
        if years < 1:
            raise ValueError("must be >= 1")
    with _field("seed", "config"):
        seed = _integer(raw.get("seed", 0))
    _check_seed(seed, "config field 'seed'")

    with _field("input", "config"):
        input_path = Path(raw["input"])
    if not input_path.is_absolute():
        input_path = path.parent / input_path
    with _field("output_dir", "config"):
        output_dir = Path(raw.get("output_dir", "out"))
    emit_densities = raw.get("emit_densities", False)
    if not isinstance(emit_densities, bool):
        raise ConfigError("config field 'emit_densities' must be true or false")
    return RunConfig(
        command=command,
        input_path=input_path,
        output_dir=output_dir,
        tolerances=tolerances,
        max_iter=max_iter,
        seed=seed,
        years=years,
        f0=raw.get("f0"),
        emit_densities=emit_densities,
        config_sha256=sha256,
    )


def _load_input(raw):
    """The problem in a parsed input file as (map, u, model): the matrix map
    and its u with model None, or a two-sex model's map, order bound and
    model."""
    if isinstance(raw, dict) and "grid" in raw:
        if "matrix" in raw:
            raise ConfigError("input holds both 'matrix' and 'grid'; "
                              "it must be a matrix input or a two-sex model")
        model = build_model(raw)
        return model.as_map(), model.order_bound, model
    _require_keys(raw, ("matrix",), "input", optional=("norm", "u"))
    with _field("matrix", "input"):
        matrix = _reals(raw["matrix"])
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
    n = matrix.shape[0]
    norm = raw.get("norm", "l1")
    with _field("norm", "input"):
        if not isinstance(norm, dict):
            space = ConeSpace(n, NormKind(norm))
        else:
            _require_keys(norm, ("weighted",), "norm")
            space = ConeSpace(n, NormKind.WEIGHTED, _reals(norm["weighted"]))
    with _field("matrix", "input"):
        mp = from_matrix(matrix, space=space)
    with _field("u", "input"):
        u = ConeVector(_reals(raw.get("u", np.ones(n))))
        if u.dim != n:
            raise ValueError(f"u has {u.dim} entries, the matrix has {n} rows")
        if not np.all(u.entries > 0):
            raise ValueError("u must be strictly positive")
        with np.errstate(over="ignore"):
            if not space.norm(u.entries) < np.inf:
                raise ValueError(f"the {space.norm_kind.value} norm of u overflows")
    return mp, u, None


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


class _Emitter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_json(self, name: str, obj) -> None:
        (self.out_dir / name).write_bytes(_json_bytes(obj))
        self.files.append(name)

    def write_csv(self, name: str, header: list, rows) -> None:
        """The bytes csv.writer would write: every field here is an int, a
        float or its repr, "" or a plain name, so none needs quoting.  A
        field may also be several float reprs already joined by commas (see
        `_float_rows`), which str() passes through as the same text."""
        with open(self.out_dir / name, "w", newline="") as fh:
            fh.writelines(",".join(map(str, row)) + "\r\n" for row in chain([header], rows))
        self.files.append(name)


def _radius_trace_rows(est: SpectralEstimate):
    # the bracket logs one norm and one bound pair per live iteration
    for i, (s, (lo, hi)) in enumerate(zip(est.log_norm_trace, est.bound_trace), 1):
        yield [i, repr(s), repr(lo), repr(hi)]


def _run_radius(cfg: RunConfig, mp: HomogeneousMap, u: ConeVector, emit: _Emitter):
    est, eigen, _, start = _certify(mp, u, cfg.tolerances["tol"], cfg.max_iter,
                                    cfg.tolerances["inner_tol"])
    emit.write_csv("trace.csv", ["iter", "log_norm", "cw_lower", "cw_upper"],
                   _radius_trace_rows(est))
    payload = est.to_json()
    payload["start"] = start
    payload["eigen_steps"] = None if eigen is None else eigen.steps
    payload["eigen_solves"] = None if eigen is None else eigen.solves
    return (0 if est.converged else 2), payload


def _run_eigen(cfg: RunConfig, mp: HomogeneousMap, u: ConeVector, emit: _Emitter):
    res = solve_eigenvector_perturbation(mp, u, inner_tol=cfg.tolerances["inner_tol"],
                                         max_inner=cfg.max_iter)
    return 0, res.to_json()


def _run_functional(cfg: RunConfig, mp: HomogeneousMap, u: ConeVector, emit: _Emitter):
    xstar = ConeVector(np.ones(mp.space.dim))
    est = estimate_eigenfunctional(mp, u, xstar, trunc_tol=cfg.tolerances["trunc_tol"],
                                   seed=cfg.seed)
    return 0, est.to_json()


def _run_assess(cfg: RunConfig, model: TwoSexModel, f0: list | None, emit: _Emitter):
    report = assess_persistence(model, tol=cfg.tolerances["tol"],
                                f0_probes=f0, max_iter=cfg.max_iter)
    # an eigen stage that did not settle leaves the verdict but no eigenpair
    return (0 if report.radius.converged and report.error is None else 2), report.to_json()


def _float_rows(block: np.ndarray) -> list[str]:
    """Each row of a 2-D float block as ",".join(map(repr, row)), in one pass.

    orjson prints the shortest round-trip digits, as repr does, and in the
    same notation for zero and for every finite magnitude in [1e-4, 1e16).
    Each cell holding any other value (NaN or inf, which orjson writes as
    null, or a magnitude where repr switches to an exponent) is replaced by
    its repr in the row's split orjson text, so one such cell costs one
    repr, not a row of them.
    """
    block = np.ascontiguousarray(block, dtype=float)
    if not len(block):
        return []
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    rows = text[2:-2].split("],[")
    mag = np.abs(block)
    other = ~((mag == 0) | ((mag >= 1e-4) & (mag < 1e16)))
    for i in np.flatnonzero(other.any(axis=1)):
        cells = rows[i].split(",")
        cols = np.flatnonzero(other[i])
        for j, x in zip(cols.tolist(), block[i, cols].tolist()):
            cells[j] = repr(x)
        rows[i] = ",".join(cells)
    return rows


def _run_simulate(cfg: RunConfig, model: TwoSexModel, f0: ConeVector, emit: _Emitter):
    try:
        traj = simulate(model, f0, years=cfg.years)
    except MemoryError:   # years + 1 densities do not fit: re-raised, it names years
        with _field("years", "config"):
            raise
    header = ["year", "log_total_mass", "gamma_estimate"]
    if cfg.emit_densities:
        header += [f"cell_{i}" for i in range(model.grid.n_cells)]
    rows = [[year, logm, gamma] for year, (logm, gamma)
            in enumerate(zip(traj.log_mass, [""] + traj.gamma_estimates))]
    if cfg.emit_densities:
        for row, densities in zip(rows, _float_rows(traj.shapes)):
            row.append(densities)
    emit.write_csv("trajectory.csv", header, rows)
    return 0, traj.to_json()


def _cone_functional_defects(space: ConeSpace, rng: np.random.Generator,
                             trials: int) -> tuple[int, float]:
    """Random checks of the psi and diamond-norm axioms: homogeneity and
    1-Lipschitz continuity of psi, subadditivity of psi, and diamond <= norm,
    each trial's worst defect relative to max(1, |x| + |y|).  Returns the
    number of trials with a defect above 1e-12 and the largest defect."""
    violations, worst = 0, 0.0
    for _, xs, ys, alpha in _trial_blocks(rng, space.dim, trials, 10.0):
        px, py, nx = psi_hull(space, xs), psi_hull(space, ys), space.norm(xs)
        checks = (
            np.abs(psi_hull(space, xs * alpha) - alpha * px),
            np.maximum(0.0, np.abs(px - py) - space.norm(xs - ys)),
            np.maximum(0.0, psi_hull(space, xs + ys) - px - py),
            np.maximum(0.0, diamond_norm(space, xs) - nx),
        )
        defect = np.max(checks, axis=0) / np.maximum(1.0, nx + space.norm(ys))
        worst = max(worst, float(defect.max()))
        violations += int(np.count_nonzero(defect > 1e-12))
    return violations, worst


def _run_validate(cfg: RunConfig, mp: HomogeneousMap, u: ConeVector, emit: _Emitter):
    report = verify_properties(mp, trials=200, tol=1e-9, seed=cfg.seed)
    cone_violations, worst = _cone_functional_defects(
        mp.space, np.random.default_rng(cfg.seed), trials=500)
    payload = {
        "map_properties": report.to_json(),
        "cone_functionals": {"trials": 500, "violations": cone_violations,
                             "max_defect": worst},
    }
    return (0 if report.ok and cone_violations == 0 else 1), payload


_RUNNERS = {
    "radius": _run_radius,
    "eigen": _run_eigen,
    "functional": _run_functional,
    "twosex-assess": _run_assess,
    "twosex-simulate": _run_simulate,
    "validate": _run_validate,
}


def _blas() -> dict:
    """Name and version of the BLAS numpy was built against; no thread count,
    which numpy does not report."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def run(cfg: RunConfig) -> int:
    """Run one command: its runner writes the CSV traces and returns the exit
    code and the result payload; result.json, always carrying the seed, and
    the manifest are written here."""
    raw, input_sha256 = _read_json(cfg.input_path, "input", _loads_input)
    try:
        mp, u, model = _load_input(raw)
    except ConfigError:
        raise
    except ConeRadError as exc:
        # Problems found while validating the input are configuration
        # failures, not numerical ones; keep the original error name visible.
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    # config errors that need the input are found here, before any output;
    # the two-sex commands run on the model and the parsed f0
    problem = (mp, u)
    if cfg.command.startswith("twosex-"):
        if model is None:
            raise ConfigError(f"{cfg.command} requires a two-sex model input")
        problem = (model, _initial_densities(cfg, model))
    emit = _Emitter(cfg.output_dir)
    payload = None
    try:
        code, payload = _RUNNERS[cfg.command](cfg, *problem, emit)
    except ConeRadError as exc:
        # a numerical failure (exit 2) still leaves a result.json naming it
        payload = {"error": f"{type(exc).__name__}: {exc}"}
        raise
    finally:
        if payload is not None:
            emit.write_json("result.json", {**payload, "seed": cfg.seed})
        manifest = {
            "command": cfg.command,
            "seed": cfg.seed,
            "config_sha256": cfg.config_sha256,
            "input_sha256": input_sha256,
            "versions": {
                "conerad": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "blas": _blas(),
            },
            "files": sorted(set(emit.files)) + ["manifest.json"],
        }
        emit.write_json("manifest.json", manifest)
    return code


_PARSER = argparse.ArgumentParser(
    prog="conerad",
    description="cone spectral radius and positive eigenproblem toolkit")
_PARSER.add_argument("--config", required=True, help="path to a run config JSON")
_PARSER.add_argument("--out", default=None, help="output directory (overrides config)")
_PARSER.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
_PARSER.add_argument("--quiet", action="store_true", help="suppress the summary line")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg.output_dir = Path(args.out)
        if args.seed is not None:
            _check_seed(args.seed, "option '--seed'")
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
