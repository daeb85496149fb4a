"""End-to-end CLI runs in temporary directories."""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerad import (
    ConeSpace,
    ConeVector,
    NormKind,
    build_model,
    diamond_norm,
    from_matrix,
    psi_hull,
    radius_bracket,
    simulate,
    solve_eigenvector_perturbation,
)
from conerad import cli, eigenproblem
from conerad.cli import main, parse_config
from conerad.errors import ConfigError, InnerIterationError

from conftest import (gaussian_config, perfbench_module, single_cell_config, scale_beta,
                      trial_draws)

MISSING = object()


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))


def make_run(tmp_path, command, input_obj, **extra):
    inp = tmp_path / "input.json"
    write_json(inp, input_obj)
    cfg = {"command": command, "input": "input.json",
           "output_dir": str(tmp_path / "out")}
    cfg.update(extra)
    cfg_path = tmp_path / "run.json"
    write_json(cfg_path, cfg)
    return cfg_path


class TestParseConfig:
    def test_defaults_filled(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[2.0, 0.0], [0.0, 1.0]]})
        cfg = parse_config(path)
        assert cfg.tolerances["tol"] == 1e-8
        assert cfg.max_iter == 10000
        assert cfg.seed == 0

    def test_negative_tolerance_rejected(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0]]},
                        tolerances={"tol": -1e-8})
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("literal", ["true", '"1e-3"', "Infinity", "1e400", "NaN"])
    def test_tolerance_must_be_a_finite_positive_number(self, tmp_path, capsys, literal):
        # float() would take a bool or a numeric string, and JSON's Infinity
        # and the overflowing 1e400 both parse to inf: an infinite tol would
        # close any radius bracket after one iteration
        path = make_run(tmp_path, "radius", {"matrix": [[0.5, 0.2], [0.1, 0.3]]},
                        tolerances={"tol": "TOL"})
        path.write_text(path.read_text().replace('"TOL"', literal))
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error:") and "'tolerances.tol'" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0]]}, tolerance=1e-8)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_tolerance_name_rejected(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0]]},
                        tolerances={"tolx": 1e-8})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_command_rejected(self, tmp_path):
        path = make_run(tmp_path, "radiuss", {"matrix": [[1.0]]})
        with pytest.raises(ConfigError):
            parse_config(path)


class TestRadiusCommand:
    def test_matrix_radius(self, tmp_path, capsys):
        path = make_run(tmp_path, "radius", {"matrix": [[2.0, 0.0], [0.0, 1.0]]})
        assert main(["--config", str(path)]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["value"] == pytest.approx(2.0, abs=1e-7)
        assert result["converged"] is True
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,log_norm,cw_lower,cw_upper"
        assert len(trace) == result["iterations"] + 1
        first_upper = float(trace[1].split(",")[3])
        last_upper = float(trace[-1].split(",")[3])
        assert last_upper <= first_upper  # bounds tighten along the run

    @pytest.mark.parametrize("command", ["radius", "eigen", "functional", "validate",
                                         "twosex-assess", "twosex-simulate"])
    def test_manifest_lists_all_files(self, tmp_path, command):
        problem = (gaussian_config(n_cells=8) if command.startswith("twosex-")
                   else {"matrix": [[1.0]]})
        path = make_run(tmp_path, command, problem, seed=6)
        main(["--config", str(path), "--quiet"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        emitted = {p.name for p in (tmp_path / "out").iterdir()}
        assert set(manifest["files"]) == emitted
        csv_name = {"radius": "trace.csv", "eigen": "trace.csv",
                    "twosex-simulate": "trajectory.csv"}.get(command)
        assert emitted == {"result.json", "manifest.json"} | ({csv_name} - {None})
        assert json.loads((tmp_path / "out" / "result.json").read_text())["seed"] == 6
        assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        inp = (tmp_path / "input.json").read_bytes()
        assert manifest["input_sha256"] == hashlib.sha256(inp).hexdigest()
        assert set(manifest["versions"]["blas"]) == {"name", "version"}

    def test_out_and_seed_flags_override_config(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[1.5]]}, seed=1)
        other = tmp_path / "elsewhere"
        assert main(["--config", str(path), "--out", str(other), "--seed", "9",
                     "--quiet"]) == 0
        result = json.loads((other / "result.json").read_text())
        assert result["seed"] == 9
        assert not (tmp_path / "out").exists()

    def test_deterministic_reruns(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0, 0.3], [0.2, 0.9]]},
                        seed=7)
        main(["--config", str(path), "--quiet"])
        first = (tmp_path / "out" / "result.json").read_bytes()
        manifest1 = (tmp_path / "out" / "manifest.json").read_bytes()
        main(["--config", str(path), "--quiet"])
        assert (tmp_path / "out" / "result.json").read_bytes() == first
        assert (tmp_path / "out" / "manifest.json").read_bytes() == manifest1

    def test_reducible_radius_closes_from_the_eigenvector(self, tmp_path):
        # A sparse upper-triangular matrix, about 10% of its upper entries
        # and of its diagonal nonzero: its radius is its largest diagonal
        # entry.  The power bracket started from u closes the lower bound
        # but not the upper one within 2000 iterations (exit 2); started
        # from the strictly positive eigenvector of B_eps, it closes.
        rng = np.random.default_rng(0)
        n, gap = 50, 0.7
        mat = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.1))
        top = rng.uniform(0.5, 1.0)
        diag = rng.uniform(0.0, gap * top, size=n) * (rng.random(n) < 0.1)
        i, j = rng.choice(n, size=2, replace=False)
        diag[i], diag[j] = top, gap * top
        mat[np.diag_indices(n)] = diag
        path = make_run(tmp_path, "radius", {"matrix": mat.tolist()}, max_iter=2000)
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["converged"] is True
        assert result["cw_lower"] <= top <= result["cw_upper"]
        eigen = solve_eigenvector_perturbation(from_matrix(mat), ConeVector(np.ones(n)),
                                               max_inner=2000)
        assert (result["start"], result["eigen_steps"]) == ("eigenvector", eigen.steps)
        assert result["eigen_solves"] == eigen.solves > 0

    def test_annihilated_cone_gives_a_zero_bracket(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[0.0, 0.0], [0.0, 0.0]]})
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert (result["cw_lower"], result["cw_upper"], result["converged"]) == (0.0, 0.0, True)
        assert (result["start"], result["eigen_steps"]) == ("eigenvector", 1)


class TestStalledEigenStage:
    """A stage that raises InnerIterationError leaves every command its
    bracket from u: the result the commands gave before they started from
    the eigenvector."""

    MATRIX = [[0.5, 0.2, 0.0], [0.1, 0.3, 0.4], [0.2, 0.0, 0.6]]

    @pytest.fixture(autouse=True)
    def stall(self, monkeypatch):
        def stall(mp, u, *args, **kwargs):
            raise InnerIterationError("inner iteration did not settle within 3 steps")

        monkeypatch.setattr(eigenproblem, "solve_eigenvector_perturbation", stall)

    def from_u(self, tol):
        return radius_bracket(from_matrix(np.array(self.MATRIX)), ConeVector(np.ones(3)),
                              tol=tol, max_iter=10000)

    def test_radius(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": self.MATRIX})
        assert main(["--config", str(path), "--quiet"]) == 0
        out = tmp_path / "out"
        want = self.from_u(1e-8)
        result = json.loads((out / "result.json").read_text())
        assert result == {**want.to_json(), "start": "u", "eigen_steps": None,
                          "eigen_solves": None, "seed": 0}
        rows = [["iter", "log_norm", "cw_lower", "cw_upper"], *cli._radius_trace_rows(want)]
        assert (out / "trace.csv").read_bytes() == "".join(
            ",".join(map(str, row)) + "\r\n" for row in rows).encode()

    def test_functional(self, tmp_path):
        path = make_run(tmp_path, "functional", {"matrix": self.MATRIX})
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        want = self.from_u(1e-10)
        assert result["radius_used"] == want.value
        assert result["lambda_used"] == 1.2 * want.cw_upper


class TestTwoSexCommands:
    def test_assess_single_cell(self, tmp_path):
        path = make_run(tmp_path, "twosex-assess", single_cell_config())
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["verdict"] == "extinction"
        assert result["radius"]["value"] == pytest.approx(0.25, abs=1e-9)

    def test_assess_persistent_scenario(self, tmp_path):
        path = make_run(tmp_path, "twosex-assess",
                        scale_beta(gaussian_config(n_cells=20), 12.0))
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["verdict"] == "persistence"
        assert result["eigen"]["residual"] <= 1e-6

    def test_assess_unsettled_eigen_stage_keeps_the_verdict(self, tmp_path, monkeypatch):
        def stall(mp, u, *args, **kwargs):
            raise InnerIterationError("inner iteration did not settle within 3 steps")

        monkeypatch.setattr(eigenproblem, "solve_eigenvector_perturbation", stall)
        path = make_run(tmp_path, "twosex-assess",
                        scale_beta(gaussian_config(n_cells=20), 12.0))
        # partial outputs: the verdict and the radius, but no eigenpair
        assert main(["--config", str(path), "--quiet"]) == 2
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["verdict"] == "persistence"
        assert result["radius"]["converged"] is True
        assert result["eigen"] is None
        assert result["error"].startswith("InnerIterationError: ")

    def test_simulate_trajectory_csv(self, tmp_path):
        path = make_run(tmp_path, "twosex-simulate", single_cell_config(),
                        years=10, f0=[1.0])
        assert main(["--config", str(path), "--quiet"]) == 0
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "year,log_total_mass,gamma_estimate"
        assert len(rows) == 12  # header + year 0..10
        final_gamma = float(rows[-1].split(",")[2])
        assert final_gamma == pytest.approx(0.25, rel=1e-9)

    def test_simulate_density_cells_are_numbers(self, tmp_path):
        cfg = gaussian_config(n_cells=6)
        path = make_run(tmp_path, "twosex-simulate", cfg, years=4, emit_densities=True)
        assert main(["--config", str(path), "--quiet"]) == 0
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][3:] == [f"cell_{i}" for i in range(6)]
        cells = np.array([[float(v) for v in row[3:]] for row in rows[1:]])
        traj = simulate(build_model(cfg), ConeVector(np.ones(6)), years=4)
        assert np.array_equal(cells, traj.shapes)

    def test_csv_bytes_match_csv_module(self, tmp_path):
        header = ["year", "log_total_mass", "gamma_estimate", "cell_0", "cell_1"]
        rows = [[0, 0.0, "", 1.0, 2.5e-310], [1, -1.2345678901234567, 0.1, 1e300, -0.0],
                [2, float("inf"), float("nan"), 3, 1 / 3], [3, "1.5", "inf", "", ""]]
        emit = cli._Emitter(tmp_path)
        emit.write_csv("got.csv", header, iter(rows))
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert emit.files == ["got.csv"]

    @pytest.mark.parametrize("case", ["gaussian", "tails_below_1e-4", "die_out"])
    def test_simulate_trajectory_bytes_match_csv_module(self, tmp_path, case):
        cfg, f0 = gaussian_config(n_cells=6), [1.0] * 6
        if case == "tails_below_1e-4":
            # started from one edge cell: the Gaussian tails reach 1e-80,
            # so those rows take the repr fallback of _float_rows
            cfg, f0 = gaussian_config(n_cells=30, sigma=0.05), [1.0] + [0.0] * 29
        elif case == "die_out":
            cfg = gaussian_config(n_cells=6, beta=0.0, s_f=0.0, s_m=0.0)
        traj = simulate(build_model(cfg), ConeVector(np.array(f0)), years=3)
        if case == "tails_below_1e-4":
            assert np.any((traj.shapes > 0) & (traj.shapes < 1e-4))
        elif case == "die_out":
            assert traj.died_at == 1 and traj.log_mass[1] == -np.inf
        path = make_run(tmp_path, "twosex-simulate", cfg, years=3, f0=f0,
                        emit_densities=True)
        assert main(["--config", str(path), "--quiet"]) == 0
        n = len(f0)
        with open(tmp_path / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year", "log_total_mass", "gamma_estimate"]
                            + [f"cell_{i}" for i in range(n)])
            for year, gamma in enumerate([""] + traj.gamma_estimates):
                writer.writerow([year, traj.log_mass[year], gamma]
                                + traj.shapes[year].tolist())
        got = (tmp_path / "out" / "trajectory.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("name, path, bad", [
        ("dispersal.sigma", ("dispersal", "sigma"), "wide"),
        ("grid.n_cells", ("grid", "n_cells"), "many"),
        ("grid", ("grid", "a"), MISSING),
        ("survival.female", ("survival", "female"), "x"),
        ("mating.beta", ("mating", "beta"), "abc"),
        ("sex_ratio", ("sex_ratio",), None),
        ("grid", ("grid",), [0.0, 1.0, 5]),
        ("grid.bounds", ("grid",), {"kind": "rectangle2d", "bounds": [[0, 1]],
                                    "nx": 2, "ny": 2}),
        ("grid", ("grid", "n_cells"), 0),
        ("grid", ("grid", "b"), -1.0),
        ("grid.n_cells", ("grid", "n_cells"), 10.9),
        ("grid.n_cells", ("grid", "n_cells"), 5.0),
        ("grid.n_cells", ("grid", "n_cells"), True),
        ("grid.nx", ("grid",), {"kind": "rectangle2d", "bounds": [[0, 1], [0, 1]],
                                "nx": 2.5, "ny": 2}),
        ("grid.ny", ("grid",), {"kind": "rectangle2d", "bounds": [[0, 1], [0, 1]],
                                "nx": 2, "ny": "2"}),
    ])
    def test_malformed_twosex_input_names_field(self, tmp_path, capsys, name, path, bad):
        cfg = gaussian_config(n_cells=5)
        section = cfg[path[0]] if len(path) == 2 else cfg
        if bad is MISSING:
            del section[path[-1]]
        else:
            section[path[-1]] = bad
        run = make_run(tmp_path, "twosex-assess", cfg)
        assert main(["--config", str(run), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error:") and name in err

    def test_overfull_kernel_surfaced(self, tmp_path, capsys):
        bad = gaussian_config(n_cells=10, sigma=1e-3, s_f=1.0, s_m=0.0, q=1.0)
        path = make_run(tmp_path, "twosex-assess", bad)
        assert main(["--config", str(path), "--quiet"]) == 1
        assert "KernelMassError" in capsys.readouterr().err


def _repr_rows(block):
    return [",".join(map(repr, row)) for row in block.tolist()]


class TestFloatRows:
    """cli._float_rows against the per-cell repr join it replaces."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(15)
        bits = rng.integers(0, 2**64, size=(400, 50), dtype=np.uint64, endpoint=False)
        block = bits.view(np.float64)
        block[~np.isfinite(block)] = 1.0
        # and the same mantissas and signs with every magnitude in [2^-13, 2^53),
        # inside the range where orjson and repr share a notation
        exponent = rng.integers(1023 - 13, 1023 + 53, size=block.shape).astype(np.uint64)
        mask = np.uint64(0x800FFFFFFFFFFFFF)
        plain = ((bits & mask) | (exponent << np.uint64(52))).view(np.float64)
        for b in (block, plain, block[:0]):
            assert cli._float_rows(b) == _repr_rows(b)

    @pytest.mark.parametrize("values", [
        [9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16],
        [5e-324, 2.5e-310, 0.0, -0.0],
        [float("inf"), float("nan"), -1e-4, -1e16],
        [1.0, 0.1, 1 / 3, 123456.789],
    ])
    def test_edges_one_row_and_one_column(self, values):
        row = np.array([values])
        assert cli._float_rows(row) == _repr_rows(row)
        assert cli._float_rows(row.T) == _repr_rows(row.T)
        mixed = np.array([values, [1.5] * len(values)])
        assert cli._float_rows(mixed) == _repr_rows(mixed)


class TestOtherCommands:
    def test_eigen_on_matrix(self, tmp_path):
        path = make_run(tmp_path, "eigen", {"matrix": [[2.0, 0.0], [0.0, 1.0]]})
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["lambda"] == pytest.approx(2.0, abs=1e-7)
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_eigen_stall_writes_partial_result(self, tmp_path):
        # One plain step cannot settle a 2x2 positive matrix started from 1:
        # the stage stalls before it records its row, so the trace is empty.
        matrix = [[2.0, 1.0], [1.0, 3.0]]
        path = make_run(tmp_path, "eigen", {"matrix": matrix}, max_iter=1, seed=4)
        assert main(["--config", str(path), "--quiet"]) == 2
        out = tmp_path / "out"
        result = json.loads((out / "result.json").read_text())
        assert result["error"] == "inner iteration did not settle within 1 steps"
        assert result["seed"] == 4
        assert result["trace"] == []
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace == ["step,eps_or_k,lambda,residual"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"result.json", "trace.csv"} <= set(manifest["files"])

    @pytest.mark.parametrize("command", ["twosex-assess", "functional", "radius", "eigen"])
    def test_numerical_error_writes_partial_result(self, tmp_path, capsys, command):
        # Two cells without births leave the order bound u with zero cells:
        # each command stops with a DegenerateBoundError (exit 2).
        cfg = single_cell_config(beta=[3.0, 3.0, 0.0, 0.0, 3.0, 3.0])
        cfg["grid"]["n_cells"] = 6
        path = make_run(tmp_path, command, cfg, seed=5)
        assert main(["--config", str(path), "--quiet"]) == 2
        assert "DegenerateBoundError" in capsys.readouterr().err
        out = tmp_path / "out"
        result = json.loads((out / "result.json").read_text())
        assert result["error"].startswith("DegenerateBoundError: ")
        assert result["seed"] == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == ["result.json", "manifest.json"]

    def test_functional_on_matrix(self, tmp_path):
        path = make_run(tmp_path, "functional",
                        {"matrix": [[1.0, 0.5], [0.4, 1.0]]})
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["normalizer"] > 0

    def test_validate_clean_map(self, tmp_path):
        path = make_run(tmp_path, "validate", {"matrix": [[1.0, 0.5], [0.4, 1.0]]})
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["map_properties"]["ok"] is True
        assert result["cone_functionals"]["violations"] == 0
        # a matrix map is certified by its entry check and runs no trial
        assert result["map_properties"]["trials"] == 0
        assert result["map_properties"]["violations"] == {"homogeneity": 0, "monotonicity": 0}

    def test_validate_certifies_matrix_with_overflowing_products(self, tmp_path):
        # no trial runs, so B(x) is never formed: a finite matrix whose
        # products overflow is still homogeneous and order preserving
        path = make_run(tmp_path, "validate", {"matrix": [[1e308, 1e308]] * 2})
        assert main(["--config", str(path), "--quiet"]) == 0
        props = json.loads((tmp_path / "out" / "result.json").read_text())["map_properties"]
        assert props["trials"] == 0 and props["ok"] is True
        assert props["max_defects"] == {"homogeneity": 0.0, "monotonicity": 0.0}

    @pytest.mark.parametrize("space", [
        ConeSpace(7), ConeSpace(40, NormKind.LINF),
        ConeSpace(5, NormKind.WEIGHTED, np.array([0.2, 1.0, 3.0, 0.5, 1.5])),
    ], ids=["l1", "linf", "weighted"])
    def test_cone_functional_blocks_match_per_trial_loop(self, space):
        # The checks of validate's cone_functionals one trial at a time; the
        # block run gives the same count and a bit-identical largest defect.
        rng = np.random.default_rng(7)
        violations, worst = 0, 0.0
        for x, y, alpha in trial_draws(rng, space.dim, 300, 10.0, width=300):
            px, py, nx = psi_hull(space, x), psi_hull(space, y), space.norm(x)
            checks = (
                abs(psi_hull(space, alpha * x) - alpha * px),
                max(0.0, abs(px - py) - space.norm(x - y)),
                max(0.0, psi_hull(space, x + y) - px - py),
                max(0.0, diamond_norm(space, x) - nx),
            )
            defect = max(checks) / max(1.0, nx + space.norm(y))
            worst = max(worst, defect)
            violations += defect > 1e-12
        got = cli._cone_functional_defects(space, np.random.default_rng(7), trials=300)
        assert got == (violations, worst)
        assert worst > 0.0

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, bad", [
        ("norm", {"norm": "l2"}),
        ("norm", {"norm": {"weightd": [1.0, 1.0]}}),
        ("u", {"u": [1.0, -1.0]}),
        ("u", {"u": [1.0, 1.0, 1.0]}),
        ("matrix", {"matrix": [[1.0, -0.5], [0.4, 1.0]]}),
        ("matrix", {"matrix": [[1.0, "x"], [0.4, 1.0]]}),
        ("u", {"u": [1.0, 0.0]}),
    ])
    def test_malformed_linear_input_names_field(self, tmp_path, capsys, name, bad):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0, 0.5], [0.4, 1.0]], **bad})
        assert main(["--config", str(path), "--quiet"]) == 1
        assert f"config error: input field '{name}' is invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, extra", [
        ("radius", "max_iter", {"max_iter": "lots"}),
        ("radius", "max_iter", {"max_iter": 1e400}),
        ("radius", "tolerances.tol", {"tolerances": {"tol": "abc"}}),
        ("radius", "tolerances", {"tolerances": [1e-8]}),
        ("radius", "seed", {"seed": "seven"}),
        ("radius", "input", {"input": 5}),
        ("radius", "output_dir", {"output_dir": ["out"]}),
        ("twosex-simulate", "years", {"years": "ten"}),
        ("twosex-simulate", "emit_densities", {"emit_densities": "false"}),
        ("twosex-simulate", "f0", {"f0": "bogus"}),
        ("twosex-simulate", "f0", {"f0": [1.0, 1.0]}),
        ("twosex-simulate", "f0", {"f0": [1.0, -1.0, 1.0]}),
        ("twosex-assess", "f0", {"f0": [[1.0, 1.0]]}),
        ("twosex-assess", "f0", {"f0": [["a", "b", "c"]]}),
        ("twosex-assess", "f0", {"f0": 5}),
        # integer fields take JSON integers only; int() would round or coerce
        ("radius", "max_iter", {"max_iter": 2.7}),
        ("radius", "max_iter", {"max_iter": True}),
        ("radius", "seed", {"seed": 1.9}),
        ("radius", "seed", {"seed": False}),
        ("twosex-simulate", "years", {"years": 3.0}),
        ("radius", "tolerances", {"tolerances": []}),
        ("radius", "tolerances", {"tolerances": 0}),
        ("radius", "tolerances", {"tolerances": None}),
        # numpy's generators reject negative seeds
        ("validate", "seed", {"seed": -3}),
        ("functional", "seed", {"seed": -3}),
        ("radius", "seed", {"seed": -1}),
    ])
    def test_malformed_run_config_names_field(self, tmp_path, capsys, command, name, extra):
        inp = {"matrix": [[1.0, 0.5], [0.4, 1.0]]} if command == "radius" \
            else gaussian_config(n_cells=3)
        path = make_run(tmp_path, command, inp, **extra)
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error:") and f"'{name}'" in err
        # a config error writes nothing, not even a manifest
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "functional", "radius"])
    def test_negative_seed_option_is_config_error(self, tmp_path, capsys, command):
        path = make_run(tmp_path, command, {"matrix": [[1.0, 0.5], [0.4, 1.0]]})
        assert main(["--config", str(path), "--quiet", "--seed", "-3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error:") and "'--seed'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["twosex-assess", "twosex-simulate"])
    def test_twosex_command_on_matrix_input_writes_nothing(self, tmp_path, capsys, command):
        path = make_run(tmp_path, command, {"matrix": [[1.0, 0.5], [0.4, 1.0]]})
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == f"conerad: config error: {command} requires a two-sex model input\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["radius", "twosex-assess"])
    def test_matrix_and_grid_in_one_input_names_both(self, tmp_path, capsys, command):
        # either key alone chooses the input format; both at once are neither
        path = make_run(tmp_path, command, {"matrix": [[0.5]], "grid": 1})
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error:")
        assert "'matrix'" in err and "'grid'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["radius", "twosex-assess", "twosex-simulate"])
    def test_overflowing_order_bound_names_mating(self, tmp_path, capsys, command):
        # beta = 1e308 times the local kernel's row maxima 1 / width = 100
        cfg = single_cell_config(beta=1e308)
        cfg["grid"]["n_cells"] = 100
        path = make_run(tmp_path, command, cfg)
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error: model config field 'mating' is invalid:")
        assert "order bound" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["radius", "eigen", "functional"])
    def test_overflowing_products_exit_2(self, tmp_path, capsys, command):
        # B(u_hat) is finite, but its norm, and with it eps, overflows
        path = make_run(tmp_path, command, {"matrix": [[1e308, 1e308]] * 2}, seed=3)
        assert main(["--config", str(path), "--quiet"]) == 2
        assert "MapContractError" in capsys.readouterr().err
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result == {"error": "MapContractError: linear: psi(B(u_hat)) overflows",
                          "seed": 3}

    def test_input_norm_names_the_space(self):
        matrix = [[1.0, 0.5], [0.4, 1.0]]
        for norm, kind, weights in (("l1", NormKind.L1, None), ("linf", NormKind.LINF, None),
                                    ({"weighted": [0.5, 2]}, NormKind.WEIGHTED, [0.5, 2.0])):
            mp, _, model = cli._load_input({"matrix": matrix, "norm": norm})
            assert model is None and np.array_equal(mp.matrix, matrix)
            assert (mp.space.dim, mp.space.norm_kind) == (2, kind)
            if weights is None:
                assert mp.space.weights is None
            else:
                assert np.array_equal(mp.space.weights, weights)
        assert cli._load_input({"matrix": matrix})[0].space.norm_kind is NormKind.L1

    def test_malformed_input_is_validation_error(self, tmp_path, capsys):
        path = make_run(tmp_path, "radius", {"surprise": True})
        assert main(["--config", str(path), "--quiet"]) == 1


def same_values(a, b) -> bool:
    """a and b are the same JSON value with the same types, each float bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_values(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_values, a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


class TestReadJson:
    @pytest.mark.parametrize("workload", ["linear-mix", "functional-series"])
    def test_workload_inputs_parse_as_json_loads_does(self, workload):
        ops = perfbench_module("workloads").GENERATORS[workload](1)
        # each input written as the benchmark writes it
        for data in {json.dumps(op["input"]).encode() for op in ops}:
            assert same_values(cli._loads_input(data), json.loads(data))

    @pytest.mark.parametrize("literal", [
        "-0.0", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
        "9007199254740993", "9223372036854775807", "18446744073709551615"])
    def test_edge_literals_parse_as_json_loads_does(self, literal):
        data = f'{{"matrix": [[{literal}]]}}'.encode()
        assert same_values(cli._loads_input(data), json.loads(data))

    @pytest.mark.parametrize("data", [
        b"[NaN, Infinity, -Infinity, 1e400]", b"\xef\xbb\xbf[0.5]", '["\u00e9"]'.encode("utf-16")],
        ids=["nonfinite", "bom", "utf16"])
    def test_documents_orjson_rejects_parse_as_json_loads_does(self, data):
        assert same_values(cli._loads_input(data), json.loads(data))

    def test_integers_beyond_64_bits_read_as_floats(self):
        assert same_values(cli._loads_input(b"[18446744073709551616, -9223372036854775809]"),
                           [18446744073709551616.0, -9223372036854775809.0])

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("name", ["matrix", "u"])
    def test_nonfinite_literal_names_its_field(self, tmp_path, capsys, name, literal):
        path = make_run(tmp_path, "radius", {"matrix": [[0.5, 0.2], [0.1, 0.3]], "u": [1.0, 2.0]})
        inp = tmp_path / "input.json"
        inp.write_text(inp.read_text().replace("0.3" if name == "matrix" else "2.0", literal))
        assert main(["--config", str(path), "--quiet"]) == 1
        assert f"config error: input field '{name}' is invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("what", ["config", "input"])
    def test_undecodable_bytes_are_a_config_error(self, tmp_path, capsys, what):
        path = make_run(tmp_path, "radius", {"matrix": [[0.5, 0.2], [0.1, 0.3]]})
        target = path if what == "config" else tmp_path / "input.json"
        target.write_bytes(b'{"\xff": 0, ' + target.read_bytes()[1:])
        assert main(["--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            f"conerad: config error: {what} is not valid JSON: 'utf-8' codec can't decode")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("norm, u", [("l1", [1e308, 1e308]),
                                         ({"weighted": [1e300, 1e300]}, [1e10, 1e10])],
                             ids=["l1", "weighted"])
    @pytest.mark.parametrize("command", ["radius", "eigen", "functional"])
    def test_u_whose_norm_overflows_names_u(self, tmp_path, capsys, command, norm, u):
        # u / ||u|| is the zero vector: radius certified [0, 0] for a radius near 0.64
        path = make_run(tmp_path, command,
                        {"matrix": [[0.5, 0.1], [0.2, 0.5]], "norm": norm, "u": u})
        assert main(["--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("conerad: config error: input field 'u' is invalid")
        assert err.endswith("norm of u overflows\n")
        assert not (tmp_path / "out").exists()

    def test_config_seed_beyond_64_bits_runs(self, tmp_path):
        # config files keep json.loads, whose integers are unbounded
        path = make_run(tmp_path, "radius", {"matrix": [[0.5, 0.1], [0.2, 0.5]]}, seed=2 ** 64)
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["seed"] == 2 ** 64


def edited(cfg: dict, path: tuple, value) -> dict:
    """A deep copy of cfg with the value at path (a tuple of keys) replaced."""
    out = copy.deepcopy(cfg)
    section = out
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return out


LINEAR = {"matrix": [[0.5, 0.2], [0.1, 0.3]]}
TWOSEX = gaussian_config(n_cells=3)
MIN_RATE = edited(TWOSEX, ("mating",), {"kind": "min_rate", "beta1": 2.0, "beta2": 2.5})
RECTANGLE = edited(TWOSEX, ("grid",), {"kind": "rectangle2d", "bounds": [[0, 1], [0, 1]],
                                       "nx": 2, "ny": 2})


def _number_field_cases():
    """(command, field, input, config extras): each input or config holds a
    bool or a string where a number belongs, which float() and numpy coerce."""
    yield "radius", "matrix", {"matrix": [[True, 0.2], [0.1, "0.3"]]}, {}
    yield "radius", "u", {**LINEAR, "u": [1.0, True]}, {}
    yield "radius", "u", {**LINEAR, "u": ["1", "1"]}, {}
    for weights in ([True], ["2"]):
        yield "radius", "norm", {"matrix": [[0.5]], "norm": {"weighted": weights}}, {}
    yield "twosex-simulate", "f0", TWOSEX, {"f0": [1.0, True, "1"]}
    yield "twosex-assess", "f0", TWOSEX, {"f0": [[1.0, True, "1"]]}
    yield "twosex-assess", "grid.a", edited(TWOSEX, ("grid", "a"), "0.5"), {}
    for path in (("grid", "b"), ("dispersal", "sigma"), ("survival", "female"),
                 ("sex_ratio",), ("mating", "beta")):
        for bad in (True, "0.5"):
            yield "twosex-assess", ".".join(path), edited(TWOSEX, path, bad), {}
    yield ("twosex-assess", "mating.beta1",
           edited(MIN_RATE, ("mating", "beta1"), [2.0, True, 2.0]), {})
    yield "twosex-assess", "mating.beta2", edited(MIN_RATE, ("mating", "beta2"), "2.5"), {}
    yield ("twosex-assess", "grid.bounds",
           edited(RECTANGLE, ("grid", "bounds"), [[0, True], [0, "1"]]), {})


NUMBER_FIELD_CASES = list(_number_field_cases())


@pytest.mark.parametrize("command, name, inp, extra", NUMBER_FIELD_CASES,
                         ids=[f"{case[1]}-{i}" for i, case in enumerate(NUMBER_FIELD_CASES)])
def test_bool_or_string_in_number_field_names_it(tmp_path, capsys, command, name, inp, extra):
    # each of these once ran, reading True as 1.0 and "0.3" as 0.3
    path = make_run(tmp_path, command, inp, **extra)
    assert main(["--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("conerad: config error:") and f"'{name}'" in err
    assert not (tmp_path / "out").exists()


def _huge_allocations_fail() -> bool:
    """Whether an allocation far beyond the machine's memory fails at once.
    Linux refuses one unless it is set to overcommit always (mode 1); where
    it does not, the allocation may succeed and then touch its pages."""
    try:
        return Path("/proc/sys/vm/overcommit_memory").read_text().strip() != "1"
    except OSError:
        return False


needs_failing_allocations = pytest.mark.skipif(
    not _huge_allocations_fail(), reason="a terabyte allocation might not fail here")


@needs_failing_allocations
@pytest.mark.parametrize("grid, dispersal", [
    ({"kind": "rectangle2d", "bounds": [[0, 1], [0, 1]], "nx": 10**6, "ny": 10**6},
     {"kind": "local"}),
    ({"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": 10**6},
     {"kind": "gaussian", "sigma": 0.1}),
    ({"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": 10**6}, {"kind": "local"}),
], ids=["rectangle-weights", "interval-gaussian", "interval-local"])
def test_grid_too_large_to_allocate_names_grid(tmp_path, capsys, grid, dispersal):
    # 10**12 cell weights, or a 10**6 x 10**6 kernel factor: 7.28 TiB each,
    # refused before a page is touched
    cfg = edited(edited(TWOSEX, ("grid",), grid), ("dispersal",), dispersal)
    path = make_run(tmp_path, "twosex-assess", cfg)
    assert main(["--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("conerad: config error: model config field 'grid' is invalid: ")
    assert "allocate" in err
    assert not (tmp_path / "out").exists()


@needs_failing_allocations
def test_years_too_large_to_allocate_names_years(tmp_path, capsys):
    # the 10**12 + 1 stored densities of 20 cells are 146 TiB; the failure
    # comes after the output directory exists, so it writes what a
    # numerical error writes: the error and the seed, and the manifest
    path = make_run(tmp_path, "twosex-simulate", gaussian_config(n_cells=20),
                    years=10**12, seed=2)
    assert main(["--config", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("conerad: config error: config field 'years' is invalid: ")
    out = tmp_path / "out"
    result = json.loads((out / "result.json").read_text())
    assert result["error"].startswith("ConfigError: config field 'years' is invalid: ")
    assert result["seed"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == ["result.json", "manifest.json"]


def _fuzz_bases(out: str) -> list:
    """(input, run config) pairs of valid runs whose mappings hold every key
    they may hold, so an added key is unknown wherever it goes."""
    rectangle = edited(RECTANGLE, ("grid", "bounds"), [[0.0, 1.0], [0.0, 2.0]])
    rectangle["dispersal"] = {"kind": "local"}
    rectangle["mating"] = {"kind": "min_rate", "beta1": [2.0, 3.0, 2.0, 3.0], "beta2": 2.5}
    run = {"command": None, "input": "input.json", "output_dir": out,
           "tolerances": {"tol": 1e-8, "inner_tol": 1e-13, "trunc_tol": 1e-10},
           "max_iter": 500, "seed": 1}
    return [
        ({"matrix": [[0.5, 0.2], [0.1, 0.3]], "norm": {"weighted": [1.0, 2.0]}, "u": [1.0, 2.0]},
         {**run, "command": "radius"}),
        ({"matrix": [[0.5]], "norm": "linf", "u": [1.0]}, {**run, "command": "validate"}),
        (copy.deepcopy(TWOSEX), {**run, "command": "twosex-simulate", "years": 2,
                                 "f0": [1.0, 2.0, 1.0], "emit_densities": False}),
        (rectangle, {**run, "command": "twosex-assess", "f0": [[1.0, 2.0, 1.0, 2.0]]}),
    ]


def _run_files(tmp, inp, cfg) -> int:
    write_json(tmp / "input.json", inp)
    write_json(tmp / "run.json", cfg)
    return main(["--config", str(tmp / "run.json"), "--quiet"])


@pytest.mark.parametrize("base", range(4))
def test_fuzz_bases_run(tmp_path, base):
    inp, cfg = _fuzz_bases(str(tmp_path / "out"))[base]
    assert _run_files(tmp_path, inp, cfg) == 0


def _leaf_paths(obj, path=()):
    """The path of every JSON scalar in obj."""
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _leaf_paths(value, path + (key,))
    else:
        yield path


def _mapping_paths(obj, path=()):
    """The path of every JSON object in obj (the bases hold none in a list)."""
    if isinstance(obj, dict):
        yield path
        for key, value in obj.items():
            yield from _mapping_paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


_SCALARS = st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                     st.integers(-3, 3), st.floats(-3.0, 3.0))
# a replacement of another JSON type than the leaf's; an array of non-numbers,
# so that no replacement is a valid field (a number field may take an array)
_OTHER_TYPES = {
    "bool": st.booleans(),
    "string": st.text(max_size=4),
    "null": st.none(),
    "array": st.lists(st.one_of(st.booleans(), st.text(max_size=3), st.none()), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), _SCALARS, max_size=2),
    "number": st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)),
}


def _json_type(leaf) -> str:
    if isinstance(leaf, bool):
        return "bool"
    return "string" if isinstance(leaf, str) else "number"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_malformed_field_is_named(data):
    """One leaf replaced by a value of another JSON type, or one unknown key
    added, anywhere in a valid input or run config: exit 1 naming it."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inp, cfg = data.draw(st.sampled_from(_fuzz_bases(str(tmp / "out"))))
        doc = data.draw(st.sampled_from([inp, cfg]))
        if data.draw(st.booleans()):
            path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
            kind = _json_type(_at(doc, path))
            _at(doc, path[:-1])[path[-1]] = data.draw(
                st.one_of(*(s for name, s in _OTHER_TYPES.items() if name != kind)))
            keys = ".".join(itertools.takewhile(lambda k: isinstance(k, str), path))
            # a weighted norm's weights are read as the field 'norm'
            name = "norm" if keys == "norm.weighted" else keys
        else:
            mapping = _at(doc, data.draw(st.sampled_from(list(_mapping_paths(doc)))))
            name = data.draw(st.text(string.ascii_lowercase, min_size=1, max_size=8).filter(
                lambda k: k not in mapping))
            mapping[name] = data.draw(_SCALARS)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert _run_files(tmp, inp, cfg) == 1
        assert err.getvalue().startswith("conerad: config error:")
        assert f"'{name}'" in err.getvalue()
        assert sorted(p.name for p in tmp.iterdir()) == ["input.json", "run.json"]
