"""End-to-end CLI runs in temporary directories."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from conerad import ConeVector, build_model, simulate
from conerad.cli import main, parse_config
from conerad.errors import ConfigError

from conftest import gaussian_config, single_cell_config, scale_beta

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

    def test_manifest_lists_all_files(self, tmp_path):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0]]})
        main(["--config", str(path), "--quiet"])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        emitted = {p.name for p in (tmp_path / "out").iterdir()}
        assert set(manifest["files"]) == emitted
        assert manifest["input_sha256"]

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


class TestOtherCommands:
    def test_eigen_on_matrix(self, tmp_path):
        path = make_run(tmp_path, "eigen", {"matrix": [[2.0, 0.0], [0.0, 1.0]]})
        assert main(["--config", str(path), "--quiet"]) == 0
        result = json.loads((tmp_path / "out" / "result.json").read_text())
        assert result["lambda"] == pytest.approx(2.0, abs=1e-7)
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_eigen_stall_writes_partial_result(self, tmp_path):
        # A period-2 matrix: the inner iteration settles at eps = 0.1, then
        # oscillates at eps = 0.01 for longer than max_iter steps.
        matrix = [[0, 0, 1, 2], [0, 0, 3, 1], [1, 1, 0, 0], [2, 1, 0, 0]]
        path = make_run(tmp_path, "eigen", {"matrix": matrix}, max_iter=1000, seed=4)
        assert main(["--config", str(path), "--quiet"]) == 2
        out = tmp_path / "out"
        result = json.loads((out / "result.json").read_text())
        assert "did not settle" in result["error"] and "eps=0.01" in result["error"]
        assert result["seed"] == 4
        assert [eps for eps, _ in result["trace"]] == [0.1]
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,eps_or_k,lambda,residual"
        assert trace[1].startswith("0,0.1,") and trace[1].endswith(",")
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"result.json", "trace.csv"} <= set(manifest["files"])

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
    ])
    def test_malformed_linear_input_names_field(self, tmp_path, capsys, name, bad):
        path = make_run(tmp_path, "radius", {"matrix": [[1.0, 0.5], [0.4, 1.0]], **bad})
        assert main(["--config", str(path), "--quiet"]) == 1
        assert f"config error: input field '{name}' is invalid" in capsys.readouterr().err

    def test_malformed_input_is_validation_error(self, tmp_path, capsys):
        path = make_run(tmp_path, "radius", {"surprise": True})
        assert main(["--config", str(path), "--quiet"]) == 1
