"""Brute-force validator behavior and cross-method agreement."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conerad import ConeVector, brute_force_bracket, from_matrix, linear_radius_exact
from conerad.errors import DimensionError


class TestLinearRadius:
    def test_diagonal(self):
        assert linear_radius_exact([[2.0, 0.0], [0.0, 1.0]]).value \
            == pytest.approx(2.0, abs=1e-10)

    def test_permutation_roots(self):
        assert linear_radius_exact([[0.0, 1.0], [1.0, 0.0]]).value \
            == pytest.approx(1.0, abs=1e-10)

    def test_rank_one(self):
        assert linear_radius_exact([[1.0, 1.0], [1.0, 1.0]]).value \
            == pytest.approx(2.0, abs=1e-10)

    def test_zero_and_nilpotent(self):
        assert linear_radius_exact(np.zeros((3, 3))).value == 0.0
        assert linear_radius_exact([[0.0, 1.0], [0.0, 0.0]]).value \
            == pytest.approx(0.0, abs=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linear_radius_exact(np.ones((2, 3)))

    def test_methods_by_dimension(self):
        assert linear_radius_exact(np.eye(3)).method == "charpoly"
        rep = linear_radius_exact(np.eye(7))
        assert rep.method == "long_power_iteration"
        assert rep.certificate["irreducible"] is False

    def test_sparse_graph_library_loaded_on_first_use(self):
        # The CLI starts without scipy.sparse; the 6x6 reducible oracle path
        # imports it when it first splits a matrix into components.
        code = (
            "import sys, numpy as np, conerad.cli\n"
            "assert 'scipy.sparse' not in sys.modules\n"
            "from conerad import linear_radius_exact\n"
            "m = np.zeros((6, 6)); m[:3, :3] = 1.0; m[3:, 3:] = 0.5; m[:3, 3:] = 2.0\n"
            "rep = linear_radius_exact(m)\n"
            "print(rep.value, rep.certificate['component_sizes'])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        value, sizes = out.stdout.split(" ", 1)
        assert float(value) == pytest.approx(3.0, rel=1e-8)
        assert sizes.strip() == "[3, 3]"

    def test_charpoly_vs_power_iteration(self, rng):
        # Methods are independent; force both on the same matrix by padding
        # a 3x3 block into a larger reducible one.
        for _ in range(25):
            block = rng.uniform(0.1, 1.0, size=(3, 3))
            small = linear_radius_exact(block).value
            big = np.zeros((6, 6))
            big[:3, :3] = block
            large = linear_radius_exact(big).value
            assert large == pytest.approx(small, rel=1e-7)

    def test_agrees_with_numpy_on_random_draws(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 30))
            density = rng.uniform(0.3, 1.0)
            mat = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < density)
            want = float(np.max(np.abs(np.linalg.eigvals(mat))))
            rep = linear_radius_exact(mat)
            assert rep.value == pytest.approx(want, rel=1e-7, abs=1e-9)


class TestBruteForceBracket:
    def test_diagonal_vertex_witness(self):
        rep = brute_force_bracket(from_matrix(np.diag([2.0, 1.0])), grid_points_per_axis=20)
        lo, hi = rep.certificate["bracket"]
        assert lo == pytest.approx(2.0, rel=1e-12)
        assert hi == pytest.approx(2.0, rel=1e-2)

    def test_identity(self):
        rep = brute_force_bracket(from_matrix(np.eye(3)), grid_points_per_axis=10)
        lo, hi = rep.certificate["bracket"]
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_two_patch_model(self, two_patch_model):
        rep = brute_force_bracket(two_patch_model.as_map(), grid_points_per_axis=30)
        lo, hi = rep.certificate["bracket"]
        assert lo <= 0.25 <= hi
        assert hi - lo <= 0.05

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            brute_force_bracket(from_matrix(np.eye(4)))

    def test_contains_module_bracket_midpoint(self, rng):
        from conerad import radius_bracket
        for _ in range(5):
            mat = rng.uniform(0.1, 1.0, size=(3, 3))
            mp = from_matrix(mat)
            rep = brute_force_bracket(mp, grid_points_per_axis=40)
            lo, hi = rep.certificate["bracket"]
            est = radius_bracket(mp, ConeVector(np.ones(3)), tol=1e-9)
            assert lo * (1 - 1e-9) <= est.value <= hi * (1 + 1e-9)
