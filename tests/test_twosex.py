"""Two-sex model construction, contracts, and persistence analysis."""

from __future__ import annotations

import numpy as np
import pytest

from conerad import (
    ConeVector,
    MatingFunction,
    MatingKind,
    MigrationKernel,
    SpatialGrid,
    TwoSexModel,
    assess_persistence,
    build_model,
    mating_value,
    radius_bracket,
    simulate,
    step_next_year,
)
from conerad.errors import ConfigError, FieldError, KernelMassError

from conftest import gaussian_config, scale_beta, single_cell_config, two_patch_config


class TestGrid:
    def test_interval_weights_sum_to_measure(self):
        g = SpatialGrid.interval(0.0, 3.0, 12)
        assert g.cell_weights.sum() == pytest.approx(3.0)
        assert g.n_cells == 12

    def test_rectangle_weights(self):
        g = SpatialGrid.rectangle([[0.0, 2.0], [0.0, 1.0]], 4, 5)
        assert g.cell_weights.sum() == pytest.approx(2.0)
        assert g.n_cells == 20


class TestMating:
    def test_harmonic_values(self):
        m = MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.array([1.0]))
        assert mating_value(m, 0, 1.0, 1.0) == 0.5
        assert mating_value(m, 0, 0.0, 0.0) == 0.0

    def test_min_rate_values(self):
        m = MatingFunction(MatingKind.MIN_RATE, beta1=np.array([1.0]),
                           beta2=np.array([1.0]))
        assert mating_value(m, 0, 2.0, 3.0) == 2.0

    def test_psi_field(self):
        m = MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.array([2.0, 4.0]))
        assert np.array_equal(m.psi_field, [1.0, 2.0])

    def test_domination_by_psi(self, rng):
        beta = rng.uniform(0.5, 3.0, size=8)
        m = MatingFunction(MatingKind.HARMONIC_MEAN, beta=beta)
        for _ in range(50):
            f, g = rng.random(8), rng.random(8)
            assert np.all(m.apply(f, g) <= m.psi_field * (f + g) + 1e-14)


class TestBuildModel:
    def test_single_cell_closed_form(self, single_cell_model):
        out = step_next_year(single_cell_model, ConeVector([4.0]))
        assert out.entries[0] == pytest.approx(1.0, abs=1e-15)

    def test_local_columns_integrate_to_survival_times_ratio(self, two_patch_model):
        g = two_patch_model.grid
        for kern, want in ((two_patch_model.k_female, 0.25), (two_patch_model.k_male, 0.25)):
            mass = g.cell_weights @ kern.matrix
            assert np.allclose(mass, want, rtol=1e-14)

    def test_zero_survival_gives_zero_map(self):
        cfg = single_cell_config(s_f=0.0, s_m=0.0)
        model = build_model(cfg)
        assert model.order_bound.is_zero()
        assert step_next_year(model, ConeVector([5.0])).is_zero()
        report = assess_persistence(model)
        assert report.verdict == "extinction"
        assert report.radius.value == 0.0

    def test_gaussian_columns_lose_boundary_mass(self):
        model = build_model(gaussian_config(n_cells=30, sigma=0.15))
        mass = model.grid.cell_weights @ model.k_female.matrix
        assert np.all(mass <= 0.25 + 1e-12)
        assert mass[0] < 0.2  # boundary cell loses dispersing offspring
        assert mass[15] > 0.24

    def test_overfull_kernel_rejected(self):
        cfg = gaussian_config(n_cells=10, sigma=1e-3, s_f=1.0, s_m=0.0, q=1.0)
        with pytest.raises(KernelMassError) as exc:
            build_model(cfg)
        assert exc.value.cell is not None

    def test_strict_config_keys(self):
        cfg = single_cell_config()
        cfg["typo"] = 1
        with pytest.raises(ConfigError):
            build_model(cfg)

    def test_negative_beta_rejected(self):
        cfg = single_cell_config(beta=-1.0)
        with pytest.raises(FieldError):
            build_model(cfg)

    def test_order_bound_is_rowwise_max(self, gaussian_model):
        m = gaussian_model
        psi = m.mating.psi_field
        want = psi * np.max(m.k_female.matrix + m.k_male.matrix, axis=1)
        assert np.allclose(m.order_bound.entries, want, rtol=1e-15)


class TestStepContracts:
    def test_homogeneity(self, gaussian_model, rng):
        f = ConeVector(rng.random(gaussian_model.grid.n_cells))
        one = step_next_year(gaussian_model, f)
        two = step_next_year(gaussian_model, ConeVector(2.0 * f.entries))
        assert np.allclose(two.entries, 2.0 * one.entries, rtol=1e-14)

    def test_zero_input(self, gaussian_model):
        z = ConeVector(np.zeros(gaussian_model.grid.n_cells))
        assert step_next_year(gaussian_model, z).is_zero()

    def test_bound_chain(self, gaussian_model, rng):
        m = gaussian_model
        kf = m.k_female.matrix * m.grid.cell_weights
        km = m.k_male.matrix * m.grid.cell_weights
        psi = m.mating.psi_field
        for _ in range(20):
            f = rng.random(m.grid.n_cells)
            out = step_next_year(m, ConeVector(f)).entries
            mid = psi * (kf @ f + km @ f)
            top = float(m.grid.cell_weights @ f) * m.order_bound.entries
            assert np.all(out <= mid * (1 + 1e-12) + 1e-300)
            assert np.all(mid <= top * (1 + 1e-12) + 1e-300)

    def test_support_disjoint_sexes_cannot_reproduce(self):
        # Females recruit only into the left half, males only into the
        # right half; the mating product then vanishes everywhere.
        n = 10
        grid = SpatialGrid.interval(0.0, 1.0, n)
        h = grid.cell_weights[0]
        left = np.zeros((n, n))
        right = np.zeros((n, n))
        left[: n // 2, :] = 0.4 / (h * (n // 2))
        right[n // 2:, :] = 0.4 / (h * (n // 2))
        model = TwoSexModel(
            grid=grid,
            k_female=MigrationKernel(left, "female"),
            k_male=MigrationKernel(right, "male"),
            mating=MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.full(n, 2.0)),
            order_bound=ConeVector(np.full(n, 2.0 / (h * (n // 2)))),
        )
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = ConeVector(rng.random(n))
            assert step_next_year(model, f).is_zero()


class TestSimulate:
    def test_single_cell_decay(self, single_cell_model):
        traj = simulate(single_cell_model, ConeVector([1.0]), years=20)
        masses = np.exp(traj.log_mass)
        assert masses[-1] == pytest.approx(0.25 ** 20, rel=1e-12)
        assert traj.final_gamma() == pytest.approx(0.25, rel=1e-12)

    def test_zero_start_stays_zero(self, single_cell_model):
        traj = simulate(single_cell_model, ConeVector([0.0]), years=5)
        assert traj.died_at == 0
        assert all(v == -np.inf for v in traj.log_mass)

    def test_eigenvector_start_constant_shape(self, gaussian_model):
        report = assess_persistence(gaussian_model)
        v = report.eigen.vector
        traj = simulate(gaussian_model, v, years=10)
        shapes = np.array(traj.shapes)
        # shape is stored mass-normalized, so an eigenvector start is frozen
        assert np.allclose(shapes[1], shapes[-1], atol=1e-9)
        assert traj.final_gamma() == pytest.approx(report.eigen.lam, rel=1e-7)

    def test_gamma_below_bracket(self, gaussian_model, rng):
        est = radius_bracket(gaussian_model.as_map(), gaussian_model.order_bound,
                             tol=1e-9)
        for _ in range(5):
            f0 = ConeVector(rng.random(gaussian_model.grid.n_cells))
            traj = simulate(gaussian_model, f0, years=40)
            assert traj.final_gamma() <= est.cw_upper * (1 + 1e-3)


class TestPersistence:
    def test_single_cell_extinction(self, single_cell_model):
        assert assess_persistence(single_cell_model).verdict == "extinction"

    def test_beta_scaling_flips_verdict(self):
        base = single_cell_config()
        assert assess_persistence(build_model(scale_beta(base, 8.0))).verdict \
            == "persistence"
        report = assess_persistence(build_model(scale_beta(base, 4.0)), tol=1e-10)
        assert report.verdict == "inconclusive"
        assert report.radius.value == pytest.approx(1.0, abs=1e-9)

    def test_gamma_probes_reported(self, single_cell_model):
        report = assess_persistence(single_cell_model,
                                    f0_probes=[ConeVector([1.0]), ConeVector([3.0])])
        assert len(report.gamma_probes) == 2
        assert report.gamma_probes[0].gamma == pytest.approx(0.25, rel=1e-10)

    def test_rectangle_grid_min_rate_model(self):
        cfg = {
            "grid": {"kind": "rectangle2d", "bounds": [[0.0, 1.0], [0.0, 1.0]],
                     "nx": 6, "ny": 5},
            "dispersal": {"kind": "gaussian", "sigma": 0.2},
            "survival": {"female": 0.6, "male": 0.5},
            "sex_ratio": 0.5,
            "mating": {"kind": "min_rate", "beta1": 3.0, "beta2": 2.5},
        }
        report = assess_persistence(build_model(cfg))
        assert report.radius.converged
        assert report.verdict in {"extinction", "persistence", "inconclusive"}
        assert report.eigen.residual <= 1e-6

    def test_refinement_stability(self):
        # Doubling the grid changes the radius by a small amount for a
        # smooth kernel; successive refinements stay within 5 percent.
        values = []
        for n in (25, 50, 100):
            model = build_model(gaussian_config(n_cells=n, sigma=0.2))
            est = radius_bracket(model.as_map(), model.order_bound, tol=1e-9)
            values.append(est.value)
        for a, b in zip(values, values[1:]):
            assert abs(b - a) <= 0.05 * max(a, b)
