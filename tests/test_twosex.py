"""Two-sex model construction, contracts, and persistence analysis."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from conerad import (
    ConeVector,
    HomogeneousMap,
    MatingFunction,
    MatingKind,
    MigrationKernel,
    SpatialGrid,
    TwoSexModel,
    assess_persistence,
    build_model,
    estimate_eigenfunctional,
    radius_bracket,
    simulate,
    solve_eigenvector_perturbation,
)
from conerad import eigenproblem, twosex
from conerad.errors import (
    ConfigError,
    DegenerateBoundError,
    FieldError,
    InnerIterationError,
    KernelMassError,
    ModelContractError,
)

from conftest import (
    dense_kernel,
    gaussian_config,
    scale_beta,
    single_cell_config,
    two_patch_config,
)


class TestGrid:
    def test_interval_weights_sum_to_measure(self):
        g = SpatialGrid.interval(0.0, 3.0, 12)
        assert g.cell_weights.sum() == pytest.approx(3.0)
        assert g.n_cells == 12

    def test_rectangle_weights(self):
        g = SpatialGrid.rectangle([[0.0, 2.0], [0.0, 1.0]], 4, 5)
        assert g.cell_weights.sum() == pytest.approx(2.0)
        assert g.n_cells == 20
        # the axes are (y, x), slowest first, so x runs fastest over the cells
        xs = 0.0 + (np.arange(4) + 0.5) * 0.5
        ys = 0.0 + (np.arange(5) + 0.5) * 0.2
        (ay, wy), (ax, wx) = g.axes
        assert np.array_equal(ay, ys) and np.array_equal(ax, xs)
        assert np.array_equal(np.multiply.outer(wy, wx).ravel(), g.cell_weights)


class TestMating:
    def test_harmonic_values(self):
        m = MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.array([1.0]))
        assert m.apply(np.array([1.0]), np.array([1.0]))[0] == 0.5
        assert m.apply(np.array([0.0]), np.array([0.0]))[0] == 0.0

    def test_min_rate_values(self):
        m = MatingFunction(MatingKind.MIN_RATE, beta1=np.array([1.0]),
                           beta2=np.array([1.0]))
        assert m.apply(np.array([2.0]), np.array([3.0]))[0] == 2.0

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
        out = single_cell_model.as_map().raw(np.array([4.0]))
        assert out[0] == pytest.approx(1.0, abs=1e-15)

    def test_local_columns_integrate_to_survival_times_ratio(self, two_patch_model):
        g = two_patch_model.grid
        for kern, want in ((two_patch_model.k_female, 0.25), (two_patch_model.k_male, 0.25)):
            mass = g.cell_weights @ dense_kernel(kern)
            assert np.allclose(mass, want, rtol=1e-14)

    def test_zero_survival_gives_zero_map(self):
        cfg = single_cell_config(s_f=0.0, s_m=0.0)
        model = build_model(cfg)
        assert model.order_bound.is_zero()
        assert not model.as_map().raw(np.array([5.0])).any()
        report = assess_persistence(model)
        assert report.verdict == "extinction"
        assert report.radius.value == 0.0

    def test_gaussian_columns_lose_boundary_mass(self):
        model = build_model(gaussian_config(n_cells=30, sigma=0.15))
        mass = model.grid.cell_weights @ dense_kernel(model.k_female)
        assert np.all(mass <= 0.25 + 1e-12)
        assert mass[0] < 0.2  # boundary cell loses dispersing offspring
        assert mass[15] > 0.24

    def test_overfull_kernel_rejected(self):
        cfg = gaussian_config(n_cells=10, sigma=1e-3, s_f=1.0, s_m=0.0, q=1.0)
        with pytest.raises(KernelMassError) as exc:
            build_model(cfg)
        assert exc.value.cell is not None

    def test_overflowing_order_bound_is_degenerate(self):
        # u = psi * (c_f + c_m) * R with psi = beta, c_f + c_m = 0.5 and the
        # local kernel's row maxima R = 1 / width = 100
        cfg = two_patch_config()
        cfg["grid"]["n_cells"] = 200
        m = build_model(cfg)
        mating = MatingFunction("harmonic_mean", beta=np.full(200, 1e308))
        with pytest.raises(DegenerateBoundError, match="order bound"):
            TwoSexModel(grid=m.grid, k_female=m.k_female, k_male=m.k_male, mating=mating)
        cfg["mating"]["beta"] = 1e308
        with pytest.raises(ConfigError, match="field 'mating' is invalid: the order bound"):
            build_model(cfg)

    def test_strict_config_keys(self):
        cfg = single_cell_config()
        cfg["typo"] = 1
        with pytest.raises(ConfigError):
            build_model(cfg)

    def test_negative_beta_rejected(self):
        cfg = single_cell_config(beta=-1.0)
        with pytest.raises(FieldError):
            build_model(cfg)

    @pytest.mark.parametrize("path, value", [
        (("mating", "beta"), [np.float64(b) for b in (1.5, 2.0, 2.5, 3.0)]),
        (("mating", "beta"), np.array([1.5, 2.0, 2.5, 3.0])),
        (("grid", "n_cells"), np.int64(4)),
    ], ids=["float64-list", "ndarray", "int64"])
    def test_numpy_numbers_read_as_plain_ones(self, path, value):
        # library callers pass numpy numbers; the number rule rejects only
        # bools and strings
        plain = gaussian_config(n_cells=4, beta=[1.5, 2.0, 2.5, 3.0])
        want = build_model(plain)
        plain[path[0]][path[1]] = value
        got = build_model(plain)
        assert np.array_equal(got.grid.cell_weights, want.grid.cell_weights)
        assert np.array_equal(got.mating.beta, want.mating.beta)
        assert all(np.array_equal(a, b) for a, b in zip(got.k_female.factors,
                                                        want.k_female.factors))
        assert (got.k_female.scale, got.k_male.scale) == (want.k_female.scale,
                                                          want.k_male.scale)
        assert np.array_equal(got.order_bound.entries, want.order_bound.entries)

    def test_order_bound_is_rowwise_max(self, gaussian_model):
        m = gaussian_model
        psi = m.mating.psi_field
        want = psi * np.max(dense_kernel(m.k_female) + dense_kernel(m.k_male), axis=1)
        assert np.allclose(m.order_bound.entries, want, rtol=1e-15)
        # one shared factor tuple: psi * ((c_f + c_m) R), to the bit, with R
        # the row maxima of the unscaled factor product
        rows = np.max(dense_kernel(MigrationKernel(m.k_female.factors)), axis=1)
        assert np.array_equal(m.order_bound.entries,
                              psi * ((m.k_female.scale + m.k_male.scale) * rows))


GRIDS = {
    "interval": {"kind": "interval1d", "a": 0.0, "b": 1.0, "n_cells": 9},
    # nx != ny and unequal widths, so swapped axes would not match
    "rectangle": {"kind": "rectangle2d", "bounds": [[0.0, 2.0], [-1.0, 0.5]],
                  "nx": 5, "ny": 3},
}


def cell_centers(grid) -> np.ndarray:
    """(n_cells, d) cell centers from the grid's axes: cell i of a rectangle
    is (x[i % nx], y[i // nx])."""
    return np.array(list(itertools.product(*[c for c, _ in grid.axes])))[:, ::-1]


def geometric_kernel(grid, dispersal) -> np.ndarray:
    """The dense, unscaled kernel k(x_i, x_j) built from the cell centers."""
    if dispersal["kind"] == "local":
        return np.diag(1.0 / grid.cell_weights)
    c, sigma = cell_centers(grid), dispersal["sigma"]
    d2 = ((c[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2 * sigma ** 2)) / (2 * np.pi * sigma ** 2) ** (c.shape[1] / 2)


class TestFactoredKernel:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("dispersal", [{"kind": "gaussian", "sigma": 0.4},
                                           {"kind": "local"}])
    def test_matches_dense_reference(self, rng, grid, dispersal):
        cfg = gaussian_config(s_f=0.6, s_m=0.5, q=0.4)
        cfg["grid"], cfg["dispersal"] = GRIDS[grid], dispersal
        model = build_model(cfg)
        g = model.grid
        n, w = g.n_cells, g.cell_weights
        kerns = (model.k_female, model.k_male)
        assert kerns[0].factors is kerns[1].factors
        assert len(kerns[0].factors) == len(g.axes)
        base = geometric_kernel(g, dispersal)
        for kern, c in zip(kerns, (0.6 * 0.4, 0.5 * 0.6)):
            assert np.allclose(dense_kernel(kern), c * base, rtol=1e-13, atol=0.0)
        blocks = (rng.random((n, 4)), np.asfortranarray(rng.random((n, 4))),
                  np.asfortranarray(rng.random((n, n + 3))))  # the last one wide
        for f in (rng.random(n),) + blocks:
            for kern in kerns:
                got = kern.scale * twosex._kron_apply(kern.factors, (w * f.T).T)
                want = dense_kernel(kern) @ (w * f.T).T
                assert got.shape == f.shape
                assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        # the mass check, with the heaviest column put just above and below 1
        unit = twosex.MigrationKernel(kerns[0].factors)
        mass = w @ dense_kernel(unit)
        for above in (True, False):
            kern = twosex.MigrationKernel(unit.factors,
                                          (1.0 + (1e-9 if above else -1e-9)) / mass.max())
            if above:
                with pytest.raises(KernelMassError) as exc:
                    kern.validate_mass(kern.column_mass(g), "female")
                assert mass[exc.value.cell] == pytest.approx(mass.max(), rel=1e-13)
            else:
                kern.validate_mass(kern.column_mass(g), "female")
        psi = model.mating.psi_field
        want = psi * np.max(dense_kernel(kerns[0]) + dense_kernel(kerns[1]), axis=1)
        assert np.allclose(model.order_bound.entries, want, rtol=1e-14, atol=0.0)
        rows = np.max(dense_kernel(unit), axis=1)
        assert np.array_equal(model.order_bound.entries,
                              psi * ((kerns[0].scale + kerns[1].scale) * rows))

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_unshared_order_bound_sums_row_maxima(self, grid):
        # narrow females, wide males: two factor tuples, whose row maxima
        # give u without forming either kernel
        models = []
        for sigma in (0.2, 0.6):
            cfg = gaussian_config(s_f=0.6, s_m=0.5, q=0.4, sigma=sigma)
            cfg["grid"] = GRIDS[grid]
            models.append(build_model(cfg))
        narrow, wide = models
        model = TwoSexModel(narrow.grid, narrow.k_female, wide.k_male, narrow.mating)
        k_f, k_m = model.k_female, model.k_male
        assert k_f.factors is not k_m.factors
        psi = model.mating.psi_field
        rows_f, rows_m = (np.max(dense_kernel(MigrationKernel(k.factors)), axis=1)
                          for k in (k_f, k_m))
        u = model.order_bound.entries
        assert np.array_equal(u, psi * (k_f.scale * rows_f + k_m.scale * rows_m))
        assert np.all(u >= psi * np.max(dense_kernel(k_f) + dense_kernel(k_m), axis=1))

    def test_one_kernel_application_per_evaluation_when_shared(self, rng, monkeypatch):
        calls = []
        real = twosex._kron_apply

        def counting(factors, t):
            calls.append(len(factors))
            return real(factors, t)

        cfg = gaussian_config(s_f=0.6, s_m=0.5)
        cfg["grid"] = GRIDS["rectangle"]
        shared = build_model(cfg)
        # the same kernels as dense, separately held matrices
        distinct = TwoSexModel(
            grid=shared.grid,
            k_female=MigrationKernel(dense_kernel(shared.k_female)),
            k_male=MigrationKernel(dense_kernel(shared.k_male)),
            mating=shared.mating)
        monkeypatch.setattr(twosex, "_kron_apply", counting)
        f = rng.random((15, 3))
        got = shared.as_map().raw(f)
        assert calls == [2]
        calls.clear()
        want = distinct.as_map().raw(f)
        assert calls == [1, 1]
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_shared_factors_take_one_column_mass(self, grid, monkeypatch):
        calls = []
        real = twosex.MigrationKernel.column_mass

        def counting(kern, g):
            calls.append(kern)
            return real(kern, g)

        monkeypatch.setattr(twosex.MigrationKernel, "column_mass", counting)
        cfg = gaussian_config(s_f=0.6, s_m=0.5)
        cfg["grid"] = GRIDS[grid]
        shared = build_model(cfg)
        assert len(calls) == 1 and calls[0] is shared.k_female
        calls.clear()
        distinct = [MigrationKernel(dense_kernel(k)) for k in
                    (shared.k_female, shared.k_male)]
        TwoSexModel(grid=shared.grid, k_female=distinct[0], k_male=distinct[1],
                    mating=shared.mating)
        assert len(calls) == 2 and calls[0] is distinct[0] and calls[1] is distinct[1]
        # the shared mass is still checked at each kernel's own scale, and
        # the error names the kernel by its slot
        w = shared.grid.cell_weights
        peak = float(np.max(w @ dense_kernel(MigrationKernel(shared.k_female.factors))))
        for slot, over in (("female", (2.0, 0.5)), ("male", (0.5, 2.0))):
            k_f, k_m = (MigrationKernel(shared.k_female.factors, c / peak) for c in over)
            assert k_m.factors is k_f.factors
            with pytest.raises(KernelMassError, match=f"^{slot} kernel"):
                TwoSexModel(grid=shared.grid, k_female=k_f, k_male=k_m,
                            mating=shared.mating)

    def test_build_model_memory_is_per_axis(self):
        # 40 x 40 cells: one dense kernel would take 8 * 1600^2 B = 20.5 MB
        def config(sigma):
            cfg = gaussian_config(sigma=sigma)
            cfg["grid"] = {"kind": "rectangle2d", "bounds": [[0.0, 1.0], [0.0, 1.0]],
                           "nx": 40, "ny": 40}
            return cfg

        def unshared():
            # narrow females, wide males: two factor tuples and their order bound
            narrow, wide = build_model(config(0.05)), build_model(config(0.2))
            k_f = MigrationKernel(narrow.k_female.factors, narrow.k_female.scale)
            k_m = MigrationKernel(wide.k_male.factors, wide.k_male.scale)
            return TwoSexModel(narrow.grid, k_f, k_m, narrow.mating)

        per_axis = 8 * (40 * 40 + 40 * 40)
        for make, tuples in ((lambda: build_model(config(0.1)), 1), (unshared, 2)):
            tracemalloc.start()
            try:
                model = make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = {id(fac): fac.nbytes for kern in (model.k_female, model.k_male)
                    for fac in kern.factors}
            assert sum(held.values()) == tuples * per_axis
            assert peak < 16 * per_axis

    def test_large_habitat_bracket_contains_exact_radius(self):
        # 128 x 128 cells, beyond any dense kernel.  With one scalar beta the
        # harmonic-mean map is linear, beta c_f c_m / (c_f + c_m) K W, and
        # K W = (hy Ky) kron (hx Kx) with symmetric factors built here.
        nx = ny = 128
        sigma, beta, s_f, s_m, q = 0.1, 8.0, 0.6, 0.5, 0.5
        cfg = {"grid": {"kind": "rectangle2d", "bounds": [[0.0, 1.0], [0.0, 2.0]],
                        "nx": nx, "ny": ny},
               "dispersal": {"kind": "gaussian", "sigma": sigma},
               "survival": {"female": s_f, "male": s_m},
               "sex_ratio": q,
               "mating": {"kind": "harmonic_mean", "beta": beta}}
        top = []
        for lo, hi, m in ((0.0, 1.0, nx), (0.0, 2.0, ny)):
            h = (hi - lo) / m
            c = lo + (np.arange(m) + 0.5) * h
            d = c[:, None] - c[None, :]
            fac = np.exp(-d * d / (2 * sigma * sigma)) / np.sqrt(2 * np.pi * sigma * sigma)
            top.append(np.linalg.eigvalsh(h * fac)[-1])
        c_f, c_m = s_f * q, s_m * (1 - q)
        exact = beta * c_f * c_m / (c_f + c_m) * top[0] * top[1]
        report = assess_persistence(build_model(cfg))
        assert report.radius.converged
        assert report.radius.cw_lower <= exact <= report.radius.cw_upper


class TestStepContracts:
    def test_homogeneity(self, gaussian_model, rng):
        step = gaussian_model.as_map().raw
        f = rng.random(gaussian_model.grid.n_cells)
        assert np.allclose(step(2.0 * f), 2.0 * step(f), rtol=1e-14)

    def test_zero_input(self, gaussian_model):
        z = np.zeros(gaussian_model.grid.n_cells)
        assert not gaussian_model.as_map().raw(z).any()

    def test_bound_chain(self, gaussian_model, rng):
        m = gaussian_model
        kf = dense_kernel(m.k_female) * m.grid.cell_weights
        km = dense_kernel(m.k_male) * m.grid.cell_weights
        psi = m.mating.psi_field
        step = m.as_map().raw
        for _ in range(20):
            f = rng.random(m.grid.n_cells)
            out = step(f)
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
            k_female=MigrationKernel(left),
            k_male=MigrationKernel(right),
            mating=MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.full(n, 2.0)),
        )
        step = model.as_map().raw
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert not step(rng.random(n)).any()


class TestBlockEvaluation:
    @pytest.mark.parametrize("mating", [
        {"kind": "harmonic_mean", "beta": 2.0},
        {"kind": "min_rate", "beta1": 1.5, "beta2": 2.5},
    ])
    def test_block_equals_columns(self, rng, mating):
        cfg = gaussian_config(n_cells=30)
        cfg["mating"] = mating
        mp = build_model(cfg).as_map()
        block = rng.random((30, 7)) * np.array([1.0, 1e6, 0.0, 1e-6, 1.0, 3.0, 1.0])
        block[:15, 6] = 0.0  # a column with half its cells empty
        got = mp.raw(block)
        want = np.column_stack([mp.raw(c) for c in block.T])
        assert got.shape == block.shape
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert not got[:, 2].any()

    def test_one_bad_column_raises(self):
        # Understate the order bound after construction, where the model no
        # longer checks it: a point mass at the kernel peak then breaks it,
        # a spread-out density does not.
        model = build_model(gaussian_config(n_cells=6))
        u = model.order_bound.entries
        object.__setattr__(model, "order_bound", ConeVector(u / 4.0))
        mp = model.as_map()
        spread = np.full(6, 1e12)
        point = np.zeros(6)
        point[2] = 1.0
        mp.raw(spread)
        with pytest.raises(ModelContractError):
            mp.raw(point)
        # the huge column must not lend its scale to the small one
        with pytest.raises(ModelContractError):
            mp.raw(np.column_stack([spread, point]))


class TestTranspose:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("mating", [
        {"kind": "harmonic_mean", "beta": 2.0},
        {"kind": "min_rate", "beta1": 1.5, "beta2": 2.5},
    ])
    def test_adjoint_identity(self, rng, grid, mating):
        cfg = gaussian_config(s_f=0.6, s_m=0.5, q=0.4)
        cfg["grid"], cfg["mating"] = GRIDS[grid], mating
        cfg["dispersal"] = {"kind": "gaussian", "sigma": 0.4}
        mp = build_model(cfg).as_map()
        mpt = mp.transposed()
        n = mp.space.dim
        x, y = rng.random((n, 6)), rng.random((n, 6))
        left = np.einsum("ij,ij->j", y, mp.raw(x))
        right = np.einsum("ij,ij->j", mpt.raw(y), x)
        assert np.allclose(left, right, rtol=1e-12, atol=0.0)
        assert np.array_equal(mpt.space.weights, 1.0 / mp.space.weights)

    def test_unshared_kernels_take_the_forward_series(self):
        # Kernels that share no factor tuple make the map nonlinear: it has
        # no transpose, and the functional runs a series per probe.
        n = 4
        grid = SpatialGrid.interval(0.0, 1.0, n)
        idx = np.arange(n)
        near = np.exp(-np.abs(idx[:, None] - idx[None, :]))
        k_f = MigrationKernel(near, 0.5)
        k_m = MigrationKernel(near.T @ near, 0.2)
        mating = MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.full(n, 3.0))
        model = TwoSexModel(grid, k_f, k_m, mating)
        assert model.as_map().transposed() is None
        phi = estimate_eigenfunctional(model.as_map(), model.order_bound,
                                       model.order_bound, normalizer_samples=8)
        assert phi.normalizer > 0
        assert phi(model.order_bound) > 0

    def test_transpose_built_only_for_the_functional(self, gaussian_model, monkeypatch):
        def refuse(model):
            raise AssertionError("transpose built")

        monkeypatch.setattr(twosex, "_transposed_step", refuse)
        f0 = ConeVector(np.ones(gaussian_model.grid.n_cells))
        assess_persistence(gaussian_model, f0_probes=[f0])
        simulate(gaussian_model, f0, years=5)
        with pytest.raises(AssertionError, match="transpose built"):
            estimate_eigenfunctional(gaussian_model.as_map(), gaussian_model.order_bound, f0)


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

    def test_chain_bound_takes_the_one_step_max_ratio_at_u(self, gaussian_model, monkeypatch):
        # alpha = u_norm(B(u), u), called by its name in twosex; with alpha
        # halved the certified chain bound must reject the orbit
        m, calls = gaussian_model, []
        u_norm = twosex.u_norm

        def halved(x, u):
            calls.append((x.entries, u.entries))
            return 0.5 * u_norm(x, u)

        monkeypatch.setattr(twosex, "u_norm", halved)
        with pytest.raises(ModelContractError, match="chain bound"):
            simulate(m, m.order_bound, years=5)
        (x, u), = calls
        assert np.array_equal(x, m.as_map().raw(m.order_bound.entries))
        assert u is m.order_bound.entries

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

    @pytest.mark.parametrize("n_cells, sigma, beta", [
        (20, 0.03, 3.0), (40, 0.05, 12.0), (60, 0.1, 12.0)])
    def test_eigenvalue_inside_radius_bracket(self, n_cells, sigma, beta):
        # The eigenpair of B itself, not of a perturbation of B: its value
        # lies in the certified radius bracket, and its own Collatz-Wielandt
        # bracket meets that one.
        report = assess_persistence(build_model(
            gaussian_config(n_cells=n_cells, sigma=sigma, beta=beta)))
        radius, eigen = report.radius, report.eigen
        assert radius.cw_lower <= eigen.lam <= radius.cw_upper
        assert eigen.cw_lower <= eigen.lam <= eigen.cw_upper
        assert max(radius.cw_lower, eigen.cw_lower) <= min(radius.cw_upper, eigen.cw_upper)
        # the bracket started from the eigenvector is as tight as the default tol
        assert radius.converged
        assert radius.cw_upper - radius.cw_lower <= 1e-8 * max(1.0, radius.cw_lower)

    def test_bracket_from_eigenvector_costs_a_few_columns(self, monkeypatch):
        # Started from the eigenvector, the bracket closes on the pair
        # (v, B(v)) the solve already holds, before any probe is evaluated.
        model = build_model(gaussian_config(n_cells=60, sigma=0.05, beta=6.0))
        columns = []
        raw = HomogeneousMap.raw

        def counting(mp, x):
            columns.append(x.shape[1] if x.ndim == 2 else 1)
            return raw(mp, x)

        monkeypatch.setattr(HomogeneousMap, "raw", counting)
        solve_eigenvector_perturbation(model.as_map(), model.order_bound)
        alone = sum(columns)
        columns.clear()
        report = assess_persistence(model)
        assert report.radius.converged and report.radius.iterations == 1
        assert sum(columns) == alone

    @pytest.mark.parametrize("scale, verdict", [(1.0, "extinction"), (2.0, "persistence")])
    def test_local_dispersal_distinct_beta(self, scale, verdict):
        # Local dispersal makes the map diagonal, B(f)_i = c_i f_i with
        # c_i = beta_i s_f q s_m (1 - q) / (s_f q + s_m (1 - q)) = beta_i / 8
        # here: the radius is max c_i, and the eigenvector is the unit vector
        # of that cell, so the solved one has near-zero entries elsewhere.
        beta = [scale * b for b in np.linspace(1.0, 6.0, 30)]
        cfg = gaussian_config(n_cells=30, beta=beta)
        cfg["dispersal"] = {"kind": "local"}
        report = assess_persistence(build_model(cfg))
        exact = max(beta) / 8.0
        v = report.eigen.vector.entries
        assert v.min() < 1e-6 * v.max()
        assert report.radius.converged
        assert report.radius.cw_lower <= exact <= report.radius.cw_upper
        assert report.verdict == verdict

    def test_unsettled_eigen_stage_keeps_the_verdict(self, monkeypatch):
        # A stalled eigen stage costs the eigenpair, not the verdict: the
        # bracket then starts from the order bound, and the report names
        # the error.
        model = build_model(scale_beta(gaussian_config(n_cells=20), 12.0))
        want = assess_persistence(model)
        assert want.error is None and "error" not in want.to_json()

        def stall(mp, u, *args, **kwargs):
            raise InnerIterationError("inner iteration did not settle within 3 steps")

        monkeypatch.setattr(eigenproblem, "solve_eigenvector_perturbation", stall)
        report = assess_persistence(model)
        assert report.eigen is None
        assert report.verdict == want.verdict == "persistence"
        assert report.radius.converged
        assert report.radius.cw_lower <= want.radius.value <= report.radius.cw_upper
        out = report.to_json()
        assert out["eigen"] is None
        assert out["error"] == ("InnerIterationError: "
                                "inner iteration did not settle within 3 steps")

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
