"""Eigenvector and eigenfunctional solver behavior."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerad import (
    ConeSpace,
    ConeVector,
    EigenMode,
    HomogeneousMap,
    MigrationKernel,
    NormKind,
    TwoSexModel,
    build_model,
    estimate_eigenfunctional,
    from_callable,
    from_matrix,
    perturb,
    psi_hull,
    radius_bracket,
    resolvent_series,
    solve_eigenvector_perturbation,
    solve_subeigenvector_min,
)
from conerad.errors import (
    DegenerateBoundError,
    DimensionError,
    InnerIterationError,
    SpectralDomainError,
    ZeroLimitError,
)

from conerad import eigenproblem
from conerad.eigenproblem import _certify, _psi_normalize
from conerad.homog_map import unit_cone_probes
from conerad.oracle import linear_radius_exact

from conftest import counting_map, gaussian_config


def vec(*vals):
    return ConeVector(np.array(vals, dtype=float))


ONES2 = ConeVector(np.ones(2))


def plain_stage(mp, u, inner_tol, max_inner=20000):
    """solve_eigenvector_perturbation's stage without mixing, every iterate
    normalized by psi_hull: c = psi(B(u_hat)) and eps = 2^-52 c / psi(u),
    then plain steps w = normalize(B_eps(v) + c v) from u_hat until
    ||w - v|| < inner_tol.  Returns (vector, lam, residual, trace)."""
    space = mp.space
    v = u.entries / psi_hull(space, u.entries)
    c = psi_hull(space, mp.raw(v))
    eps = 2.0 ** -52 * c / psi_hull(space, u.entries)
    pert = perturb(mp, eps, u)
    for _ in range(max_inner):
        w = pert.raw(v) + c * v
        w = w / psi_hull(space, w)
        if space.norm(w - v) < inner_tol:
            v = w
            break
        v = w
    else:
        raise InnerIterationError(f"no settling within {max_inner} steps")
    bv = mp.raw(v)
    lam = psi_hull(space, bv)
    return v, lam, space.norm(bv - lam * v), [(eps, lam)]


def block_triangular(rng, n=8):
    m = np.zeros((n, n))
    h = n // 2
    m[:h, :h] = rng.uniform(0.05, 1.0, size=(h, h))
    m[h:, h:] = 0.8 * rng.uniform(0.05, 1.0, size=(n - h, n - h))
    m[:h, h:] = rng.uniform(0.0, 1.0, size=(h, n - h))
    return m


def upper_triangular(rng, n=8, second=0.7):
    """Spectrum 1, second, then entries in [0.1, 0.5]."""
    m = np.triu(rng.uniform(0.05, 1.0, size=(n, n)), 1)
    m[np.diag_indices(n)] = np.linspace(0.5, 0.1, n)
    m[0, 0], m[n - 1, n - 1] = 1.0, second
    return m


def sparse_upper_triangular(rng, n, gap):
    """About 10% of the upper entries and of the diagonal nonzero; the two
    largest diagonal entries, hence eigenvalues, are top and gap * top."""
    m = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.1))
    top = rng.uniform(0.5, 1.0)
    diag = rng.uniform(0.0, gap * top, size=n) * (rng.random(n) < 0.1)
    i, j = rng.choice(n, size=2, replace=False)
    diag[i], diag[j] = top, gap * top
    m[np.diag_indices(n)] = diag
    return m


def perron_vector(m):
    vals, vecs = np.linalg.eig(m)
    p = np.abs(vecs[:, np.argmax(vals.real)].real)
    return p / p.sum()


def continuation_case(case, rng, gaussian_model):
    if case == "two_sex":
        return gaussian_model.as_map()
    if case == "block_triangular":
        return from_matrix(block_triangular(rng))
    if case == "upper_triangular":
        return from_matrix(upper_triangular(rng))
    n = 7
    space = {"l1": ConeSpace(n), "linf": ConeSpace(n, NormKind.LINF),
             "weighted": ConeSpace(n, NormKind.WEIGHTED, rng.uniform(0.5, 2.0, n))}[case]
    return from_matrix(rng.uniform(0.05, 1.0, size=(n, n)), space=space)


class TestContinuationReference:
    @pytest.mark.parametrize("case", ["l1", "linf", "weighted", "two_sex",
                                      "block_triangular", "upper_triangular"])
    def test_agrees_with_plain_loop(self, rng, gaussian_model, case):
        mp = continuation_case(case, rng, gaussian_model)
        u = ConeVector(rng.uniform(0.5, 1.5, mp.space.dim))
        res = solve_eigenvector_perturbation(mp, u)
        v, lam, _, trace = plain_stage(mp, u, 1e-13)
        assert mp.space.norm(res.vector.entries - v) <= 1e-11
        assert res.lam == pytest.approx(lam, rel=1e-12, abs=0)
        assert [e for e, _ in res.trace] == [e for e, _ in trace]

    def test_block_triangular_perron_vector(self, rng):
        # The Perron vector of B itself vanishes on the lower block; the eps
        # term moves the solver's vector by rounding level only.
        m = block_triangular(rng)
        res = solve_eigenvector_perturbation(from_matrix(m), ConeVector(np.ones(8)))
        assert np.abs(res.vector.entries - perron_vector(m)).sum() <= 1e-11

    def test_half_the_evaluations_of_the_plain_loop(self, gaussian_model):
        mp = gaussian_model.as_map()
        u = ConeVector(np.ones(mp.space.dim))
        solver_map, solver_calls = counting_map(mp)
        plain_map, plain_calls = counting_map(mp)
        solve_eigenvector_perturbation(solver_map, u)
        plain_stage(plain_map, u, 1e-13)
        assert 2 * len(solver_calls) <= len(plain_calls)

    def test_rotating_mode_does_not_jump(self, rng):
        # 0.7 I + 0.3 P with P the 20-cycle: the slowest error modes are the
        # pair 0.7 + 0.3 exp(+-2 pi i / 20), which turns the step at a
        # constant ratio (the shift c I keeps it turning).  Mixing must remove
        # it as the plain loop does, in no more evaluations.
        n = 20
        m = 0.7 * np.eye(n) + 0.3 * np.roll(np.eye(n), 1, axis=0)
        u = ConeVector(rng.uniform(0.5, 1.5, n))
        solver_map, solver_calls = counting_map(m)
        plain_map, plain_calls = counting_map(m)
        res = solve_eigenvector_perturbation(solver_map, u)
        v, lam, _, _ = plain_stage(plain_map, u, 1e-13)
        assert np.abs(res.vector.entries - v).sum() <= 1e-11
        assert res.lam == pytest.approx(lam, rel=1e-12, abs=0)
        assert len(solver_calls) <= len(plain_calls)

    @pytest.mark.parametrize("period", [2, 3, 5, 8, 12])
    def test_block_cyclic_settles(self, rng, period):
        # B has `period` eigenvalues on its spectral circle, so plain steps
        # on B rotate forever; on B + c I only r + c is on the circle.
        k = 3
        m = np.zeros((period * k, period * k))
        for i in range(period):
            j = (i + 1) % period
            m[j * k:(j + 1) * k, i * k:(i + 1) * k] = rng.uniform(0.1, 1.0, size=(k, k))
        res = solve_eigenvector_perturbation(
            from_matrix(m), ConeVector(rng.uniform(0.5, 1.5, period * k)))
        assert res.mode is EigenMode.EXACT
        assert res.residual <= 1e-12 * res.lam
        assert np.abs(res.vector.entries - perron_vector(m)).sum() <= 1e-11
        ref = linear_radius_exact(m)
        assert res.cw_lower - ref.accuracy <= ref.value <= res.cw_upper + ref.accuracy

    def test_huge_weights_match_plain_loop(self, rng):
        # Iterates of norm 1 have entries near 1e-200: the step ratio must
        # neither underflow nor divide by zero.
        space = ConeSpace(8, NormKind.WEIGHTED, np.full(8, 1e200))
        mp = from_matrix(block_triangular(rng), space=space)
        u = ConeVector(np.full(8, 1e-200))
        res = solve_eigenvector_perturbation(mp, u)
        v, lam, _, _ = plain_stage(mp, u, 1e-13)
        assert space.norm(res.vector.entries - v) <= 1e-11
        assert res.lam == pytest.approx(lam, rel=1e-12, abs=0)

    def test_nonlinear_map_reaches_plain_fixed_point(self, rng):
        n = 8
        a, b = block_triangular(rng, n), block_triangular(rng, n)
        mp = from_callable(ConeSpace(n), lambda x: np.minimum(a @ x, b @ x + 0.1 * x))
        u = ConeVector(np.ones(n))
        solver_map, solver_calls = counting_map(mp)
        plain_map, plain_calls = counting_map(mp)
        res = solve_eigenvector_perturbation(solver_map, u)
        v, _, _, _ = plain_stage(plain_map, u, 1e-13)
        assert np.abs(res.vector.entries - v).sum() <= 1e-11
        assert len(solver_calls) < len(plain_calls)

    @pytest.mark.parametrize("second", [0.99, 0.999])
    def test_near_defective_pair_settles(self, rng, second):
        # Two top eigenvalues 1 and `second` of a non-normal matrix: the step
        # ratio drifts near 1, where an extrapolation that overshoots the mode
        # it removes can keep the stage from ever settling.
        # A last step below inner_tol leaves an error of about
        # inner_tol / (1 - second), with or without mixing.
        m = upper_triangular(rng, n=5, second=second)
        u = ConeVector(np.ones(5))
        solver_map, solver_calls = counting_map(m)
        res = solve_eigenvector_perturbation(solver_map, u)
        assert np.abs(res.vector.entries - perron_vector(m)).sum() <= 2e-13 / (1.0 - second)
        # plain steps do not settle in ten times the solver's evaluations
        with pytest.raises(InnerIterationError):
            plain_stage(from_matrix(m), u, 1e-13, max_inner=10 * len(solver_calls))

    @pytest.mark.parametrize("mating", [
        {"kind": "harmonic_mean", "beta": 6.0},
        {"kind": "min_rate", "beta1": 6.0, "beta2": 5.0},
    ], ids=["harmonic_mean", "min_rate"])
    def test_unshared_two_sex_map_settles(self, mating):
        # Females disperse with sigma 0.05, males with 0.2: the kernels share
        # no factor tuple, so the map is not additive.  Mixing needs only
        # its values, and settles in fewer evaluations than plain steps.
        n = 200
        models = []
        for sigma in (0.05, 0.2):
            cfg = gaussian_config(n_cells=n, sigma=sigma)
            cfg["mating"] = mating
            models.append(build_model(cfg))
        narrow, wide = models
        k_f = MigrationKernel(narrow.k_female.factors, narrow.k_female.scale)
        k_m = MigrationKernel(wide.k_male.factors, wide.k_male.scale)
        model = TwoSexModel(grid=narrow.grid, k_female=k_f, k_male=k_m,
                            mating=narrow.mating)
        mp = model.as_map()
        f, g = np.ones(n), np.linspace(0.1, 1.0, n)
        additivity = np.abs(mp.raw(f + g) - mp.raw(f) - mp.raw(g)).max()
        assert additivity > 1e-6 * np.abs(mp.raw(f + g)).max()
        solver_map, solver_calls = counting_map(mp)
        plain_map, plain_calls = counting_map(mp)
        res = solve_eigenvector_perturbation(solver_map, model.order_bound)
        plain_stage(plain_map, model.order_bound, 1e-13)
        assert res.mode is EigenMode.EXACT
        assert res.residual <= 1e-12
        assert res.cw_lower <= res.lam <= res.cw_upper
        assert len(solver_calls) < len(plain_calls)

    def test_reducible_maps_reach_the_perron_vector(self, rng):
        # A sparse upper-triangular matrix has a nonnegative eigenvector for
        # several diagonal entries.  Mixing that minimizes the residual alone
        # settles on one of the smaller ones in about one matrix in eighty;
        # the coarse phase keeps the Perron part until the fine phase.
        for _ in range(80):
            m = sparse_upper_triangular(rng, int(rng.integers(50, 71)), rng.uniform(0.5, 0.9))
            res = solve_eigenvector_perturbation(from_matrix(m), ConeVector(np.ones(len(m))))
            assert res.lam == pytest.approx(np.diag(m).max(), rel=1e-9)

    def test_zero_vector_not_normalized(self):
        with pytest.raises(DegenerateBoundError, match="zero vector"):
            _psi_normalize(ConeSpace(3), np.zeros(3))


class TestPerturbationSolver:
    def test_diagonal_converges_to_dominant_ray(self, diag21):
        res = solve_eigenvector_perturbation(diag21, ONES2)
        assert res.lam == pytest.approx(2.0, abs=1e-12)
        assert res.vector.entries[0] == pytest.approx(1.0, abs=1e-12)
        assert res.vector.entries[1] == pytest.approx(0.0, abs=1e-12)
        assert res.residual <= 1e-12

    def test_start_vector_evaluated_once(self):
        # B(u_hat) gives c, eps and the first step B_eps(u_hat); the second
        # evaluation is already at the next iterate
        mp, calls = counting_map(np.diag([2.0, 1.0]))
        solve_eigenvector_perturbation(mp, ONES2)
        assert np.array_equal(calls[0], [0.5, 0.5])
        assert not np.array_equal(calls[1], [0.5, 0.5])

    def test_steps_count_the_map_evaluations(self, rng):
        mp, calls = counting_map(rng.uniform(0.05, 1.0, size=(12, 12)))
        res = solve_eigenvector_perturbation(mp, ConeVector(np.ones(12)))
        assert res.steps == len(calls) > 2
        assert res.to_json()["steps"] == res.steps
        # the last evaluation is B(v) at the returned vector, kept as its image
        assert np.array_equal(calls[-1], res.vector.entries)
        assert np.array_equal(res.image, mp.raw(res.vector.entries))

    def test_patchy_habitat_settles(self, monkeypatch):
        # beta = 20 on 3 of every 20 cells and 0.5 elsewhere, sigma = 0.02:
        # the patches are nearly decoupled, so the top of the spectrum is a
        # cluster of 4 moduli within 1e-8 of each other.  Plain steps (and
        # one-mode extrapolation) crawl there; mixing settles.
        beta = [20.0 if i % 20 < 3 else 0.5 for i in range(100)]
        model = build_model(gaussian_config(n_cells=100, sigma=0.02, beta=beta))
        columns = []
        raw = HomogeneousMap.raw

        def counting(mp, x):
            columns.append(x.shape[1] if x.ndim == 2 else 1)
            return raw(mp, x)

        monkeypatch.setattr(HomogeneousMap, "raw", counting)
        res = solve_eigenvector_perturbation(model.as_map(), model.order_bound,
                                             max_inner=1000)
        assert sum(columns) <= 1000
        assert res.residual <= 1e-12
        assert res.cw_lower <= res.lam <= res.cw_upper

    def test_scaled_identity(self):
        res = solve_eigenvector_perturbation(from_matrix(3.0 * np.eye(2)), ONES2)
        assert res.lam == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(res.vector.entries, [0.5, 0.5], atol=1e-12)
        # c = psi(B(u / psi(u))) = 3 and eps = 2^-52 c / psi(u)
        assert res.trace == [(2.0 ** -52 * 1.5, res.lam)]

    @pytest.mark.parametrize("case", ["l1", "linf", "weighted"])
    def test_lambda_inside_own_bracket(self, rng, gaussian_model, case):
        mp = continuation_case(case, rng, gaussian_model)
        res = solve_eigenvector_perturbation(mp, ConeVector(np.ones(mp.space.dim)))
        assert res.cw_lower <= res.lam <= res.cw_upper
        assert res.cw_upper - res.cw_lower <= 1e-11 * res.lam
        ref = linear_radius_exact(mp.matrix)
        assert res.cw_lower - ref.accuracy <= ref.value <= res.cw_upper + ref.accuracy
        json = res.to_json()
        assert (json["cw_lower"], json["cw_upper"]) == (res.cw_lower, res.cw_upper)

    def test_two_patch_uniform_eigenvector(self, two_patch_model):
        res = solve_eigenvector_perturbation(two_patch_model.as_map(), ONES2)
        assert res.lam == pytest.approx(0.25, abs=1e-9)
        assert res.vector.entries[0] == pytest.approx(res.vector.entries[1], rel=1e-9)

    def test_matches_bracket_value(self, rng):
        mp = from_matrix(rng.uniform(0.1, 1.0, size=(6, 6)))
        u = ConeVector(np.ones(6))
        res = solve_eigenvector_perturbation(mp, u)
        est = radius_bracket(mp, u, tol=1e-10)
        assert res.lam == pytest.approx(est.value, abs=1e-8)

    def test_zero_map_degenerate_result(self):
        res = solve_eigenvector_perturbation(from_matrix(np.zeros((2, 2))), ONES2)
        assert res.lam == 0.0
        assert res.mode is EigenMode.SUB_EIGEN
        assert (res.cw_lower, res.cw_upper, res.trace) == (0.0, 0.0, [])

    def test_requires_strictly_positive_direction(self, diag21):
        with pytest.raises(DegenerateBoundError):
            solve_eigenvector_perturbation(diag21, vec(1, 0))

    def test_direction_whose_norm_overflows_is_degenerate(self):
        # u / psi(u) would be the zero vector, read as a map that kills the cone
        mp = from_matrix([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(DegenerateBoundError, match="overflows"):
            solve_eigenvector_perturbation(mp, vec(1e308, 1e308))

    @pytest.mark.parametrize("inner_tol", [0.0, -1e-13])
    def test_rejects_nonpositive_inner_tol(self, diag21, inner_tol):
        with pytest.raises(ValueError, match="inner_tol"):
            solve_eigenvector_perturbation(diag21, ONES2, inner_tol=inner_tol)

    def test_perturbed_fixed_point_independent_of_start(self, rng):
        # For fixed eps the normalized fixed point is unique: iterations
        # from unrelated starts agree to machine precision.
        mp = from_matrix(rng.uniform(0.1, 1.0, size=(4, 4)))
        pert = perturb(mp, 0.5, ConeVector(np.ones(4)))
        limits = []
        for _ in range(5):
            v = np.abs(rng.standard_normal(4)) + 0.01
            v /= v.sum()
            for _ in range(400):
                w = pert.raw(v)
                v = w / w.sum()
            limits.append(v)
        for lim in limits[1:]:
            assert np.allclose(lim, limits[0], atol=1e-13)

    def test_inner_iteration_budget_exhausted(self, rng):
        mp = from_matrix(rng.uniform(0.1, 1.0, size=(5, 5)))
        with pytest.raises(InnerIterationError, match="within 1 steps"):
            solve_eigenvector_perturbation(mp, ConeVector(np.ones(5)),
                                           inner_tol=1e-15, max_inner=1)

    def test_underflowing_eps_is_a_degenerate_bound(self):
        # eps = 2^-52 * psi(B(u_hat)) / psi(u) is below the smallest subnormal
        mp = from_matrix(np.full((3, 3), 1e-310))
        with pytest.raises(DegenerateBoundError, match="underflows"):
            solve_eigenvector_perturbation(mp, ConeVector(np.ones(3)))


def certify_case(kind, n, norm, seed):
    """A matrix of one class, a cone space with the given norm and a random
    strictly positive u, all drawn from one seed."""
    rng = np.random.default_rng(seed)
    if kind == "positive":
        m = rng.uniform(0.05, 1.0, size=(n, n))
    elif kind == "sparse":
        # about three nonzeros per row and none empty: usually reducible
        m = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 3.0 / n)
        m[np.arange(n), rng.integers(0, n, size=n)] += rng.uniform(0.1, 1.0, size=n)
    elif kind == "upper_triangular":
        m = sparse_upper_triangular(rng, n, rng.uniform(0.3, 0.9))
    else:   # block-cyclic of period 2 or 3
        period = 2 + n % 2
        b = max(1, n // period)
        n = b * period
        m = np.zeros((n, n))
        for i in range(period):
            j = (i + 1) % period
            m[i * b:(i + 1) * b, j * b:(j + 1) * b] = rng.uniform(0.05, 1.0, size=(b, b))
    space = {"l1": ConeSpace(n), "linf": ConeSpace(n, NormKind.LINF),
             "weighted": ConeSpace(n, NormKind.WEIGHTED, rng.uniform(0.2, 5.0, n))}[norm]
    return from_matrix(m, space=space), ConeVector(rng.uniform(0.5, 2.0, n))


class TestCertify:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(kind=st.sampled_from(["positive", "sparse", "upper_triangular", "block_cyclic"]),
           n=st.integers(2, 12), norm=st.sampled_from(["l1", "linf", "weighted"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bracket_contains_the_radius(self, kind, n, norm, seed):
        mp, u = certify_case(kind, n, norm, seed)
        bracket, _, _, _ = _certify(mp, u, tol=1e-10, max_iter=10000)
        ref = linear_radius_exact(mp.matrix)
        assert bracket.cw_lower <= ref.value + ref.accuracy
        assert ref.value - ref.accuracy <= bracket.cw_upper

    def test_starts_from_the_solved_eigenvector(self, rng):
        mp = from_matrix(upper_triangular(rng))
        u = ConeVector(np.ones(8))
        bracket, eigen, error, start = _certify(mp, u, tol=1e-10, max_iter=10000)
        assert (start, error) == ("eigenvector", None)
        solved = solve_eigenvector_perturbation(mp, u, max_inner=10000)
        assert np.array_equal(eigen.vector.entries, solved.vector.entries)
        assert bracket == radius_bracket(mp, solved.vector, 1e-10, 10000, _image=solved.image)
        assert bracket.converged
        assert bracket.iterations < radius_bracket(mp, u, 1e-10, 10000).iterations

    def test_underflowing_stage_falls_back_to_u(self):
        mp, u = from_matrix(np.full((3, 3), 1e-310)), ConeVector(np.ones(3))
        bracket, eigen, error, start = _certify(mp, u, 1e-8, 100)
        assert (start, eigen) == ("u", None)
        assert error.startswith("DegenerateBoundError: ")
        assert bracket == radius_bracket(mp, u, 1e-8, 100)


def reducible_case(seed):
    """A sparse nonnegative matrix, upper-triangular for odd seeds, of size
    5 to 40 with density 0.05 to 0.5, on an L1 (seed % 4 < 2) or weighted
    space, and a random strictly positive u."""
    rng = np.random.default_rng([2026, seed])
    n = int(rng.integers(5, 41))
    m = rng.uniform(0.0, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.5))
    if seed % 2:
        m = np.triu(m)
    space = (ConeSpace(n) if seed % 4 < 2
             else ConeSpace(n, NormKind.WEIGHTED, rng.uniform(0.2, 5.0, n)))
    return from_matrix(m, space=space), ConeVector(rng.uniform(0.5, 2.0, n))


class TestNoda:
    def test_reducible_corpus_closes(self):
        # Before the Noda stage, 9 of these 200 brackets (seeds 17, 33, 71,
        # 89, 91, 113, 115, 187 and 192) stopped at the 2000-iteration cap:
        # the Anderson stage ended near a non-Perron eigenvector.
        for seed in range(200):
            mp, u = reducible_case(seed)
            bracket, eigen, _, start = _certify(mp, u, tol=1e-8, max_iter=2000)
            ref = linear_radius_exact(mp.matrix)
            assert (bracket.converged, start) == (True, "eigenvector"), seed
            assert eigen.solves > 0
            assert bracket.cw_lower <= ref.value + ref.accuracy, seed
            assert ref.value - ref.accuracy <= bracket.cw_upper, seed

    @pytest.mark.parametrize("norm", ["l1", "weighted"])
    def test_small_l1_type_matrix_takes_noda(self, rng, norm):
        n = eigenproblem._NODA_MAX_DIM
        space = (ConeSpace(n) if norm == "l1"
                 else ConeSpace(n, NormKind.WEIGHTED, rng.uniform(0.5, 2.0, n)))
        mp = from_matrix(rng.uniform(0.05, 1.0, size=(n, n)), space=space)
        res = solve_eigenvector_perturbation(mp, ConeVector(np.ones(n)))
        assert res.solves > 0
        assert res.to_json()["solves"] == res.solves
        # B(u_hat), one evaluation per solve and the final B(v)
        assert res.steps == res.solves + 2
        assert res.mode is EigenMode.EXACT
        ref = linear_radius_exact(mp.matrix)
        assert res.cw_lower - ref.accuracy <= ref.value <= res.cw_upper + ref.accuracy

    def test_other_maps_take_the_anderson_stage(self, rng):
        small, large = eigenproblem._NODA_MAX_DIM, eigenproblem._NODA_MAX_DIM + 1
        m = rng.uniform(0.05, 1.0, size=(small, small))
        maps = [
            from_matrix(m, space=ConeSpace(small, NormKind.LINF)),  # B_eps holds no matrix
            from_matrix(rng.uniform(0.05, 1.0, size=(large, large))),
            from_callable(ConeSpace(small), lambda x: m @ x),
        ]
        for mp in maps:
            res = solve_eigenvector_perturbation(mp, ConeVector(np.ones(mp.space.dim)))
            assert res.solves == 0
            assert res.mode is EigenMode.EXACT

    def test_solves_count_against_the_budget(self, rng):
        mp = from_matrix(rng.uniform(0.1, 1.0, size=(5, 5)))
        assert solve_eigenvector_perturbation(mp, ConeVector(np.ones(5))).solves > 1
        with pytest.raises(InnerIterationError, match="within 1 steps"):
            solve_eigenvector_perturbation(mp, ConeVector(np.ones(5)), max_inner=1)

    def test_failed_first_solve_falls_back(self, rng, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        mp, u = from_matrix(rng.uniform(0.1, 1.0, size=(6, 6))), ConeVector(np.ones(6))
        monkeypatch.setattr(eigenproblem, "_NODA_MAX_DIM", 0)
        anderson = solve_eigenvector_perturbation(mp, u)
        monkeypatch.setattr(eigenproblem, "_NODA_MAX_DIM", 6)
        monkeypatch.setattr(np.linalg, "solve", singular)
        res = solve_eigenvector_perturbation(mp, u)
        assert np.array_equal(res.vector.entries, anderson.vector.entries)
        assert (res.steps, res.solves) == (anderson.steps, 1)

    def test_reaches_the_perron_pair_of_a_reducible_map(self):
        # An upper-triangular n = 8 matrix whose diagonal, hence spectrum,
        # holds 0.8486 (the radius) and 0.8350: the Anderson stage, run on
        # it, settles on the eigenvector of 0.8350 with mode exact.  Noda's
        # shifts stay above the radius, so the iterates stay on the Perron
        # vector.
        rng = np.random.default_rng([1500, 465])
        n = int(rng.integers(2, 41))
        m = np.triu(rng.uniform(0.0, 1.0, (n, n))
                    * (rng.random((n, n)) < rng.uniform(0.05, 1.0)))
        res = solve_eigenvector_perturbation(from_matrix(m),
                                             ConeVector(rng.uniform(0.5, 2.0, n)))
        assert res.solves > 0
        assert res.lam == pytest.approx(np.diag(m).max(), rel=1e-11)
        assert np.diag(m).max() == pytest.approx(0.8486, abs=1e-4)


class TestMinIteration:
    def test_diagonal_sub_eigenvector(self, diag21):
        res = solve_subeigenvector_min(diag21, ONES2, r_est=2.0)
        v = res.vector.entries
        assert v[0] > 0.9 and v[1] < 1e-10
        bv = diag21.matrix @ v
        assert np.all(bv >= (2.0 - 1e-8) * v)

    def test_overestimate_collapses(self, diag21):
        with pytest.raises(ZeroLimitError):
            solve_subeigenvector_min(diag21, ONES2, r_est=4.0)

    def test_identity_fixed_point(self):
        res = solve_subeigenvector_min(from_matrix(np.eye(2)), ONES2, r_est=1.0)
        assert np.allclose(res.vector.entries / res.vector.entries.max(), [1.0, 1.0])
        assert res.residual <= 1e-12

    def test_sequence_decreasing(self, diag21):
        res = solve_subeigenvector_min(diag21, ONES2, r_est=2.0)
        psis = [p for _, p in res.trace]
        for a, b in zip(psis, psis[1:]):
            assert b <= a * (1 + 1e-12)

    def test_not_u_bounded_rejected(self, swap):
        with pytest.raises(DegenerateBoundError):
            solve_subeigenvector_min(swap, vec(1, 0), r_est=1.0)


class TestEigenfunctional:
    def test_diagonal_projects_on_dominant_coordinate(self, diag21):
        # R_lam(x) = (x1/(lam-2), x2/(lam-1)); as lam walks down to 2 the
        # first coordinate dominates, so phi becomes proportional to x1 and
        # phi(Bx) = 2 phi(x) up to O(lam - 2).
        phi = estimate_eigenfunctional(
            diag21, ONES2, ONES2,
            lam=2.01, trunc_tol=1e-8,
            normalizer_samples=4)
        v1 = phi(vec(1, 0))
        v2 = phi(vec(0, 1))
        assert v1 > 0
        assert v2 <= 1.2e-2 * v1   # ratio (lam-2)/(lam-1) at lam = 2.01
        x = vec(0.3, 1.7)
        bx = ConeVector(diag21.matrix @ x.entries)
        assert phi(bx) == pytest.approx(2.0 * phi(x), rel=4e-2)

    def test_identity_map_linear_functional(self):
        # For the identity the functional is proportional to x* . x and is
        # preserved by the map.
        mp = from_matrix(np.eye(2))
        phi = estimate_eigenfunctional(mp, ONES2, ONES2,
                                       lam=1.5, trunc_tol=1e-12)
        x, y = vec(0.2, 0.7), vec(1.5, 0.4)
        assert phi(x) / phi(y) == pytest.approx(0.9 / 1.9, rel=1e-9)
        assert phi(x) == pytest.approx(phi(x), rel=0)  # deterministic evaluator

    def test_functional_positive_on_order_bound(self, rng):
        for _ in range(5):
            mp = from_matrix(rng.uniform(0.1, 1.0, size=(4, 4)))
            u = ConeVector(np.ones(4))
            phi = estimate_eigenfunctional(mp, u, ConeVector(rng.random(4) + 0.1))
            assert phi(u) > 0

    def test_homogeneous_and_monotone(self, rng):
        mp = from_matrix(rng.uniform(0.1, 1.0, size=(4, 4)))
        u = ConeVector(np.ones(4))
        phi = estimate_eigenfunctional(mp, u, u)
        for _ in range(20):
            x = np.abs(rng.standard_normal(4))
            d = np.abs(rng.standard_normal(4))
            alpha = float(rng.uniform(0.1, 5.0))
            fx = phi(ConeVector(x))
            assert abs(phi(ConeVector(alpha * x)) - alpha * fx) <= 1e-9 * max(1.0, alpha * fx)
            assert fx <= phi(ConeVector(x + d)) + 1e-9

    def test_one_resolvent_series_per_probe(self, rng):
        # n basis probes and the sampled ones set the normalizer; the first
        # n + 8 of them reuse those values in the defect pass, which adds one
        # map call on those probes and the series at their images B(p).  At
        # lambda = 1e12 every series stops after one map column, so the
        # columns left after the certified bracket (eigen stage included)
        # and the B(p) call count the series.
        n, samples = 3, 16
        mat = rng.uniform(0.1, 1.0, size=(n, n))
        u = ConeVector(np.ones(n))
        bracket_map, bracket_calls = counting_map(mat)
        _certify(bracket_map, u, tol=1e-10, max_iter=10000)
        mp, calls = counting_map(mat)
        estimate_eigenfunctional(mp, u, u, lam=1e12, trunc_tol=1e-6,
                                 normalizer_samples=samples)
        series = len(calls) - len(bracket_calls) - (n + 8)
        assert series == n + samples + (n + 8)

    def test_function_of_one_vector(self, rng):
        # from_callable feeds a block to its function one column at a time,
        # so a function that only takes (n,) vectors still gets a functional.
        # It takes the forward series per probe, from_matrix the one series
        # on B^T; both match y = (lam I - B^T)^-1 x* on the same probes.
        mat = rng.uniform(0.1, 1.0, size=(4, 4))

        def fn(x):
            if x.shape != (4,):
                raise ValueError(f"one vector only, got shape {x.shape}")
            return mat @ x

        u = ConeVector(np.ones(4))
        xstar = ConeVector(rng.random(4) + 0.1)
        for space in (ConeSpace(4), ConeSpace(4, NormKind.LINF),
                      ConeSpace(4, NormKind.WEIGHTED, rng.uniform(0.2, 3.0, 4))):
            mp = from_callable(space, fn)
            block = rng.random((4, 5))
            assert np.array_equal(mp.raw(block), np.column_stack([fn(c) for c in block.T]))
            assert mp.transposed() is None and from_matrix(mat, space).transposed() is not None
            probes = unit_cone_probes(space, 256, np.random.default_rng(0))
            head = probes[:, :12]
            for est in (estimate_eigenfunctional(mp, u, xstar),
                        estimate_eigenfunctional(from_matrix(mat, space), u, xstar)):
                y = np.linalg.solve(est.lambda_used * np.eye(4) - mat.T, xstar.entries)
                values = y @ probes
                norm = values.max()
                defect = np.abs((y @ (mat @ head) - est.radius_used * values[:12]) / norm).max()
                assert est.normalizer == pytest.approx(norm, rel=1e-9)
                assert est.defect_max == pytest.approx(defect, rel=1e-9)
                assert est(u) == pytest.approx(y.sum() / norm, rel=1e-9)

    def test_evaluator_rejects_wrong_length(self):
        mat = np.array([[1.0, 0.5], [0.4, 0.5]])
        for mp in (from_matrix(mat), counting_map(mat)[0]):
            phi = estimate_eigenfunctional(mp, ONES2, ONES2)
            with pytest.raises(DimensionError):
                phi(ConeVector(np.ones(3)))

    def test_one_series_on_the_transpose(self, rng, monkeypatch):
        # A LINEAR map pays the radius bracket, one series on B^T and the
        # n + 8 images B(p) of the defect pass; a series per probe would take
        # tens of thousands of columns.
        columns = []
        raw = HomogeneousMap.raw

        def counted(mp, x):
            columns.append(x.shape[1] if x.ndim == 2 else 1)
            return raw(mp, x)

        monkeypatch.setattr(HomogeneousMap, "raw", counted)
        n = 20
        mp = from_matrix(rng.uniform(0.05, 1.0, size=(n, n)))
        u = ConeVector(np.ones(n))
        est = estimate_eigenfunctional(mp, u, u)
        total = sum(columns)
        columns.clear()
        radius_bracket(mp, u, tol=1e-10, max_iter=10000)
        bracket = sum(columns)
        series = resolvent_series(mp.transposed(), est.lambda_used, u.entries[:, None]).terms
        assert total <= bracket + series + n + 8

    def test_lam_below_radius_rejected(self, diag21):
        with pytest.raises(SpectralDomainError):
            estimate_eigenfunctional(diag21, ONES2, ONES2, lam=1.5)

