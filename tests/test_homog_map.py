"""Map wrapper contracts: evaluation, perturbation, property checks."""

from __future__ import annotations

import numpy as np
import pytest

from conerad import (
    ConeSpace,
    ConeVector,
    HomogeneousMap,
    NormKind,
    from_callable,
    from_matrix,
    perturb,
    psi_hull,
    radius_bracket,
    u_norm,
    verify_properties,
)
from conerad import homog_map
from conerad.errors import DegenerateBoundError, MapContractError

from conftest import counting_map, trial_draws


def vec(*vals):
    return ConeVector(np.array(vals, dtype=float))


class TestEvaluate:
    def test_matrix_product(self, diag21):
        assert np.array_equal(diag21.raw(np.ones(2)), [2.0, 1.0])

    def test_zero_maps_to_zero(self, diag21, single_cell_model):
        assert not diag21.raw(np.zeros(2)).any()
        assert not single_cell_model.as_map().raw(np.zeros(1)).any()

    def test_bad_evaluator_rejected(self):
        space = ConeSpace(2)
        bad = from_callable(space, lambda x: x - 1.0, name="leaves_cone")
        with pytest.raises(MapContractError):
            bad.raw(np.full(2, 0.5))
        nan = from_callable(space, lambda x: x * np.nan, name="nan")
        with pytest.raises(MapContractError):
            nan.raw(np.ones(2))

    def test_declared_linear_must_match_matrix(self):
        # a matrix map evaluates its matrix; an evaluator beside it is
        # refused rather than trusted
        with pytest.raises(ValueError, match="takes no evaluator"):
            HomogeneousMap(space=ConeSpace(2), evaluator=lambda x: 2 * x, matrix=np.eye(2))


class TestRawContract:
    @pytest.mark.parametrize("bad, message", [
        ([np.nan], "produced NaN/Inf"),
        ([np.inf], "produced NaN/Inf"),
        ([-np.inf], "produced NaN/Inf"),
        ([-0.5], "left the cone"),
        ([-0.5, np.nan], "produced NaN/Inf"),   # NaN/Inf is named first
    ], ids=["nan", "+inf", "-inf", "negative", "negative_and_nan"])
    @pytest.mark.parametrize("shape", [(3,), (3, 4)], ids=["vector", "block"])
    def test_names_the_broken_contract(self, bad, message, shape):
        def evaluator(x):
            out = np.ones_like(x)
            out[:len(bad), ...] = np.array(bad).reshape((-1,) + (1,) * (x.ndim - 1))
            return out

        mp = HomogeneousMap(space=ConeSpace(3), evaluator=evaluator, name="bad")
        with pytest.raises(MapContractError, match=f"^bad: evaluator {message}$"):
            mp.raw(np.ones(shape))

    def test_clean_values_pass(self):
        mp = HomogeneousMap(space=ConeSpace(3), evaluator=lambda x: -0.0 * x)
        assert np.array_equal(mp.raw(np.ones((3, 2))), np.zeros((3, 2)))
        assert mp.raw(np.ones((3, 0))).shape == (3, 0)


class TestLinearEvaluator:
    def test_evaluates_its_frozen_matrix(self):
        # The evaluator once captured the caller's array: a later write to it
        # changed the map but not its matrix.
        a = np.array([[1.0, 0.5], [0.4, 0.5]])
        mp = from_matrix(a)
        a[0, 0] = 50.0
        assert np.array_equal(mp.raw(np.ones(2)), [1.5, 0.9])
        assert np.array_equal(mp.raw(np.ones((2, 3))), mp.matrix @ np.ones((2, 3)))
        est = radius_bracket(mp, ConeVector(np.ones(2)))
        assert est.cw_upper <= (np.ones(2) @ mp.matrix).max()     # largest column sum

    def test_checks_only_a_supplied_evaluator(self):
        # from_matrix and perturb hand over a matrix alone and build; the same
        # matrix product supplied as an evaluator is refused
        mp = from_matrix([[1.0, 0.5], [0.4, 0.5]], name="m")
        pert = perturb(mp, 0.1, vec(1, 2))
        assert pert.matrix is not None
        for frozen in (mp.matrix, pert.matrix):
            assert not frozen.flags.writeable
            with pytest.raises(ValueError):
                frozen[0, 0] = 2.0
        with pytest.raises(ValueError, match="takes no evaluator"):
            HomogeneousMap(space=ConeSpace(2), evaluator=lambda x, _m=mp.matrix: _m @ x,
                           matrix=mp.matrix, name="hand")

    def test_evaluator_agreeing_on_ones_only_rejected(self):
        # x -> reversed x equals the averaging matrix on the all-ones vector;
        # no evaluator is trusted beside a matrix, agreeing or not
        with pytest.raises(ValueError, match="takes no evaluator"):
            HomogeneousMap(space=ConeSpace(2), evaluator=lambda x: x[::-1].copy(),
                           matrix=0.5 * np.ones((2, 2)))

    def test_only_a_linear_map_may_leave_out_its_evaluator(self):
        with pytest.raises(ValueError, match="evaluator"):
            HomogeneousMap(space=ConeSpace(2))


class TestTransposed:
    @pytest.mark.parametrize("space, dual", [
        (ConeSpace(3), ConeSpace(3, NormKind.LINF)),
        (ConeSpace(3, NormKind.LINF), ConeSpace(3)),
        (ConeSpace(3, NormKind.WEIGHTED, [0.5, 2.0, 4.0]),
         ConeSpace(3, NormKind.WEIGHTED, [2.0, 0.5, 0.25])),
    ])
    def test_linear_map_transposes_its_matrix(self, space, dual):
        # the transpose lives on a space whose norm is at least the dual
        # norm, and is the dual norm for L1 and LInf
        a = np.arange(9.0).reshape(3, 3)
        mpt = from_matrix(a, space).transposed()
        assert np.array_equal(mpt.matrix, a.T)
        assert mpt.space.norm_kind is dual.norm_kind
        assert np.array_equal(mpt.space.weights, dual.weights)

    def test_supplied_transpose_built_on_demand(self):
        built = []

        def transpose():
            built.append(1)
            return lambda y: 2.0 * y[::-1]

        mp = HomogeneousMap(space=ConeSpace(2), evaluator=lambda x: 2.0 * x[::-1],
                            transpose=transpose)
        assert not built
        assert np.array_equal(mp.transposed().raw(np.array([1.0, 3.0])), [6.0, 2.0])
        assert built == [1]
        assert from_callable(ConeSpace(2), lambda x: x).transposed() is None
        with pytest.raises(ValueError, match="takes no evaluator"):
            HomogeneousMap(space=ConeSpace(2), matrix=np.eye(2), transpose=transpose)


class TestPerturb:
    def test_zero_map_perturbation(self):
        space = ConeSpace(2)
        zero = from_matrix(np.zeros((2, 2)), space=space)
        pert = perturb(zero, 1.0, vec(1, 0))
        assert np.array_equal(pert.raw(np.array([2.0, 0.0])), [2.0, 0.0])

    def test_increment_is_exactly_eps_psi_u(self, rng):
        space = ConeSpace(3)
        mp = from_matrix(rng.random((3, 3)), space=space)
        u = ConeVector(rng.random(3) + 0.1)
        eps = 0.37
        pert = perturb(mp, eps, u)
        for _ in range(10):
            x = rng.random(3)
            inc = pert.raw(x) - mp.raw(x)
            want = eps * psi_hull(space, x) * u.entries
            assert np.allclose(inc, want, rtol=1e-12, atol=1e-14)

    def test_identity_example(self):
        mp = from_matrix(np.eye(2))
        pert = perturb(mp, 0.5, vec(1, 1))
        assert np.allclose(pert.raw(np.ones(2)), [2.0, 2.0])

    def test_rejects_zero_direction(self, diag21):
        with pytest.raises(DegenerateBoundError):
            perturb(diag21, 1.0, vec(0, 0))

    def test_linear_structure_kept_under_l1(self, diag21):
        pert = perturb(diag21, 0.25, vec(1, 2))
        assert pert.matrix is not None
        assert np.allclose(pert.matrix, np.diag([2.0, 1.0]) + 0.25 * np.outer([1, 2], [1, 1]))

    def test_order_preservation_survives(self, rng):
        mp = from_matrix(rng.random((4, 4)))
        pert = perturb(mp, 0.1, ConeVector(rng.random(4) + 0.1))
        # behind a callable, so the trials sample it instead of certifying it
        sampled, _ = counting_map(pert)
        assert verify_properties(sampled, trials=100, tol=1e-9).ok

    def test_strict_increase_with_paper_rate(self, rng):
        # For x <= y with psi(x) < psi(y) the perturbed map satisfies
        # pert(y) >= (1 + eta) pert(x) with eta = min(delta / (||psi|| |x|),
        # delta / ((c + 1) |x|)), delta = (psi(y) - psi(x)) / 2, c the
        # uniform u-bound constant of the base map.
        space = ConeSpace(3)
        mp = from_matrix(rng.random((3, 3)), space=space)
        u = ConeVector(np.ones(3))
        c = max(u_norm(ConeVector(mp.raw(e)), u) for e in np.eye(3))
        pert = perturb(mp, 1.0, u)
        for _ in range(30):
            x = ConeVector(rng.random(3) + 0.01)
            y = ConeVector(x.entries + np.abs(rng.standard_normal(3)) + 0.01)
            px, py = psi_hull(space, x.entries), psi_hull(space, y.entries)
            assert px < py
            delta = (py - px) / 2.0
            nx = space.norm(x.entries)
            eta = min(delta / nx, delta / ((c + 1.0) * nx))
            lhs = pert.raw(y.entries)
            rhs = (1.0 + eta) * pert.raw(x.entries)
            assert np.all(lhs >= rhs * (1 - 1e-12))

    @pytest.mark.parametrize("base", ["l1_rank_one", "linf", "two_sex"])
    def test_block_takes_psi_per_column(self, rng, gaussian_model, base):
        # The rank-one branch (L1, linear) and the generic branch (LInf norm,
        # nonlinear two-sex map) both add eps * psi(x_j) * u to column j.
        if base == "two_sex":
            mp = gaussian_model.as_map()
        else:
            space = ConeSpace(5, NormKind.L1 if base == "l1_rank_one" else NormKind.LINF)
            mp = from_matrix(rng.random((5, 5)), space=space)
        n = mp.space.dim
        pert = perturb(mp, 0.3, ConeVector(rng.random(n) + 0.1))
        assert (pert.matrix is not None) == (base == "l1_rank_one")
        block = rng.random((n, 6)) * np.array([1.0, 1e3, 0.0, 1e-3, 1.0, 5.0])
        want = np.column_stack([pert.raw(c) for c in block.T])
        assert np.allclose(pert.raw(block), want, rtol=1e-13, atol=0.0)


def quad_map():
    """The map of test_quadratic_flagged: not homogeneous."""
    return from_callable(ConeSpace(2), lambda x: np.array([x[0] ** 2, x[1]]))


def dip_map():
    """The map of test_non_monotone_flagged: not order preserving."""
    return from_callable(ConeSpace(2), lambda x: np.array([max(0.0, x[0] - x[1]), x[1]]))


def reference_properties(mp, trials, tol, seed):
    """verify_properties as one trial at a time: three one-vector
    evaluations per trial, each defect at the trial's own scale."""
    rng = np.random.default_rng(seed)
    n = mp.space.dim
    found = {"homogeneity": [], "monotonicity": []}
    worst = dict.fromkeys(found, 0.0)
    draws = trial_draws(rng, n, trials, 4.0, max(1, homog_map._TRIAL_BLOCK_ENTRIES // n))
    for t, (x, d, alpha) in enumerate(draws):
        x, d = np.abs(x), np.abs(d)
        bx = mp.raw(x)
        scale = max(1.0, float(np.max(np.abs(bx))))
        defect = float(np.max(np.abs(mp.raw(alpha * x) - alpha * bx)))
        defects = {"homogeneity": defect / max(scale * alpha, 1e-300) if alpha > 0 else defect}
        by = mp.raw(x + d)
        defects["monotonicity"] = float(np.max(bx - by)) / scale
        for name, value in defects.items():
            worst[name] = max(worst[name], value)
            if value > tol:
                entry = {"trial": t, "defect": value}
                found[name].append({"trial": t, "alpha": alpha, "defect": value}
                                   if name == "homogeneity" else entry)
    return found, worst


def report_lists(rep):
    return {"homogeneity": rep.homogeneity_violations,
            "monotonicity": rep.monotonicity_violations}


class TestVerifyProperties:
    @pytest.mark.parametrize("make", [quad_map, dip_map])
    @pytest.mark.parametrize("block_entries", [1 << 18, 14])
    def test_block_trials_match_per_trial_loop(self, monkeypatch, make, block_entries):
        # A map made by from_callable sees the same columns either way, so
        # the block run reproduces the per-trial loop exactly, also when the
        # trials are split over several blocks (14 entries: 7 trials each).
        monkeypatch.setattr(homog_map, "_TRIAL_BLOCK_ENTRIES", block_entries)
        mp = make()
        rep = verify_properties(mp, trials=60, tol=1e-9, seed=3)
        found, worst = reference_properties(mp, 60, 1e-9, 3)
        assert report_lists(rep) == found
        assert any(found.values())
        assert rep.max_homogeneity_defect == worst["homogeneity"]
        assert rep.max_monotonicity_defect == worst["monotonicity"]

    def test_two_sex_block_trials_match_per_trial_loop(self, gaussian_model):
        # The two-sex map evaluates a block with matrix products, which round
        # differently from one column at a time: defects agree to 1e-14.
        mp = gaussian_model.as_map()
        rep = verify_properties(mp, trials=40, tol=1e-9, seed=5)
        found, worst = reference_properties(mp, 40, 1e-9, 5)
        assert report_lists(rep) == found == {k: [] for k in found}
        assert rep.max_homogeneity_defect == pytest.approx(worst["homogeneity"], abs=1e-14)
        assert rep.max_monotonicity_defect == pytest.approx(worst["monotonicity"], abs=1e-14)

    def test_linear_map_clean(self, diag21):
        assert verify_properties(diag21, trials=100, tol=1e-10).ok

    def test_quadratic_flagged(self):
        space = ConeSpace(2)
        quad = from_callable(space, lambda x: np.array([x[0] ** 2, x[1]]))
        rep = verify_properties(quad, trials=100, tol=1e-9)
        assert rep.homogeneity_violations

    def test_non_monotone_flagged(self):
        space = ConeSpace(2)

        def dip(x):
            return np.array([max(0.0, x[0] - x[1]), x[1]])

        rep = verify_properties(from_callable(space, dip), trials=200, tol=1e-9)
        assert rep.monotonicity_violations

    def test_three_evaluations_per_trial(self, rng):
        # B(x), B(alpha x) and B(x + d), on a matrix behind a callable, which
        # the trials sample rather than certify
        mp, calls = counting_map(rng.uniform(0.0, 1.0, size=(3, 3)))
        assert verify_properties(mp, trials=25).ok
        assert len(calls) == 3 * 25

    @pytest.mark.parametrize("make", [
        lambda m: from_matrix(m),
        lambda m: perturb(from_matrix(m), 0.1, ConeVector(np.ones(len(m)))),
    ], ids=["matrix", "rank_one_perturbed"])
    def test_matrix_map_certified_without_evaluations(self, monkeypatch, rng, make):
        # The entry check of a finite nonnegative matrix proves homogeneity
        # and order preservation, so no trial runs and no column is evaluated.
        calls = []
        raw = HomogeneousMap.raw
        monkeypatch.setattr(HomogeneousMap, "raw",
                            lambda self, x: calls.append(x) or raw(self, x))
        rep = verify_properties(make(rng.uniform(0.0, 1.0, size=(4, 4))), trials=50, seed=2)
        assert calls == []
        assert rep.ok and rep.trials == 0
        assert rep.max_homogeneity_defect == rep.max_monotonicity_defect == 0.0
        assert rep.to_json()["violations"] == {"homogeneity": 0, "monotonicity": 0}
        with pytest.raises(ValueError, match="trials"):
            verify_properties(from_matrix(np.eye(2)), trials=0)

    def test_two_sex_operator_clean(self, gaussian_model):
        rep = verify_properties(gaussian_model.as_map(), trials=100, tol=1e-9)
        assert rep.ok
