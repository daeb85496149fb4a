"""Radius estimators: power quotient, CW bounds, bracket, left resolvent."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conerad import (
    ConeVector,
    build_model,
    cw_lower,
    cw_upper,
    from_callable,
    from_matrix,
    linear_radius_exact,
    radius_bracket,
    radius_power_quotient,
    resolvent_apply,
)
from conerad.errors import DegenerateBoundError, SpectralDomainError, TruncationError

from conftest import counting_map, scale_beta, two_patch_config


def vec(*vals):
    return ConeVector(np.array(vals, dtype=float))


ONES2 = ConeVector(np.ones(2))


class TestPowerQuotient:
    def test_dominant_diagonal(self, diag21):
        est = radius_power_quotient(diag21, ONES2, tol=1e-9)
        assert est.converged
        assert est.value == pytest.approx(2.0, abs=2e-9)

    def test_isometric_orbit(self, swap):
        est = radius_power_quotient(swap, ONES2, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_patch_quarter(self, two_patch_model):
        est = radius_power_quotient(two_patch_model.as_map(), ONES2, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(0.25, abs=1e-10)

    def test_orbit_death_returns_zero(self):
        est = radius_power_quotient(from_matrix([[0.0, 1.0], [0.0, 0.0]]), ONES2)
        assert est.converged and est.value == 0.0
        assert est.cw_lower == 0.0 and est.cw_upper == 0.0

    def test_zero_start_rejected(self, diag21):
        with pytest.raises(DegenerateBoundError):
            radius_power_quotient(diag21, vec(0, 0))

    def test_trace_recorded(self, diag21):
        est = radius_power_quotient(diag21, ONES2, tol=1e-9)
        assert len(est.log_norm_trace) == est.iterations


class TestCwBounds:
    def test_upper_diagonal(self, diag21):
        assert cw_upper(diag21, ONES2, 1) == pytest.approx(2.0, abs=1e-15)
        assert cw_upper(diag21, ONES2, 4) == pytest.approx(2.0, rel=1e-14)

    def test_upper_identity(self):
        for k in (1, 2, 5):
            assert cw_upper(from_matrix(np.eye(3)), ConeVector(np.ones(3)), k) \
                == pytest.approx(1.0, abs=1e-15)

    def test_upper_support_escape_is_vacuous(self, swap):
        assert cw_upper(swap, vec(1, 0), 1) == float("inf")

    def test_lower_eigenvector_and_uniform(self, diag21):
        assert cw_lower(diag21, vec(1, 0), 1) == 2.0
        assert cw_lower(diag21, ONES2, 1) == 1.0

    def test_lower_vacuous_on_dead_orbit(self):
        nilpotent = from_matrix([[0.0, 1.0], [0.0, 0.0]])
        assert cw_lower(nilpotent, ONES2, 2) == 0.0

    def test_bounds_sandwich_radius(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            mat = rng.uniform(0.05, 1.0, size=(n, n))
            mp = from_matrix(mat)
            u = ConeVector(np.ones(n))
            r = linear_radius_exact(mat).value
            for k in (1, 2, 3):
                assert cw_lower(mp, u, k) <= r * (1 + 1e-12)
                assert cw_upper(mp, u, k) >= r * (1 - 1e-12)


class TestRadiusBracket:
    def test_diagonal_collapses(self, diag21):
        est = radius_bracket(diag21, ONES2, tol=1e-12)
        assert est.converged
        assert est.cw_lower == pytest.approx(2.0, abs=1e-12)
        assert est.cw_upper == pytest.approx(2.0, abs=1e-12)

    def test_random_positive_contains_oracle(self, rng):
        for _ in range(10):
            mat = rng.uniform(0.05, 1.0, size=(10, 10))
            rep = linear_radius_exact(mat)
            est = radius_bracket(from_matrix(mat), ConeVector(np.ones(10)), tol=1e-8)
            assert est.converged
            assert est.width() <= 1e-6 * max(1.0, est.value)
            assert est.cw_lower <= rep.value + rep.accuracy
            assert rep.value - rep.accuracy <= est.cw_upper

    def test_two_patch_bracket(self, two_patch_model):
        est = radius_bracket(two_patch_model.as_map(), ONES2, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(0.25, abs=1e-10)

    def test_two_evaluations_per_iteration_on_positive_matrix(self, rng):
        # B(y) is evaluated once, as the untruncated lower probe, and the
        # next power step reuses it; the regularized upper probe is the
        # other evaluation.  The 1 is B(u) for the first step.
        mp, calls = counting_map(rng.uniform(0.5, 1.0, size=(6, 6)))
        est = radius_bracket(mp, ConeVector(np.ones(6)), tol=1e-14, max_iter=6)
        assert est.iterations == 6
        assert len(calls) == 1 + 2 * est.iterations

    def test_requires_strictly_positive_start(self, diag21):
        with pytest.raises(DegenerateBoundError):
            radius_bracket(diag21, vec(1, 0))

    def test_unconverged_run_is_honest(self, rng):
        # With a tiny iteration budget the estimate must say so while the
        # partial bracket stays valid.
        mat = rng.uniform(0.05, 1.0, size=(12, 12))
        est = radius_bracket(from_matrix(mat), ConeVector(np.ones(12)),
                             tol=1e-14, max_iter=3)
        assert not est.converged
        r = linear_radius_exact(mat).value
        assert est.cw_lower <= r <= est.cw_upper

    def test_underflowed_upper_probes_are_skipped(self):
        # After about 1070 iterations sigma * u_hat underflows to 0, and the
        # regularized probes of this reducible matrix get zero entries.  Such
        # a probe certifies nothing, so it is skipped: no division by zero,
        # and the bracket is the one the run had before the underflow.
        mat = np.array([
            [1, .344, 0, .572, 0, 0, 0, .457], [0, 0, .844, .555, 0, 0, .889, 0],
            [0, 0, 0, 0, 0, 0, .967, 0], [0, 0, 0, .284, 0, 0, 0, .075],
            [0, 0, 0, 0, .7, .04, .343, 0], [0] * 8, [0, 0, 0, 0, 0, 0, .224, 0], [0] * 8])
        u = ConeVector(np.ones(8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            long = radius_bracket(from_matrix(mat), u, max_iter=1080)
        short = radius_bracket(from_matrix(mat), u, max_iter=1040)
        assert long.iterations == 1080
        assert long.bound_trace[:1040] == short.bound_trace
        assert long.bound_trace[-1] == short.bound_trace[-1]
        assert (long.cw_lower, long.cw_upper) == (short.cw_lower, short.cw_upper)

    def test_scaling_law(self, rng):
        mat = rng.uniform(0.1, 1.0, size=(6, 6))
        u = ConeVector(np.ones(6))
        base = radius_bracket(from_matrix(mat), u, tol=1e-10).value
        for alpha in (0.5, 2.0, 10.0):
            scaled = radius_bracket(from_matrix(alpha * mat), u, tol=1e-10).value
            assert scaled == pytest.approx(alpha * base, rel=1e-10)

    def test_power_law(self, rng):
        mat = rng.uniform(0.1, 1.0, size=(6, 6))
        u = ConeVector(np.ones(6))
        base = radius_bracket(from_matrix(mat), u, tol=1e-11).value
        for m in (2, 3):
            est = radius_bracket(from_matrix(np.linalg.matrix_power(mat, m)), u, tol=1e-11)
            assert est.value == pytest.approx(base ** m, rel=1e-8)

    def test_monotone_in_the_map(self, rng):
        for _ in range(10):
            a = rng.uniform(0.05, 1.0, size=(5, 5))
            b = a + rng.uniform(0.0, 0.5, size=(5, 5))
            u = ConeVector(np.ones(5))
            ra = radius_bracket(from_matrix(a), u, tol=1e-9)
            rb = radius_bracket(from_matrix(b), u, tol=1e-9)
            assert ra.value <= rb.value + 1e-8
            assert ra.cw_upper >= ra.value

    def test_beta_scaling_monotone_two_sex(self):
        lo = build_model(scale_beta(two_patch_config(), 1.0))
        hi = build_model(scale_beta(two_patch_config(), 1.5))
        rl = radius_bracket(lo.as_map(), ONES2, tol=1e-10).value
        rh = radius_bracket(hi.as_map(), ONES2, tol=1e-10).value
        assert rl <= rh + 1e-8
        assert rh == pytest.approx(1.5 * rl, rel=1e-9)


class TestResolvent:
    def test_diagonal_geometric_series(self, diag21):
        res = resolvent_apply(diag21, 4.0, vec(1, 0), trunc_tol=1e-12)
        assert res.vector.entries[0] == pytest.approx(0.5, abs=1e-11)
        assert res.vector.entries[1] == 0.0

    def test_identity_map(self):
        mp = from_matrix(np.eye(2))
        res = resolvent_apply(mp, 2.0, vec(1, 1), trunc_tol=1e-12)
        assert np.allclose(res.vector.entries, [1.0, 1.0], atol=1e-11)

    def test_left_resolvent_identity_instance(self, diag21):
        e1 = vec(1, 0)
        lhs = resolvent_apply(diag21, 4.0, ConeVector(diag21.matrix @ e1.entries),
                              trunc_tol=1e-12).vector.entries
        rhs = 4.0 * resolvent_apply(diag21, 4.0, e1, trunc_tol=1e-12).vector.entries \
            - e1.entries
        assert np.allclose(lhs, rhs, atol=1e-11)
        assert np.allclose(rhs, [1.0, 0.0], atol=1e-10)

    def test_identity_on_random_maps(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            mat = rng.uniform(0.05, 1.0, size=(n, n))
            mat /= linear_radius_exact(mat).value  # radius 1
            mp = from_matrix(mat)
            lam = float(rng.uniform(1.1, 3.0))
            x = ConeVector(np.abs(rng.standard_normal(n)))
            tol = 1e-10
            lhs = resolvent_apply(mp, lam, ConeVector(mat @ x.entries), trunc_tol=tol)
            rhs = lam * resolvent_apply(mp, lam, x, trunc_tol=tol).vector.entries - x.entries
            assert mp.space.norm(lhs.vector.entries - rhs) <= 10 * tol

    def test_lambda_below_radius_rejected(self, diag21):
        with pytest.raises(SpectralDomainError):
            resolvent_apply(diag21, 1.5, ONES2)

    def test_max_terms_exceeded(self, diag21):
        with pytest.raises(TruncationError) as exc:
            resolvent_apply(diag21, 2.0 + 1e-9, ONES2, trunc_tol=1e-10, max_terms=50)
        assert exc.value.partial is not None
        assert exc.value.partial.terms == 50

    def test_blowup_as_lambda_decreases(self, rng):
        # x* . R_lam(x) grows strictly as lam walks down toward the radius,
        # for a linear map and for a superadditive nonlinear one.
        from conerad import ConeSpace

        mat = rng.uniform(0.1, 1.0, size=(5, 5))
        linear = from_matrix(mat)

        def concave(x):
            m = np.min(x)
            return np.array([x[0] + m, x[1] + m])

        super_add = from_callable(ConeSpace(2), concave)
        for mp, r in ((linear, linear_radius_exact(mat).value),
                      (super_add, 2.0)):
            n = mp.space.dim
            x = ConeVector(np.ones(n))
            xstar = np.ones(n)
            lams = [r * (1 + d) for d in (0.5, 0.2, 0.05, 0.01, 1e-3)]
            vals = [float(xstar @ resolvent_apply(mp, lam, x, trunc_tol=1e-12).vector.entries)
                    for lam in lams]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[-1] > 100 * vals[0]


class TestOtherNormsAndScales:
    def test_radius_is_norm_independent(self, rng):
        from conerad import ConeSpace
        mat = rng.uniform(0.1, 1.0, size=(4, 4))
        want = linear_radius_exact(mat).value
        u = ConeVector(np.ones(4))
        for space in (ConeSpace(4, "linf"),
                      ConeSpace(4, "weighted", rng.uniform(0.5, 2.0, 4))):
            est = radius_bracket(from_matrix(mat, space=space), u, tol=1e-10)
            assert est.converged
            assert est.value == pytest.approx(want, rel=1e-8)

    def test_extreme_scales(self, rng):
        for scale in (1e8, 1e-8):
            mat = rng.uniform(0.1, 1.0, size=(6, 6)) * scale
            want = linear_radius_exact(mat).value
            est = radius_bracket(from_matrix(mat), ConeVector(np.ones(6)), tol=1e-10)
            assert est.converged
            assert abs(est.value - want) <= 1e-10 * max(1.0, want)
            assert est.cw_lower <= want * (1 + 1e-12)
            assert want * (1 - 1e-12) <= est.cw_upper

    def test_dimension_one(self):
        est = radius_bracket(from_matrix([[0.7]]), ConeVector([1.0]), tol=1e-12)
        assert est.value == pytest.approx(0.7, abs=1e-12)


class TestNonlinearMaps:
    def test_bracket_on_superadditive_map(self):
        # x -> (x1 + min(x1, x2), x2) is homogeneous, order preserving,
        # superadditive-free nonlinearity with radius 2 on the diagonal ray.
        space = ConeVector(np.ones(2))

        def f(x):
            return np.array([x[0] + min(x[0], x[1]), x[1] + min(x[0], x[1])])

        from conerad import ConeSpace
        mp = from_callable(ConeSpace(2), f)
        est = radius_bracket(mp, space, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(2.0, abs=1e-9)
