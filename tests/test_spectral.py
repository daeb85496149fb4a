"""Radius estimation: CW bounds, the certified bracket, the left resolvent."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conerad import (
    ConeVector,
    build_model,
    estimate_eigenfunctional,
    from_callable,
    from_matrix,
    linear_radius_exact,
    radius_bracket,
    resolvent_series,
)
from conerad.errors import (
    DegenerateBoundError,
    MapContractError,
    SpectralDomainError,
    TruncationError,
)
from conerad.spectral import _cw_ratios

from conftest import counting_map, gaussian_config, scale_beta, two_patch_config


def vec(*vals):
    return ConeVector(np.array(vals, dtype=float))


ONES2 = ConeVector(np.ones(2))


class TestCwRatios:
    def test_matches_definition(self, rng):
        # lower: min z/x over supp x, or 0 unless z > 0 there;
        # upper: max z/x, or +inf unless x > 0 (an overflow is +inf too)
        for _ in range(40):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            x = rng.uniform(0.0, 1.0, size=(n, k)) * (rng.random((n, k)) < 0.7)
            x[rng.integers(n), :] = rng.uniform(0.5, 1.0, size=k)   # nonzero columns
            x[:, 0] = np.where(x[:, 0] > 0, 1e-310, 0.0)            # overflowing ratios
            z = rng.uniform(0.0, 2.0, size=(n, k)) * (rng.random((n, k)) < 0.7)
            z[:, -1] = 0.0                                           # a zero image
            lower, upper = _cw_ratios(x, z)
            for j in range(k):
                sup = [i for i in range(n) if x[i, j] > 0]
                ratios = [float(z[i, j]) / float(x[i, j]) for i in sup]
                want_lo = min(ratios) if all(z[i, j] > 0 for i in sup) else 0.0
                want_hi = max(ratios) if len(sup) == n else math.inf
                assert lower[j] == want_lo and upper[j] == want_hi
            # an image column broadcasts against every probe column
            lo1, hi1 = _cw_ratios(x, z[:, :1])
            lok, hik = _cw_ratios(x, np.repeat(z[:, :1], k, axis=1))
            assert np.array_equal(lo1, lok) and np.array_equal(hi1, hik)


def reference_bracket(mp, iterations):
    """The bracket iteration of radius_bracket from u = 1, written out with
    two ratio blocks per step: the stored iterates against y, then the
    probes against their images.  Returns the bound and log-norm traces."""
    space, n = mp.space, mp.space.dim
    u_hat = np.ones(n) / space.norm(np.ones(n))
    y = u_hat.copy()
    z = mp.raw(y)
    hist, logs, bounds = [y], [], []
    best_lower, best_upper = 0.0, math.inf
    for k in range(1, iterations + 1):
        nz = space.norm(z)
        if nz == 0.0:
            break
        logs.append(math.log(nz))
        y = z / nz
        hist = (hist + [y])[-9:]
        old = hist[:-1]
        lower, upper = _cw_ratios(np.stack(old).T, y[:, None])
        for lo, hi, m in zip(lower, upper, range(len(old), 0, -1)):
            d = math.fsum(logs[-m:])
            if lo > 0.0:
                best_lower = max(best_lower, math.exp((d + math.log(lo)) / m))
            if hi < math.inf:
                best_upper = min(best_upper, math.exp((d + math.log(hi)) / m))
        mx = float(np.max(y))
        masks = {}
        for theta in (0.0, 1e-2, 1e-5, 1e-8, 1e-11):
            mask = y >= theta * mx
            masks.setdefault(int(np.count_nonzero(mask)), mask)
        probes = [np.where(mask, y, 0.0) for mask in masks.values()]
        shift = 2.0 ** (-k) * u_hat
        if shift.min() >= np.finfo(float).tiny:
            probes += [xr for x in probes if ((xr := x + shift) != x).any()]
        images = [mp.raw(x) for x in probes]
        lower, upper = _cw_ratios(np.stack(probes).T, np.stack(images).T)
        best_lower = max(best_lower, float(lower.max()))
        best_upper = min(best_upper, float(upper.min()))
        z = images[0]
        bounds.append((best_lower, best_upper))
    return bounds, logs


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def matrix_of_class(rng, kind: str, n: int) -> np.ndarray:
    if kind == "positive":
        return rng.uniform(0.05, 1.0, size=(n, n))
    if kind == "upper_triangular":
        mat = np.triu(rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.4), 1)
        return mat + np.diag(rng.uniform(0.1, 1.0, size=n))
    h = n // 2
    mat = np.zeros((n, n))
    if kind == "block_triangular":
        mat[:h, :h] = rng.uniform(0.05, 1.0, size=(h, h))
        mat[h:, h:] = rng.uniform(0.05, 1.0, size=(n - h, n - h))
        mat[:h, h:] = rng.uniform(0.0, 1.0, size=(h, n - h)) * (rng.random((h, n - h)) < 0.3)
    else:   # block_cyclic, period 2
        mat[:h, h:] = rng.uniform(0.05, 1.0, size=(h, n - h))
        mat[h:, :h] = rng.uniform(0.05, 1.0, size=(n - h, h))
    return mat


class TestBracketReference:
    @pytest.mark.parametrize("kind", ["positive", "block_triangular", "block_cyclic",
                                      "upper_triangular"])
    def test_traces_match_reference_bitwise(self, kind):
        rng = np.random.default_rng(17)
        mats = [matrix_of_class(rng, kind, int(rng.integers(3, 16))) for _ in range(4)]
        if kind == "upper_triangular":
            # its upper bound stalls, so the run passes iteration 1022, where
            # the shift 2^-k u_hat stops being a normal float
            mats.append(np.array([[0.992, 0, 0.378, 0, 0], [0, 0, 0.153, 0, 0],
                                  [0, 0, 1, 0, 0], [0, 0, 0, 0.684, 0], [0, 0, 0, 0, 0]]))
        for mat in mats:
            mp = from_matrix(mat)
            est = radius_bracket(mp, ConeVector(np.ones(mat.shape[0])), tol=1e-10,
                                 max_iter=1100)
            bounds, logs = reference_bracket(mp, est.iterations)
            assert len(bounds) == len(est.bound_trace) > 0
            assert bits(est.bound_trace) == bits(bounds)
            assert bits(est.log_norm_trace) == bits(logs)


def one_step_bounds(mp, u: ConeVector) -> tuple[float, float]:
    """The Collatz-Wielandt ratios of (u, B(u)) that the bracket and the eigen
    stage take: the upper one is the least alpha with B(u) <= alpha u."""
    lower, upper = _cw_ratios(u.entries[:, None], mp.raw(u.entries)[:, None])
    return float(lower[0]), float(upper[0])


class TestCwBounds:
    def test_upper_diagonal(self, diag21):
        assert one_step_bounds(diag21, ONES2)[1] == pytest.approx(2.0, abs=1e-15)

    def test_upper_identity(self):
        assert one_step_bounds(from_matrix(np.eye(3)), ConeVector(np.ones(3)))[1] \
            == pytest.approx(1.0, abs=1e-15)

    def test_upper_support_escape_is_vacuous(self, swap):
        assert one_step_bounds(swap, vec(1, 0))[1] == float("inf")

    def test_upper_vacuous_unless_u_positive(self):
        # B u = u at u = (1, 0), but the radius is 5: a max ratio bounds the
        # radius only from a strictly positive u
        diag15 = from_matrix(np.diag([1.0, 5.0]))
        assert one_step_bounds(diag15, vec(1, 0))[1] == float("inf")
        assert one_step_bounds(diag15, ONES2)[1] == pytest.approx(5.0, abs=1e-15)

    def test_bounds_sandwich_radius(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            mat = rng.uniform(0.05, 1.0, size=(n, n))
            lo, hi = one_step_bounds(from_matrix(mat), ConeVector(np.ones(n)))
            r = linear_radius_exact(mat).value
            assert lo <= r * (1 + 1e-12) and hi >= r * (1 - 1e-12)


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
            assert est.cw_upper - est.cw_lower <= 1e-6 * max(1.0, est.value)
            assert est.cw_lower <= rep.value + rep.accuracy
            assert rep.value - rep.accuracy <= est.cw_upper

    def test_two_patch_bracket(self, two_patch_model):
        est = radius_bracket(two_patch_model.as_map(), ONES2, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(0.25, abs=1e-10)

    def test_isometric_orbit(self, swap):
        est = radius_bracket(swap, ONES2, tol=1e-10)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_orbit_death_returns_zero(self):
        # B(1) = (1, 0) is live; its image B(1, 0) = 0 ends the orbit in the
        # second iteration, which logs no norm and no bound
        est = radius_bracket(from_matrix([[0.0, 1.0], [0.0, 0.0]]), ONES2)
        assert est.converged and est.value == 0.0
        assert est.cw_lower == 0.0 and est.cw_upper == 0.0
        assert est.iterations == 2
        assert len(est.log_norm_trace) == len(est.bound_trace) == 1

    def test_no_iterations_leave_the_vacuous_bracket(self, diag21):
        est = radius_bracket(diag21, ONES2, max_iter=0)
        assert (est.cw_lower, est.cw_upper, est.value) == (0.0, math.inf, 0.0)
        assert est.iterations == 0 and not est.converged
        assert est.log_norm_trace == [] and est.bound_trace == []

    def test_trace_recorded(self, diag21):
        est = radius_bracket(diag21, ONES2, tol=1e-9)
        assert len(est.log_norm_trace) == est.iterations

    def test_two_evaluations_per_iteration_on_positive_matrix(self, rng):
        # B(y) is evaluated once, as the untruncated lower probe, and the
        # next power step reuses it; the regularized upper probe is the
        # other evaluation.  The 1 is B(u) for the first step.
        mp, calls = counting_map(rng.uniform(0.5, 1.0, size=(6, 6)))
        est = radius_bracket(mp, ConeVector(np.ones(6)), tol=1e-14, max_iter=6)
        assert est.iterations == 6
        assert len(calls) == 1 + 2 * est.iterations

    def test_one_evaluation_per_iteration_once_the_shift_is_below_rounding(self):
        # Once 2^-k u_hat no longer changes y, the regularized probe is y
        # itself, so it is not formed again and an iteration costs one
        # evaluation, B(y).  A small spectral gap keeps the bracket open.
        mp, calls = counting_map(0.01 + np.diag([1.0, 0.97, 0.94, 0.91, 0.88, 0.85]))
        est = radius_bracket(mp, ConeVector(np.ones(6)), tol=1e-14, max_iter=100)
        assert est.iterations == 100
        assert est.iterations < len(calls) < 1 + 2 * est.iterations

    def test_requires_strictly_positive_start(self, diag21):
        for start in (vec(1, 0), vec(0, 0)):
            with pytest.raises(DegenerateBoundError):
                radius_bracket(diag21, start)

    def test_start_whose_norm_overflows_is_degenerate(self):
        # u / ||u|| would be the zero vector, whose dead orbit certifies a zero radius
        mp = from_matrix([[0.5, 0.1], [0.2, 0.5]])
        with pytest.raises(DegenerateBoundError, match="overflows"):
            radius_bracket(mp, vec(1e308, 1e308))

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
        # From about 1020 iterations on, 2^-k u_hat is subnormal, and later
        # it underflows to 0.  Probes regularized by it are not formed: they
        # divide by zero or overflow (B x)_i / x_i at truncated entries, and
        # subnormal products lose the relative precision the outward margin
        # assumes.  So the run does not warn, and its bracket stops where a
        # shorter run's does.  The second matrix's zero row keeps y off the
        # interior, so only regularized probes bound it from above.
        cases = [
            (np.array([
                [1, .344, 0, .572, 0, 0, 0, .457], [0, 0, .844, .555, 0, 0, .889, 0],
                [0, 0, 0, 0, 0, 0, .967, 0], [0, 0, 0, .284, 0, 0, 0, .075],
                [0, 0, 0, 0, .7, .04, .343, 0], [0] * 8, [0, 0, 0, 0, 0, 0, .224, 0], [0] * 8]),
             1080, 1040),
            (np.array([[0.992, 0, 0.378, 0, 0], [0, 0, 0.153, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 0.684, 0], [0, 0, 0, 0, 0]]),
             1100, 1020),
        ]
        for mat, n_long, n_short in cases:
            u = ConeVector(np.ones(mat.shape[0]))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                long = radius_bracket(from_matrix(mat), u, max_iter=n_long)
            short = radius_bracket(from_matrix(mat), u, max_iter=n_short)
            assert long.iterations == n_long
            assert long.bound_trace[:n_short] == short.bound_trace
            assert long.bound_trace[-1] == short.bound_trace[-1]
            assert (long.cw_lower, long.cw_upper) == (short.cw_lower, short.cw_upper)
            r = linear_radius_exact(mat).value
            assert short.cw_lower <= r <= short.cw_upper

    def test_orbit_bounds_do_not_drift_along_long_orbits(self):
        # The m-step factor from y_(k-m) to y_k is the sum of the last m step
        # logs.  Taken as the difference of two running sums it drifts by
        # about eps times the log of the whole orbit, which lifted the lower
        # bound of both runs above the radius (the first one converged).
        cases = [
            (np.array([[0.45, 0.25, 0], [0, 0.5, 0], [0, 0, 0]]), 10000),
            (0.5 * np.array([[0.992, 0, 0.378, 0, 0], [0, 0, 0.153, 0, 0], [0, 0, 1, 0, 0],
                             [0, 0, 0, 0.684, 0], [0, 0, 0, 0, 0]]), 2000),
        ]
        for mat, max_iter in cases:
            est = radius_bracket(from_matrix(mat), ConeVector(np.ones(mat.shape[0])),
                                 max_iter=max_iter)
            r = float(np.max(np.diag(mat)))     # triangular: the radius is exact
            assert est.cw_lower <= r <= est.cw_upper

    @pytest.mark.parametrize("kind", ["positive", "block_triangular", "block_cyclic"])
    def test_every_traced_bracket_contains_the_radius(self, kind):
        rng = np.random.default_rng({"positive": 1, "block_triangular": 2,
                                     "block_cyclic": 3}[kind])
        for trial in range(6):
            n = int(rng.integers(3, 16))
            if kind == "positive":
                mat = rng.uniform(0.05, 1.0, size=(n, n))
            elif kind == "block_triangular":
                h = n // 2
                mat = np.zeros((n, n))
                mat[:h, :h] = rng.uniform(0.05, 1.0, size=(h, h))
                mat[h:, h:] = rng.uniform(0.05, 1.0, size=(n - h, n - h))
                coupling = rng.uniform(0.0, 1.0, size=(h, n - h))
                mat[:h, h:] = coupling * (rng.random((h, n - h)) < 0.3)
            else:
                period = 2 + trial % 3
                b = max(1, n // period)
                mat = np.zeros((b * period, b * period))
                for i in range(period):
                    j = (i + 1) % period    # block row i maps only into block j
                    mat[i * b:(i + 1) * b, j * b:(j + 1) * b] = rng.uniform(0.05, 1.0, (b, b))
            rep = linear_radius_exact(mat)
            est = radius_bracket(from_matrix(mat), ConeVector(np.ones(mat.shape[0])), tol=1e-10)
            assert est.converged
            for lo, hi in est.bound_trace:
                assert lo <= rep.value + rep.accuracy
                assert rep.value - rep.accuracy <= hi

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

    def test_overflowing_step_norm_is_a_contract_error(self):
        # each product is finite, its norm is not: a MapContractError, with
        # no overflow warning on the way
        mp = from_matrix(np.full((2, 2), 1e308))
        with pytest.raises(MapContractError, match="overflows"):
            radius_bracket(mp, ONES2)


class TestResolvent:
    def test_diagonal_geometric_series(self, diag21):
        res = resolvent_series(diag21, 4.0, np.array([[1.0], [0.0]]), trunc_tol=1e-12)
        assert res.vectors.shape == (2, 1)
        assert res.vectors[0, 0] == pytest.approx(0.5, abs=1e-11)
        assert res.vectors[1, 0] == 0.0

    def test_identity_map(self):
        mp = from_matrix(np.eye(2))
        res = resolvent_series(mp, 2.0, np.ones((2, 1)), trunc_tol=1e-12)
        assert np.allclose(res.vectors[:, 0], [1.0, 1.0], atol=1e-11)

    def test_left_resolvent_identity_instance(self, diag21):
        e1 = np.array([1.0, 0.0])
        block = np.column_stack([e1, diag21.matrix @ e1])
        r_e1, r_be1 = resolvent_series(diag21, 4.0, block, trunc_tol=1e-12).vectors.T
        rhs = 4.0 * r_e1 - e1
        assert np.allclose(r_be1, rhs, atol=1e-11)
        assert np.allclose(rhs, [1.0, 0.0], atol=1e-10)

    def test_identity_on_random_maps(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 9))
            mat = rng.uniform(0.05, 1.0, size=(n, n))
            mat /= linear_radius_exact(mat).value  # radius 1
            mp = from_matrix(mat)
            lam = float(rng.uniform(1.1, 3.0))
            x = np.abs(rng.standard_normal(n))
            tol = 1e-10
            rx, rbx = resolvent_series(mp, lam, np.column_stack([x, mat @ x]),
                                       trunc_tol=tol).vectors.T
            assert mp.space.norm(rbx - (lam * rx - x)) <= 10 * tol

    def test_max_terms_exceeded(self, diag21):
        with pytest.raises(TruncationError) as exc:
            resolvent_series(diag21, 2.0 + 1e-9, np.ones((2, 1)), trunc_tol=1e-10,
                             max_terms=50)
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
            x = np.ones((n, 1))
            xstar = np.ones(n)
            lams = [r * (1 + d) for d in (0.5, 0.2, 0.05, 0.01, 1e-3)]
            vals = [float(xstar @ resolvent_series(mp, lam, x, trunc_tol=1e-12).vectors[:, 0])
                    for lam in lams]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert vals[-1] > 100 * vals[0]


class TestResolventBlock:
    @pytest.mark.parametrize("kind", ["linear", "two_sex"])
    def test_block_equals_column_series(self, rng, kind):
        if kind == "linear":
            mp = from_matrix(rng.uniform(0.05, 1.0, size=(8, 8)))
        else:
            mp = build_model(gaussian_config(n_cells=12)).as_map()
        n = mp.space.dim
        lam = 1.2 * radius_bracket(mp, ConeVector(np.ones(n)), tol=1e-10).cw_upper
        # columns of different sizes converge after different numbers of terms
        block = rng.random((n, 6)) * np.array([1.0, 1e-6, 0.0, 1e4, 1.0, 1e-12])
        res = resolvent_series(mp, lam, block, trunc_tol=1e-10)
        assert len(set(res.column_terms.tolist())) > 2
        for j in range(block.shape[1]):
            one = resolvent_series(mp, lam, block[:, j:j + 1], trunc_tol=1e-10)
            assert res.column_terms[j] == one.terms
            assert np.allclose(res.vectors[:, j], one.vectors[:, 0], rtol=1e-13, atol=0.0)
        assert res.terms == int(res.column_terms.sum())

    def test_cut_off_column_leaves_others_finished(self, diag21):
        # At lambda just above 2 the e1 series needs far more than 50
        # terms; the e2 series (ratio 1/lambda) finishes on its own.
        lam = 2.0 + 1e-9
        with pytest.raises(TruncationError) as exc:
            resolvent_series(diag21, lam, np.eye(2), trunc_tol=1e-10, max_terms=50)
        part = exc.value.partial
        alone = resolvent_series(diag21, lam, np.eye(2)[:, 1:], trunc_tol=1e-10)
        assert part.column_terms[0] == 50
        assert part.column_terms[1] == alone.terms < 50
        assert np.array_equal(part.vectors[:, 1], alone.vectors[:, 0])


NAN = float("nan")
DIAG21 = from_matrix(np.diag([2.0, 1.0]))


class TestNanGuards:
    # NaN fails every comparison, so a guard written as x <= 0 lets it
    # through: the series stopped after one term with a finite tail bound,
    # the vectors and the eigenfunctional came out NaN, and the bracket ran
    # to max_iter
    @pytest.mark.parametrize("call, error", [
        (lambda: resolvent_series(DIAG21, 4.0, np.ones((2, 1)), trunc_tol=NAN), ValueError),
        (lambda: resolvent_series(DIAG21, NAN, np.ones((2, 1))), SpectralDomainError),
        (lambda: estimate_eigenfunctional(DIAG21, ONES2, ONES2, lam=NAN), SpectralDomainError),
        (lambda: radius_bracket(DIAG21, ONES2, tol=NAN, max_iter=20), ValueError),
    ], ids=["series-trunc_tol", "series-lam", "functional-lam", "bracket-tol"])
    def test_nan_parameter_rejected(self, call, error):
        with pytest.raises(error):
            call()


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
