"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All tolerances are pinned here; every expected value is either exact by
construction or certified by an independent oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conerad import (
    ConeSpace,
    ConeVector,
    build_model,
    diamond_norm,
    estimate_eigenfunctional,
    from_callable,
    from_matrix,
    linear_radius_exact,
    psi_hull,
    radius_bracket,
    resolvent_series,
    simulate,
    solve_eigenvector_perturbation,
    solve_subeigenvector_min,
)
from conerad.errors import ZeroLimitError

from conftest import (
    gaussian_config,
    random_scenario,
    scale_beta,
    single_cell_config,
    two_patch_config,
)

SEED = 20260811


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name} failed {tail}"


def random_nonneg_matrix(rng, n: int, density: float) -> np.ndarray:
    return rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < density)


def zoo_maps():
    """Linear and two-sex maps used by the law and certificate criteria."""
    rng = np.random.default_rng(SEED + 1)
    zoo = [
        ("diag", from_matrix(np.diag([2.0, 1.0]))),
        ("swap", from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        ("positive8", from_matrix(rng.uniform(0.05, 1.0, size=(8, 8)))),
    ]
    for name, cfg in (("single_cell", single_cell_config()),
                      ("two_patch", two_patch_config()),
                      ("gaussian20", gaussian_config(n_cells=20, sigma=0.15))):
        zoo.append((name, build_model(cfg).as_map()))
    return zoo


def scaled_map(mp, alpha: float):
    return from_callable(mp.space, lambda x, _m=mp, _a=alpha: _a * _m.raw(x),
                         name=f"{mp.name}*{alpha}")


def squared_map(mp):
    return from_callable(mp.space, lambda x, _m=mp: _m.raw(_m.raw(x)),
                         name=f"{mp.name}^2")


def test_c01_linear_oracle_equality():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        density = float(rng.uniform(0.3, 1.0))
        mat = random_nonneg_matrix(rng, n, density)
        oracle = linear_radius_exact(mat)
        est = radius_bracket(from_matrix(mat), ConeVector(np.ones(n)),
                             tol=1e-8, max_iter=30000)
        err = abs(est.value - oracle.value) / max(1.0, oracle.value)
        worst = max(worst, err)
        assert err <= 1e-6, f"midpoint off by {err} (n={n}, density={density})"
        assert est.cw_lower <= oracle.value + oracle.accuracy
        assert oracle.value - oracle.accuracy <= est.cw_upper
    _report("C1 linear oracle equality", True, f"worst rel err {worst:.2e}")


def test_c02_power_quotient_laws():
    # r(B) = lim ||B^n||^(1/n) gives r(alpha B) = alpha r(B) and r(B^2) = r(B)^2;
    # both are checked on the midpoints of converged certified brackets
    worst_scale = worst_power = 0.0
    for name, mp in zoo_maps():
        u = ConeVector(np.ones(mp.space.dim))
        base = radius_bracket(mp, u, tol=1e-11, max_iter=30000)
        assert base.converged, f"{name}: bracket did not close"
        for alpha in (0.5, 2.0, 10.0):
            est = radius_bracket(scaled_map(mp, alpha), u, tol=1e-11, max_iter=30000)
            assert est.converged, f"{name}*{alpha}: bracket did not close"
            err = abs(est.value - alpha * base.value) / max(1.0, alpha * base.value)
            worst_scale = max(worst_scale, err)
            assert err <= 1e-10, f"{name}: scaling law off by {err}"
        sq = radius_bracket(squared_map(mp), u, tol=1e-11, max_iter=30000)
        assert sq.converged, f"{name}^2: bracket did not close"
        err = abs(sq.value - base.value ** 2) / max(1.0, base.value ** 2)
        worst_power = max(worst_power, err)
        assert err <= 1e-8, f"{name}: power law off by {err}"
    _report("C2 power-quotient laws", True,
            f"scaling {worst_scale:.2e}, power {worst_power:.2e}")


def test_c03_collatz_wielandt_sandwich():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        n = int(rng.integers(2, 41))
        mat = rng.uniform(0.05, 1.0, size=(n, n))  # strictly positive: primitive
        est = radius_bracket(from_matrix(mat), ConeVector(np.ones(n)), 1e-6, 10000)
        assert est.converged, "bracket did not close within 10000 iterations"
        assert len(est.bound_trace) == est.iterations
        for lower, upper in est.bound_trace:
            assert lower <= upper  # exact inequality each iterate
        lower, upper = est.bound_trace[-1]
        assert upper - lower <= 1e-6 * max(1.0, 0.5 * (lower + upper))
    _report("C3 Collatz-Wielandt sandwich", True)


def test_c04_radius_monotone_in_map():
    rng = np.random.default_rng(SEED + 3)
    # 30 entrywise-dominated linear pairs
    for _ in range(30):
        n = int(rng.integers(2, 20))
        a = rng.uniform(0.05, 1.0, size=(n, n))
        b = a + rng.uniform(0.0, 0.6, size=(n, n))
        u = ConeVector(np.ones(n))
        ra = radius_bracket(from_matrix(a), u, tol=1e-9).value
        rb = radius_bracket(from_matrix(b), u, tol=1e-9).value
        assert ra <= rb + 1e-8
    # 20 beta-dominated two-sex pairs
    for _ in range(20):
        cfg = random_scenario(rng)
        lo, hi = build_model(cfg), build_model(scale_beta(cfg, 1.0 + rng.uniform(0.05, 1.0)))
        rl = radius_bracket(lo.as_map(), lo.order_bound, tol=1e-9).value
        rh = radius_bracket(hi.as_map(), hi.order_bound, tol=1e-9).value
        assert rl <= rh + 1e-8
    _report("C4 radius monotonicity on 50 dominated pairs", True)


def test_c05_left_resolvent_identity():
    rng = np.random.default_rng(SEED + 4)
    trunc_tol = 1e-10
    triples = []
    for _ in range(80):
        n = int(rng.integers(2, 12))
        mat = rng.uniform(0.05, 1.0, size=(n, n))
        mat *= float(rng.uniform(0.5, 2.0)) / linear_radius_exact(mat).value
        triples.append(from_matrix(mat))
    for _ in range(4):
        model = build_model(random_scenario(rng))
        for _ in range(5):
            triples.append(model.as_map())
    worst = 0.0
    for mp in triples:
        n = mp.space.dim
        u = ConeVector(np.ones(n))
        upper = radius_bracket(mp, u, tol=1e-6, max_iter=5000).cw_upper
        lam = float(rng.uniform(1.1, 3.0)) * max(upper, 1e-6)
        x = np.abs(rng.standard_normal(n))
        # lam > cw_upper >= radius, so the series on [x | Bx] is admissible
        rx, rbx = resolvent_series(mp, lam, np.column_stack([x, mp.raw(x)]),
                                   trunc_tol).vectors.T
        defect = mp.space.norm(rbx - (lam * rx - x))
        worst = max(worst, defect)
        assert defect <= 10.0 * trunc_tol, f"identity defect {defect}"
    _report("C5 left-resolvent identity on 100 triples", True, f"worst {worst:.2e}")


def test_c06_two_sex_eigenvector_residual():
    for n_cells in (50, 120, 200):
        model = build_model(gaussian_config(n_cells=n_cells, sigma=0.12, beta=3.0))
        mp = model.as_map()
        res = solve_eigenvector_perturbation(mp, model.order_bound, inner_tol=1e-14)
        norm_v = mp.space.norm(res.vector.entries)
        assert res.residual <= 1e-8 * norm_v, \
            f"{n_cells} cells: residual {res.residual} vs {1e-8 * norm_v}"
        est = radius_bracket(mp, model.order_bound, tol=1e-9)
        assert abs(res.lam - est.value) <= 1e-6 * max(1.0, est.value)
    _report("C6 two-sex eigenvector residual", True)


def test_c07_subeigenvector_certificates():
    rng = np.random.default_rng(SEED + 5)
    cases = []
    for _ in range(3):
        n = int(rng.integers(2, 15))
        cases.append((from_matrix(rng.uniform(0.05, 1.0, size=(n, n))),
                      ConeVector(np.ones(n))))
    for cfg in (two_patch_config(), gaussian_config(n_cells=25)):
        model = build_model(cfg)
        cases.append((model.as_map(), model.order_bound))
    for mp, u in cases:
        est = radius_bracket(mp, u, tol=1e-9)
        res = solve_subeigenvector_min(mp, u, r_est=est.cw_lower)
        x = res.vector.entries
        assert x.any(), "sub-eigenvector collapsed for r_est = bracket lower"
        bx = mp.raw(x)
        assert np.all(bx >= (est.cw_lower - 1e-8) * x), "certificate violated"
        with pytest.raises(ZeroLimitError):
            solve_subeigenvector_min(mp, u, r_est=2.0 * est.cw_upper)
    _report("C7 sub-eigenvector certificates", True)


def test_c08_eigenfunctional_defect():
    rng = np.random.default_rng(SEED + 6)
    built = 0
    while built < 3:
        n = int(rng.integers(4, 12))
        mat = rng.uniform(0.05, 1.0, size=(n, n))
        eigs = np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]
        if eigs[1] / eigs[0] > 0.8:  # demand spectral gap >= 0.2
            continue
        built += 1
        mp = from_matrix(mat)
        u = ConeVector(np.ones(n))
        # left dominant eigenvector via transpose power iterations (witness
        # choice only; any admissible probe vector works)
        w = np.ones(n)
        for _ in range(300):
            w = mat.T @ w
            w /= w.sum()
        upper = radius_bracket(mp, u, tol=1e-9).cw_upper
        phi = estimate_eigenfunctional(
            mp, u, ConeVector(w), lam=1.2 * upper, trunc_tol=1e-12)
        assert phi(u) > 0, "functional vanished on the order bound"
        r = phi.radius_used
        worst = 0.0
        for _ in range(100):
            x = np.abs(rng.standard_normal(n)) + 1e-3
            fx = phi(ConeVector(x))
            fbx = phi(ConeVector(mp.raw(x)))
            worst = max(worst, abs(fbx - r * fx) / fx)
        assert worst <= 1e-3, f"relative defect {worst}"
    _report("C8 eigenfunctional defect on gapped linear maps", True)


def test_c09_two_sex_closed_forms():
    model = build_model(single_cell_config())
    est = radius_bracket(model.as_map(), model.order_bound, tol=1e-12)
    assert abs(est.value - 0.25) <= 1e-10
    for c in (0.5, 2.0, 4.0, 8.0):
        scaled = build_model(scale_beta(single_cell_config(), c))
        est_c = radius_bracket(scaled.as_map(), scaled.order_bound, tol=1e-12)
        assert est_c.value == pytest.approx(c * est.value, rel=1e-12)
    _report("C9 single-cell closed form and beta homogeneity", True)


def test_c10_persistence_dichotomy():
    rng = np.random.default_rng(SEED + 7)
    for target, expect_growth in ((0.5, False), (2.0, True)):
        for _ in range(10):
            cfg = random_scenario(rng)
            base = build_model(cfg)
            r0 = radius_bracket(base.as_map(), base.order_bound, tol=1e-9).value
            model = build_model(scale_beta(cfg, target / r0))
            est = radius_bracket(model.as_map(), model.order_bound, tol=1e-9)
            f0 = ConeVector(rng.random(model.grid.n_cells) + 0.05)
            traj = simulate(model, f0, years=20)
            # mean yearly log-mass increment over the years the orbit lives
            logs = [v for v in traj.log_mass if math.isfinite(v)]
            slope = (logs[-1] - logs[0]) / (len(logs) - 1)
            if expect_growth:
                assert est.cw_lower > 1.0, "scenario not certified persistent"
                assert slope > 0.0, f"expected growth, slope {slope}"
            else:
                assert est.cw_upper < 1.0, "scenario not certified subcritical"
                assert slope < 0.0, f"expected decay, slope {slope}"
    _report("C10 persistence dichotomy on 20 scenarios", True)


def test_c11_support_disjoint_extinction():
    from conerad import MatingFunction, MatingKind, MigrationKernel, SpatialGrid, TwoSexModel
    n = 12
    grid = SpatialGrid.interval(0.0, 1.0, n)
    h = grid.cell_weights[0]
    left = np.zeros((n, n))
    right = np.zeros((n, n))
    left[: n // 2, :] = 0.5 / (h * (n // 2))
    right[n // 2:, :] = 0.5 / (h * (n // 2))
    model = TwoSexModel(
        grid=grid,
        k_female=MigrationKernel(left),
        k_male=MigrationKernel(right),
        mating=MatingFunction(MatingKind.HARMONIC_MEAN, beta=np.full(n, 3.0)),
    )
    step = model.as_map().raw
    rng = np.random.default_rng(SEED + 8)
    for _ in range(20):
        assert not step(rng.random(n)).any()
    _report("C11 support-disjoint extinction", True)


def test_c12_cone_functional_suite():
    rng = np.random.default_rng(SEED + 9)
    spaces = [ConeSpace(6), ConeSpace(6, "linf"),
              ConeSpace(6, "weighted", rng.uniform(0.5, 2.0, size=6))]
    worst = 0.0
    for case in range(1000):
        space = spaces[case % 3]
        x = rng.standard_normal(6) * 10
        y = rng.standard_normal(6) * 10
        alpha = float(rng.uniform(0.0, 8.0))
        scale = max(1.0, space.norm(x) + space.norm(y))
        defects = [
            abs(psi_hull(space, alpha * x) - alpha * psi_hull(space, x)) / max(1.0, alpha * scale),
            max(0.0, abs(psi_hull(space, x) - psi_hull(space, y)) - space.norm(x - y)) / scale,
            max(0.0, psi_hull(space, x + y) - psi_hull(space, x) - psi_hull(space, y)) / scale,
            max(0.0, diamond_norm(space, x) - space.norm(x)) / scale,
        ]
        # squeeze: x <= y <= z built from cone increments
        a = np.abs(rng.standard_normal(6))
        b = np.abs(rng.standard_normal(6))
        lo, mid, hi = a, a + b, a + b + np.abs(rng.standard_normal(6))
        defects.append(
            max(0.0, diamond_norm(space, mid)
                - max(diamond_norm(space, lo), diamond_norm(space, hi)))
            / max(1.0, space.norm(hi)))
        worst = max(worst, max(defects))
        assert max(defects) <= 1e-12
    _report("C12 cone functional suite (1000 draws)", True, f"worst {worst:.2e}")
