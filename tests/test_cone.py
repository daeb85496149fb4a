"""Order, lattice, and functional properties of the orthant primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conerad import (
    ConeSpace,
    ConeVector,
    NormKind,
    diamond_norm,
    leq,
    lower_ratio,
    meet,
    psi_hull,
    u_norm,
)
from conerad.errors import DegenerateBoundError, DimensionError

L1_2 = ConeSpace(2)
FINITE = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
NONNEG = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def vec(*vals):
    return ConeVector(np.array(vals, dtype=float))


class TestConstruction:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            ConeVector([1.0, float("nan")])
        with pytest.raises(ValueError):
            ConeVector([1.0, float("inf")])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ConeVector([1.0, -0.5])

    def test_entries_are_immutable(self):
        v = vec(1.0, 2.0)
        with pytest.raises(ValueError):
            v.entries[0] = 3.0

    def test_space_validation(self):
        with pytest.raises(DimensionError):
            ConeSpace(0)
        with pytest.raises(ValueError):
            ConeSpace(2, NormKind.WEIGHTED, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ConeSpace(2, NormKind.L1, np.array([1.0, 1.0]))


class TestOrder:
    def test_leq_componentwise(self):
        assert leq(vec(1, 3), vec(2, 3))
        assert not leq(vec(1, 3), vec(2, 2))

    def test_leq_reflexive(self, rng):
        for _ in range(20):
            x = ConeVector(rng.random(5))
            assert leq(x, x)

    def test_leq_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            leq(vec(1.0), vec(1.0, 2.0))

    def test_meet_entrywise_min(self):
        assert np.array_equal(meet(vec(1, 3), vec(2, 2)).entries, [1.0, 2.0])

    def test_meet_idempotent_and_zero(self, rng):
        x = ConeVector(rng.random(4))
        zero = ConeVector(np.zeros(4))
        assert np.array_equal(meet(x, x).entries, x.entries)
        assert np.array_equal(meet(x, zero).entries, zero.entries)

    def test_meet_is_greatest_lower_bound_exhaustive(self):
        # All lattice points on a small 3d grid: any common lower bound z
        # must sit below the meet.
        grid = [np.array([a, b, c], dtype=float)
                for a in range(3) for b in range(3) for c in range(3)]
        for xe in grid:
            for ye in grid:
                x, y = ConeVector(xe), ConeVector(ye)
                m = meet(x, y)
                assert leq(m, x) and leq(m, y)
                for ze in grid:
                    z = ConeVector(ze)
                    if leq(z, x) and leq(z, y):
                        assert leq(z, m)


class TestPsiHull:
    def test_positive_part_l1(self):
        assert psi_hull(L1_2, np.array([-1.0, 2.0])) == 2.0

    def test_zero_on_negative_orthant(self, rng):
        for _ in range(20):
            x = rng.random(4)
            assert psi_hull(ConeSpace(4), -x) == 0.0

    def test_equals_norm_on_cone(self):
        assert psi_hull(L1_2, np.array([1.0, 2.0])) == 3.0

    def test_strictly_positive_on_nonzero_cone_vectors(self, rng):
        for _ in range(20):
            x = np.abs(rng.standard_normal(6)) + 1e-12
            assert psi_hull(ConeSpace(6), x) > 0.0

    @settings(max_examples=200, derandomize=True)
    @given(x=arrays(np.float64, 4, elements=FINITE),
           alpha=st.floats(min_value=0.0, max_value=20.0))
    def test_homogeneous(self, x, alpha):
        for space in (ConeSpace(4), ConeSpace(4, NormKind.LINF)):
            lhs = psi_hull(space, alpha * x)
            rhs = alpha * psi_hull(space, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    @settings(max_examples=200, derandomize=True)
    @given(x=arrays(np.float64, 4, elements=FINITE),
           y=arrays(np.float64, 4, elements=FINITE))
    def test_lipschitz_and_subadditive(self, x, y):
        for space in (ConeSpace(4), ConeSpace(4, NormKind.LINF),
                      ConeSpace(4, NormKind.WEIGHTED, np.array([1.0, 0.5, 2.0, 1.5]))):
            scale = max(1.0, space.norm(x) + space.norm(y))
            assert abs(psi_hull(space, x) - psi_hull(space, y)) \
                <= space.norm(x - y) + 1e-12 * scale
            assert psi_hull(space, x + y) \
                <= psi_hull(space, x) + psi_hull(space, y) + 1e-12 * scale

    @settings(max_examples=100, derandomize=True)
    @given(x=arrays(np.float64, 4, elements=FINITE),
           d=arrays(np.float64, 4, elements=NONNEG))
    def test_order_preserving(self, x, d):
        space = ConeSpace(4)
        assert psi_hull(space, x) <= psi_hull(space, x + d) + 1e-12 * max(
            1.0, space.norm(x) + space.norm(d))


class TestDiamondNorm:
    def test_equals_norm_on_cone(self):
        assert diamond_norm(L1_2, np.array([1.0, 2.0])) == 3.0

    def test_symmetry_and_zero(self, rng):
        assert diamond_norm(L1_2, np.zeros(2)) == 0.0
        for _ in range(20):
            x = rng.standard_normal(2)
            assert diamond_norm(L1_2, -x) == diamond_norm(L1_2, x)

    @settings(max_examples=200, derandomize=True)
    @given(x=arrays(np.float64, 5, elements=FINITE))
    def test_dominated_by_norm(self, x):
        for space in (ConeSpace(5), ConeSpace(5, NormKind.LINF)):
            assert diamond_norm(space, x) <= space.norm(x) + 1e-12 * max(1.0, space.norm(x))

    @settings(max_examples=150, derandomize=True)
    @given(x=arrays(np.float64, 4, elements=NONNEG),
           a=arrays(np.float64, 4, elements=NONNEG),
           b=arrays(np.float64, 4, elements=NONNEG))
    def test_squeeze_between_cone_vectors(self, x, a, b):
        # x <= y <= z built by adding cone increments; the middle diamond
        # norm never exceeds the outer max (constant 1 for these norms),
        # and the plain monotone norm obeys the same sandwich.
        space = ConeSpace(4)
        y, z = x + a, x + a + b
        mid = diamond_norm(space, y)
        outer = max(diamond_norm(space, x), diamond_norm(space, z))
        assert mid <= outer + 1e-12 * max(1.0, outer)
        assert space.norm(y) <= max(space.norm(x), space.norm(z)) \
            + 1e-12 * max(1.0, space.norm(z))


SPACES_6 = {
    "l1": ConeSpace(6),
    "linf": ConeSpace(6, NormKind.LINF),
    "weighted": ConeSpace(6, NormKind.WEIGHTED, np.array([0.3, 1.0, 2.5, 0.7, 1.1, 4.0])),
}


class TestBlocks:
    """psi_hull and diamond_norm on a (dim, k) block give one value per
    column.  A column-major block equals the per-column 1-D calls bitwise;
    a row-major one sums each column in another order, so its values agree
    to rtol 1e-14 (and exactly for the LInf norm, a max)."""

    @pytest.mark.parametrize("norm", sorted(SPACES_6))
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("fn", [psi_hull, diamond_norm])
    def test_block_equals_columns(self, rng, norm, order, fn):
        space = SPACES_6[norm]
        block = rng.standard_normal((6, 9)) * np.array([1.0, 1e3, 1e-3, 1, 1, 1, 1, 1, 1])
        block[:, 3] = 0.0                       # the zero column
        block[:, 4] = -np.abs(block[:, 4])      # an all-negative column
        block[:, 5] = np.abs(block[:, 5])       # a cone column
        block = np.asarray(block, order=order)
        got = fn(space, block)
        want = np.array([fn(space, col) for col in block.T])
        assert got.shape == (9,)
        if order == "F" or norm == "linf":
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert got[3] == 0.0
        assert (got[4] == 0.0) == (fn is psi_hull)

    @pytest.mark.parametrize("fn", [psi_hull, diamond_norm])
    def test_one_column_block(self, rng, fn):
        x = rng.standard_normal(6)
        for space in SPACES_6.values():
            assert fn(space, x[:, None]).tolist() == [fn(space, x)]

    @pytest.mark.parametrize("fn", [psi_hull, diamond_norm])
    def test_malformed_blocks_rejected(self, fn):
        space = ConeSpace(3)
        bad = np.ones((3, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            fn(space, bad)
        bad[1, 2] = -np.inf
        with pytest.raises(ValueError):
            fn(space, bad)
        with pytest.raises(DimensionError):
            fn(space, np.ones((3, 4, 2)))
        with pytest.raises(DimensionError):
            fn(space, np.ones((4, 3)))
        with pytest.raises(DimensionError):
            fn(space, np.ones(4))


class TestOrderRatios:
    def test_u_norm_max_ratio(self):
        assert u_norm(vec(1, 2), vec(1, 1)) == 2.0

    def test_u_norm_support_mismatch(self):
        assert u_norm(vec(1, 0), vec(0, 1)) == float("inf")

    def test_u_norm_self(self, rng):
        u = ConeVector(rng.random(5) + 0.1)
        assert u_norm(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_u_norm_zero_bound_rejected(self):
        with pytest.raises(DegenerateBoundError):
            u_norm(vec(1, 1), vec(0, 0))

    def test_u_norm_bound_holds(self, rng):
        for _ in range(30):
            x = ConeVector(rng.random(6))
            u = ConeVector(rng.random(6) + 0.05)
            c = u_norm(x, u)
            assert np.all(x.entries <= c * u.entries * (1 + 1e-12) + 1e-300)

    def test_lower_ratio_min(self):
        assert lower_ratio(vec(2, 3), vec(1, 1)) == 2.0
        assert lower_ratio(vec(0, 5), vec(1, 1)) == 0.0

    def test_lower_ratio_self(self, rng):
        u = ConeVector(rng.random(5) + 0.1)
        assert lower_ratio(u, u) == pytest.approx(1.0, abs=1e-15)

    def test_lower_ratio_bound_holds(self, rng):
        for _ in range(30):
            x = ConeVector(rng.random(6))
            u = ConeVector(rng.random(6) + 0.05)
            beta = lower_ratio(x, u)
            assert np.all(x.entries >= beta * u.entries * (1 - 1e-12) - 1e-300)

    def test_duality_sandwich(self, rng):
        for _ in range(30):
            x = ConeVector(rng.random(5))
            u = ConeVector(rng.random(5) + 0.05)
            lo, hi = lower_ratio(x, u), u_norm(x, u)
            ratios = x.entries / u.entries
            assert lo <= ratios.min() + 1e-12
            assert ratios.max() <= hi + 1e-12
