"""Gauge-sequence and double-row monodromy checks.

The frozen coefficient lists here were computed by hand from the scalar
closed forms: G_3 = (1+2a)^2 (1+a)^{-2} for the gauge example and
B_3 = 3 (1+a)^2 (1+2a)^2 for the double-row one.  The residual checks
are structural, so a deliberate wrong-order product is included to show
the recursion test can fail at all.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp.boundary import (
    BoundaryProblem,
    GaugeProblem,
    double_row_monodromy,
    gauge_solve,
    reflection_hat,
)
from ordexp.errors import (
    BackendMismatch,
    DimensionMismatch,
    SingularOperator,
    UnsupportedOrder,
)
from ordexp.expansion import BACKWARD, FORWARD, SiteOperatorFamily, prefix_monodromy
from ordexp.freealg import FreeElement
from ordexp.matrix import Matrix
from ordexp.series import AlphaSeries

F = Fraction


def scalar_family(n_sites, slope, direction=FORWARD):
    entries = {(n, 1): F(slope) for n in range(1, n_sites + 1)}
    return SiteOperatorFamily(n_sites, entries, direction=direction, like=F(1))


def rand_matrix(rng, size=2, bound=3):
    return Matrix(
        [[F(rng.randint(-bound, bound)) for _ in range(size)] for _ in range(size)]
    )


def matrix_family(rng, n_sites, degrees=(1, 2), direction=FORWARD, size=2):
    entries = {
        (n, d): rand_matrix(rng, size)
        for n in range(1, n_sites + 1)
        for d in degrees
    }
    return SiteOperatorFamily(n_sites, entries, direction=direction)


def rand_invertible(rng, size=2):
    while True:
        m = rand_matrix(rng, size)
        try:
            m.inverse()
        except SingularOperator:
            continue
        return m


def series_coeffs(series):
    return list(series.coeffs)


class TestGaugeProblem:
    def test_size_mismatch(self):
        a = scalar_family(2, 1)
        b = scalar_family(3, 2)
        with pytest.raises(DimensionMismatch):
            GaugeProblem(a, b, F(1), 3)

    def test_zero_scalar_initial(self):
        fam = scalar_family(2, 1)
        with pytest.raises(SingularOperator):
            GaugeProblem(fam, fam, F(0), 3)

    def test_singular_matrix_initial(self):
        rng = random.Random(3)
        fam = matrix_family(rng, 2)
        with pytest.raises(SingularOperator):
            GaugeProblem(fam, fam, Matrix([[1, 1], [1, 1]]), 3)

    def test_backend_mismatch(self):
        rng = random.Random(5)
        fam = matrix_family(rng, 2)
        with pytest.raises(BackendMismatch):
            GaugeProblem(fam, fam, F(1), 3)

    def test_order_too_small(self):
        fam = scalar_family(2, 1)
        with pytest.raises(UnsupportedOrder):
            GaugeProblem(fam, fam, F(1), 0)


class TestGaugeSolve:
    def test_equal_families_identity_initial(self):
        rng = random.Random(7)
        fam = matrix_family(rng, 3)
        report = gauge_solve(GaugeProblem(fam, fam, Matrix.identity(2), 3))
        one = AlphaSeries.one(3, like=Matrix.identity(2))
        assert len(report.values) == 4
        assert all(g == one for g in report.values)
        assert report.is_zero()
        assert report.max_abs() == 0

    def test_scalar_closed_form(self):
        # L = 1 + a, Lhat = 1 + 2a, G1 = 1, two sites:
        # G2 = (1+2a)(1+a)^{-1}, G3 = (1+2a)^2 (1+a)^{-2}.
        fwd = scalar_family(2, 1)
        tgt = scalar_family(2, 2)
        report = gauge_solve(GaugeProblem(fwd, tgt, F(1), 3))
        assert series_coeffs(report.values[0]) == [1, 0, 0, 0]
        assert series_coeffs(report.values[1]) == [1, 1, -1, 1]
        assert series_coeffs(report.values[2]) == [1, 2, -1, 0]
        assert report.is_zero()

    @pytest.mark.parametrize("seed", [11, 13, 17, 19])
    def test_random_matrix_families(self, seed):
        rng = random.Random(seed)
        fwd = matrix_family(rng, 3)
        tgt = matrix_family(rng, 3)
        g1 = rand_invertible(rng)
        report = gauge_solve(GaugeProblem(fwd, tgt, g1, 3))
        assert report.is_zero()
        assert report.values[0].coeff(0) == g1

    def test_free_backend(self):
        entries_f = {(n, 1): FreeElement.gen("y", site=n, degree=1) for n in (1, 2)}
        entries_t = {(n, 1): FreeElement.gen("z", site=n, degree=1) for n in (1, 2)}
        fwd = SiteOperatorFamily(2, entries_f)
        tgt = SiteOperatorFamily(2, entries_t)
        g1 = FreeElement.one() + FreeElement.gen("g", site=0, degree=1)
        report = gauge_solve(GaugeProblem(fwd, tgt, g1, 2))
        assert report.is_zero()

    def test_residuals_have_teeth(self):
        # The same data with the target and forward roles swapped in the
        # step formula must not satisfy the equation.
        rng = random.Random(23)
        fwd = matrix_family(rng, 2)
        tgt = matrix_family(rng, 2)
        report = gauge_solve(GaugeProblem(fwd, tgt, Matrix.identity(2), 3))
        wrong = []
        for n in range(1, 3):
            step = (
                fwd.lax_series(n, 3)
                * report.values[n - 1]
                * tgt.lax_series(n, 3).inverse()
            )
            wrong.append(report.values[n] - step)
        assert report.is_zero()
        assert any(not w.is_zero() for w in wrong)


class TestBoundaryProblem:
    def test_size_mismatch(self):
        a = scalar_family(2, 1)
        b = scalar_family(3, 2, direction=BACKWARD)
        with pytest.raises(DimensionMismatch):
            BoundaryProblem(a, b, F(1), 3)

    def test_singular_constant_boundary(self):
        rng = random.Random(29)
        fam = matrix_family(rng, 2)
        with pytest.raises(SingularOperator):
            BoundaryProblem(fam, fam, Matrix.zeros(2), 3)

    def test_singular_series_boundary(self):
        fam = scalar_family(2, 1)
        k = AlphaSeries.from_parts(3, {1: F(5)}, like=F(1))
        with pytest.raises(SingularOperator):
            BoundaryProblem(fam, fam, k, 3)

    def test_series_boundary_padded_to_order(self):
        fam = scalar_family(2, 1)
        k = AlphaSeries.from_parts(1, {0: F(1), 1: F(4)}, like=F(1))
        p = BoundaryProblem(fam, fam, k, 3)
        assert p.boundary.order == 3
        assert series_coeffs(p.boundary) == [1, 4, 0, 0]


class TestDoubleRow:
    def test_all_identity(self):
        like = Matrix.identity(2)
        fam = SiteOperatorFamily(3, {}, like=like)
        report = double_row_monodromy(BoundaryProblem(fam, fam, like, 2))
        one = AlphaSeries.one(2, like=like)
        assert all(r == one for r in report.values)
        assert report.is_zero()

    def test_scalar_closed_form(self):
        # L = 1 + a, Lhat = 1 + 2a, K = 3, two sites:
        # B2 = 3(1+a)(1+2a), B3 = 3(1+a)^2 (1+2a)^2.
        fwd = scalar_family(2, 1)
        bwd = scalar_family(2, 2, direction=BACKWARD)
        report = double_row_monodromy(BoundaryProblem(fwd, bwd, F(3), 2))
        assert series_coeffs(report.values[0]) == [3, 0, 0]
        assert series_coeffs(report.values[1]) == [3, 9, 6]
        assert series_coeffs(report.values[2]) == [3, 18, 39]
        assert report.is_zero()

    @pytest.mark.parametrize("seed", [31, 37, 41])
    def test_random_families_random_boundary(self, seed):
        rng = random.Random(seed)
        fwd = matrix_family(rng, 3)
        bwd = matrix_family(rng, 3, direction=BACKWARD)
        k = rand_invertible(rng)
        report = double_row_monodromy(BoundaryProblem(fwd, bwd, k, 3))
        assert report.is_zero()
        assert report.values[-1].coeff(0) == k

    def test_coupling_dependent_boundary(self):
        rng = random.Random(43)
        fwd = matrix_family(rng, 2)
        bwd = matrix_family(rng, 2, direction=BACKWARD)
        k = AlphaSeries.from_parts(
            3, {0: rand_invertible(rng), 1: rand_matrix(rng), 3: rand_matrix(rng)},
            like=Matrix.identity(2),
        )
        report = double_row_monodromy(BoundaryProblem(fwd, bwd, k, 3))
        assert report.is_zero()
        assert report.values[0] == k

    def test_reflection_family_residuals(self):
        swap = Matrix([[0, 1], [1, 0]])
        fwd = SiteOperatorFamily(2, {(1, 1): swap, (2, 1): swap})
        bwd = reflection_hat(fwd, 3)
        report = double_row_monodromy(
            BoundaryProblem(fwd, bwd, Matrix.identity(2), 3)
        )
        assert report.is_zero()
        assert report.values[-1].coeff(0) == Matrix.identity(2)

    def test_recursion_has_teeth(self):
        # Multiplying the boundary factors in the wrong order picks up the
        # commutator of the two local operators.
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        fwd = SiteOperatorFamily(1, {(1, 1): a})
        bwd = SiteOperatorFamily(1, {(1, 1): b}, direction=BACKWARD)
        p = BoundaryProblem(fwd, bwd, Matrix.identity(2), 2)
        report = double_row_monodromy(p)
        assert report.is_zero()
        swapped = report.values[1] - (
            bwd.lax_series(1, 2) * report.values[0] * fwd.lax_series(1, 2)
        )
        assert not swapped.is_zero()
        assert swapped.coeff(2) == a * b - b * a


def float_family(rng, n_sites, direction=FORWARD):
    # entries like 1/3 and 2/7 round in binary, so a product taken in
    # another association order shows in the last bits
    entries = {
        (n, d): Matrix([[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
                        for _ in range(2)]).to_float()
        for n in range(1, n_sites + 1)
        for d in (1, 2)
    }
    return SiteOperatorFamily(n_sites, entries, direction=direction)


CHAIN_SIZES = [(n_sites, order) for n_sites in (1, 2, 3, 4) for order in (1, 2, 3)]


class TestChainWalkFloat:
    """Float chains follow the spelled-out recursions product for product.

    Float `==` compares the stored entries, so a product taken in another
    association order than the recursion's fails these checks.
    """

    @pytest.mark.parametrize("n_sites,order", CHAIN_SIZES)
    def test_gauge_solve(self, n_sites, order):
        rng = random.Random(100 * n_sites + order)
        fwd, tgt = float_family(rng, n_sites), float_family(rng, n_sites)
        g1 = rand_invertible(rng).to_float()
        report = gauge_solve(GaugeProblem(fwd, tgt, g1, order))
        one = AlphaSeries.one(order, like=fwd.like)
        t, t_hat = one, one
        g = AlphaSeries.from_parts(order, {0: g1}, like=fwd.like)
        values = [t_hat * g * t.inverse()]
        for n in range(1, n_sites + 1):
            t = fwd.lax_series(n, order) * t
            t_hat = tgt.lax_series(n, order) * t_hat
            values.append(t_hat * g * t.inverse())
        residuals = [values[n] - tgt.lax_series(n, order) * values[n - 1]
                     * fwd.lax_series(n, order).inverse() for n in range(1, n_sites + 1)]
        assert report.values == values
        assert report.residuals == residuals

    @pytest.mark.parametrize("n_sites,order", CHAIN_SIZES)
    def test_double_row_monodromy(self, n_sites, order):
        rng = random.Random(200 * n_sites + order)
        fwd = float_family(rng, n_sites)
        bwd = float_family(rng, n_sites, direction=BACKWARD)
        k = rand_invertible(rng).to_float()
        report = double_row_monodromy(BoundaryProblem(fwd, bwd, k, order))
        boundary = AlphaSeries.from_parts(order, {0: k}, like=fwd.like)
        one = AlphaSeries.one(order, like=fwd.like)
        t, t_hat = one, one
        values = [boundary]
        for n in range(1, n_sites + 1):
            t = fwd.lax_series(n, order) * t
            t_hat = t_hat * bwd.lax_series(n, order)
            values.append(t * boundary * t_hat)
        residuals = [values[n] - fwd.lax_series(n, order) * values[n - 1]
                     * bwd.lax_series(n, order) for n in range(1, n_sites + 1)]
        assert report.values == values
        assert report.residuals == residuals

    @pytest.mark.parametrize("n_sites,order", CHAIN_SIZES)
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    def test_prefix_monodromy(self, n_sites, order, direction):
        fam = float_family(random.Random(300 * n_sites + order), n_sites, direction)
        prefix = AlphaSeries.one(order, like=fam.like)
        for upto in range(1, n_sites + 2):
            assert prefix_monodromy(fam, upto, order) == prefix
            if upto <= n_sites:
                lax = fam.lax_series(upto, order)
                prefix = lax * prefix if direction == FORWARD else prefix * lax


class TestReflectionHat:
    def test_scalar_geometric(self):
        fam = scalar_family(1, 1)
        hat = reflection_hat(fam, 3)
        assert series_coeffs(hat.lax_series(1, 3)) == [1, 1, 1, 1]

    def test_matrix_geometric(self):
        swap = Matrix([[0, 1], [1, 0]])
        fam = SiteOperatorFamily(2, {(1, 1): swap, (2, 1): swap})
        hat = reflection_hat(fam, 3)
        eye = Matrix.identity(2)
        for site in (1, 2):
            assert hat.entry(site, 1) == swap
            assert hat.entry(site, 2) == eye
            assert hat.entry(site, 3) == swap

    def test_identity_family(self):
        fam = SiteOperatorFamily(2, {}, like=Matrix.identity(2))
        hat = reflection_hat(fam, 3)
        assert hat.entries == {}
        assert hat.lax_series(1, 3) == AlphaSeries.one(3, like=Matrix.identity(2))

    def test_direction_flips(self):
        fam = scalar_family(1, 1)
        hat = reflection_hat(fam, 2)
        assert fam.direction == FORWARD
        assert hat.direction == BACKWARD
        assert reflection_hat(hat, 2).direction == FORWARD

    @pytest.mark.parametrize("seed", [47, 53])
    def test_involution(self, seed):
        rng = random.Random(seed)
        fam = matrix_family(rng, 2, degrees=(1, 2, 3))
        back = reflection_hat(reflection_hat(fam, 3), 3)
        for site in (1, 2):
            assert back.lax_series(site, 3) == fam.lax_series(site, 3)
        assert back.direction == fam.direction

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=24, max_size=24),
           st.sampled_from([FORWARD, BACKWARD]))
    def test_involution_property(self, values, direction):
        # two sites, degrees 1..3, 2x2 entries: hat(hat(L)) = L through order 3
        mats = [Matrix([values[i:i + 2], values[i + 2:i + 4]]) for i in range(0, 24, 4)]
        entries = {(n, d): mats[3 * (n - 1) + d - 1] for n in (1, 2) for d in (1, 2, 3)}
        fam = SiteOperatorFamily(2, entries, direction=direction, like=Matrix.identity(2))
        back = reflection_hat(reflection_hat(fam, 3), 3)
        for site in (1, 2):
            assert back.lax_series(site, 3) == fam.lax_series(site, 3)
        assert back.direction == direction

    def test_order_too_small(self):
        fam = scalar_family(1, 1)
        with pytest.raises(UnsupportedOrder):
            reflection_hat(fam, 0)
