"""Continuous Magnus/Dyson forms, discretization, and limit diagnostics."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ordexp
from ordexp.brace import GradedPreLieElement
from ordexp.errors import AlgebraError, BackendMismatch, DimensionMismatch, UnsupportedOrder
from ordexp.matrix import Matrix, commutator
from ordexp.poly import Poly
from ordexp.series import AlphaSeries
from ordexp.expansion import FORWARD, SiteOperatorFamily, magnus_oracle, monodromy
from ordexp.continuum import (
    ConvergenceTable,
    MatrixField,
    bernoulli,
    convergence_study,
    discretize,
    dyson_continuous,
    dyson_simplex_oracle,
    expm,
    field_prelie,
    magnus_bernoulli_iterate,
    magnus_continuous,
    open_evolution_residual,
)

F = Fraction
# Directory holding the imported package, for fresh interpreters.
SRC = str(Path(ordexp.__file__).resolve().parents[1])

X = Matrix([[0, 1], [0, 0]])
Y = Matrix([[0, 0], [1, 0]])
# The two continuous Magnus forms; each hand value below must hold for both.
STYLES = ("explicit", "prelie")


def affine_field(x_end=F(1)):
    """The field X + x Y on [0, x_end]."""
    return MatrixField(Poly({(0,): X, (1,): Y}), F(0), x_end)


class TestBernoulli:
    def test_first_values(self):
        assert [bernoulli(n) for n in range(7)] == [
            F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)
        ]

    def test_odd_values_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 20, 2))

    def test_negative_rejected(self):
        with pytest.raises(UnsupportedOrder):
            bernoulli(-1)


ORDER_ENTRY_POINTS = {
    "bernoulli": (bernoulli, UnsupportedOrder),
    "magnus_continuous-prelie": (lambda x: magnus_continuous(affine_field(), x), UnsupportedOrder),
    "magnus_continuous-explicit": (
        lambda x: magnus_continuous(affine_field(), x, "explicit"), UnsupportedOrder),
    "magnus_bernoulli_iterate-order": (
        lambda x: magnus_bernoulli_iterate(affine_field(), 3, x), UnsupportedOrder),
    "magnus_bernoulli_iterate-depth": (
        lambda x: magnus_bernoulli_iterate(affine_field(), x, 2), UnsupportedOrder),
    "dyson_continuous": (lambda x: dyson_continuous(affine_field(), x), UnsupportedOrder),
    "dyson_simplex_oracle": (lambda x: dyson_simplex_oracle(affine_field(), x), UnsupportedOrder),
    "GradedPreLieElement": (
        lambda x: GradedPreLieElement(x, {1: X}, lambda a, b: a * b), DimensionMismatch),
}


@pytest.mark.parametrize("entry", sorted(ORDER_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [2.0, True, -1, "3"], ids=repr)
def test_every_order_is_an_int_of_at_least_the_entry_points_least(entry, bad):
    call, error = ORDER_ENTRY_POINTS[entry]
    with pytest.raises(error, match="must be an int >=") as raised:
        call(bad)
    assert type(raised.value) is error


class TestMatrixField:
    def test_requires_polynomial(self):
        with pytest.raises(AlgebraError):
            MatrixField(lambda x: X, 0, 1)

    def test_requires_square_coefficients(self):
        bad = Poly.constant(Matrix([[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(DimensionMismatch):
            MatrixField(bad, 0, 1)

    @pytest.mark.parametrize("second", [Matrix.identity(3), Matrix([[1, 2, 3], [4, 5, 6]]), F(1, 2), 2])
    def test_every_coefficient_is_a_matrix_of_the_first_shape(self, second):
        with pytest.raises(DimensionMismatch):
            MatrixField(Poly({(0,): Matrix.identity(2), (1,): second}))

    @pytest.mark.parametrize("coeffs", [{(0,): X.to_float()}, {(0,): X, (1,): Y.to_float()}])
    def test_refuses_float_coefficients(self, coeffs):
        with pytest.raises(BackendMismatch):
            MatrixField(Poly(coeffs))

    def test_requires_a_nonzero_coefficient(self):
        with pytest.raises(AlgebraError, match="needs a nonzero coefficient"):
            MatrixField(Poly({(0,): Matrix.zeros(2)}))

    @pytest.mark.parametrize("exps", [(-1,), (1, 0)])
    def test_requires_one_variable_polynomial(self, exps):
        with pytest.raises(AlgebraError):
            MatrixField(Poly({exps: X}), 0, 1)

    def test_requires_nonempty_interval(self):
        with pytest.raises(AlgebraError):
            MatrixField(Poly.constant(X), 1, 1)

    def test_eval_and_integral(self):
        field = affine_field()
        assert field.eval(F(2)) == X + Y * F(2)
        primitive = field.integral()
        assert primitive.eval(F(0)) == Matrix.zeros(2)
        assert primitive.eval(F(2)) == X * F(2) + Y * F(2)


class TestMagnusContinuous:
    def test_first_order_is_the_integral(self):
        field = affine_field()
        for style in STYLES:
            q = magnus_continuous(field, 1, style)
            assert q[1] == field.integral()

    def test_affine_second_order_closed_form(self):
        # Q2(x) = -(x^3/12) [X, Y]
        for style in STYLES:
            q = magnus_continuous(affine_field(), 3, style)
            assert q[2] == Poly({(3,): commutator(X, Y) * F(-1, 12)})

    def test_affine_third_order_closed_form(self):
        # hand-integrated: Q3(x) = (x^5/240) [[X, Y], Y]
        for style in STYLES:
            q = magnus_continuous(affine_field(), 3, style)
            assert q[3] == Poly({(5,): commutator(commutator(X, Y), Y) * F(1, 240)})
            # for these generators [[X, Y], Y] = -2Y
            assert q[3] == Poly({(5,): Y * F(-1, 120)})

    def test_commuting_field_has_no_higher_terms(self):
        field = MatrixField(
            Poly.constant(X) + Poly({(1,): X * F(3)}), F(0), F(1)
        )
        for style in STYLES:
            q = magnus_continuous(field, 3, style)
            assert q[2].is_zero()
            assert q[3].is_zero()

    def test_styles_agree_on_random_quadratics(self):
        import random

        rng = random.Random(11)
        for _ in range(5):
            coeffs = {
                (d,): Matrix(
                    [[F(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
                )
                for d in range(3)
            }
            field = MatrixField(Poly(coeffs), F(0), F(1))
            explicit = magnus_continuous(field, 3, style="explicit")
            prelie = magnus_continuous(field, 3, style="prelie")
            for m in (1, 2, 3):
                assert (explicit[m] - prelie[m]).is_zero()

    def test_order_bounds(self):
        # only the explicit commutator integrals stop at order 3
        with pytest.raises(UnsupportedOrder):
            magnus_continuous(affine_field(), 4, "explicit")
        assert len(magnus_continuous(affine_field(), 4, "prelie")) == 4
        for style in STYLES:
            with pytest.raises(UnsupportedOrder):
                magnus_continuous(affine_field(), 0, style)
        with pytest.raises(AlgebraError):
            magnus_continuous(affine_field(), 2, style="nope")

    @settings(max_examples=15, deadline=None)
    @given(dim=st.sampled_from([2, 3]), degrees=st.sets(st.integers(0, 2), min_size=1),
           x0=st.sampled_from([F(0), F(-1, 2)]), data=st.data())
    def test_prelie_matches_the_references_past_order_three(self, dim, degrees, x0, data):
        # the pre-Lie recursion runs to any order: the Bernoulli fixed point
        # at orders 4 and 5, the commutator integrals through order 3
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        coeffs = {(d,): Matrix([[data.draw(entry) for _ in range(dim)] for _ in range(dim)])
                  for d in sorted(degrees)}
        assume(any(not c.is_zero() for c in coeffs.values()))
        field = MatrixField(Poly(coeffs), x0, x0 + 1)
        for order in (4, 5):
            assert magnus_continuous(field, order) == magnus_bernoulli_iterate(field, order, order)
        assert magnus_continuous(field, 3) == magnus_continuous(field, 3, "explicit")


    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_prelie_integrates_each_omega_degree_once(self, order, monkeypatch):
        # every left factor of the pass is some degree of Omega, whose
        # integral is also its Magnus term, so it is integrated once
        field = MatrixField(Poly({(0,): X, (1,): Y, (2,): X + Y * F(1, 2)}), F(-1, 2), F(1))
        want = magnus_bernoulli_iterate(field, order, order)
        integrate, calls = Poly.integrate, []

        def counted(poly, *args):
            calls.append(poly)
            return integrate(poly, *args)

        monkeypatch.setattr(Poly, "integrate", counted)
        assert magnus_continuous(field, order) == want
        assert len(calls) == order


class TestBernoulliIteration:
    def test_depth_must_cover_order(self):
        with pytest.raises(UnsupportedOrder):
            magnus_bernoulli_iterate(affine_field(), 2, 3)

    def test_order_one_is_integral_at_any_depth(self):
        field = affine_field()
        for depth in (1, 2, 5):
            q = magnus_bernoulli_iterate(field, depth, 1)
            assert q[1] == field.integral()

    def test_matches_closed_forms(self):
        field = affine_field()
        direct = magnus_continuous(field, 3)
        iterated = magnus_bernoulli_iterate(field, 3, 3)
        for m in (1, 2, 3):
            assert (direct[m] - iterated[m]).is_zero()

    def test_extra_depth_is_stable(self):
        field = affine_field()
        assert all(
            (a - b).is_zero()
            for a, b in zip(
                magnus_bernoulli_iterate(field, 3, 3).values(),
                magnus_bernoulli_iterate(field, 6, 3).values(),
            )
        )


class TestDysonContinuous:
    def test_matches_simplex_oracle(self):
        field = affine_field()
        nested = dyson_continuous(field, 3)
        oracle = dyson_simplex_oracle(field, 3)
        for m in (1, 2, 3):
            assert (nested[m] - oracle[m]).is_zero()

    def test_exponential_of_magnus_is_dyson(self):
        field = affine_field()
        q = magnus_continuous(field, 3)
        t = dyson_continuous(field, 3)
        for x in (F(1), F(1, 2), F(2)):
            q_series = AlphaSeries.from_parts(
                3, {m: q[m].eval(x) for m in q}, like=Matrix.identity(2)
            )
            t_series = AlphaSeries.from_parts(
                3, {m: t[m].eval(x) for m in t}, like=Matrix.identity(2)
            ) + AlphaSeries.one(3, like=Matrix.identity(2))
            assert q_series.exp() == t_series

    def test_constant_field_words(self):
        field = MatrixField(Poly.constant(X), F(0), F(1))
        t = dyson_continuous(field, 3)
        # plain powers x^m/m! of a constant operator
        assert t[2] == Poly({(2,): X * X * F(1, 2)})
        assert t[3] == Poly({(3,): X * X * X * F(1, 6)})


class TestDiscretize:
    def test_left_endpoint_sampling(self):
        field = affine_field()
        fam = discretize(field, F(1, 4))
        assert fam.n_sites == 4
        assert fam.entry(1, 1) == X * F(1, 4)
        assert fam.entry(2, 1) == (X + Y * F(1, 4)) * F(1, 4)

    def test_single_site(self):
        field = affine_field()
        fam = discretize(field, F(1))
        assert fam.n_sites == 1
        assert fam.entry(1, 1) == X

    def test_constant_field_first_order_exact(self):
        field = MatrixField(Poly.constant(Y), F(0), F(1))
        for delta in (F(1, 3), F(1, 8)):
            fam = discretize(field, delta)
            q = magnus_oracle(fam, 1)
            assert q[0] == Y

    def test_evaluates_no_polynomial(self, monkeypatch):
        field = MatrixField(Poly({(0,): X, (2,): Y * F(3, 2)}), F(-1, 2), F(1))
        want = [field.eval(F(-1, 2) + n * F(1, 4)) * F(1, 4) for n in range(6)]

        def refuse(*args):
            raise AssertionError("discretize evaluated the field's polynomial")

        monkeypatch.setattr(Poly, "eval", refuse)
        fam = discretize(field, F(1, 4))
        assert [fam.entry(n, 1) for n in range(1, 7)] == want

    def test_step_validation(self):
        field = affine_field()
        with pytest.raises(AlgebraError):
            discretize(field, 0)
        with pytest.raises(AlgebraError):
            discretize(field, 2)
        with pytest.raises(AlgebraError):
            discretize(field, F(2, 5))


@st.composite
def matrix_polys(draw):
    """An exact 2x2 polynomial of degree at most 2, possibly zero."""
    entry = st.builds(F, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    return Poly({(k,): Matrix([[draw(entry) for _ in range(2)] for _ in range(2)]) for k in range(3)})


def pre_lie_associator(field, a, b, c):
    prod = partial(field_prelie, field)
    return prod(prod(a, b), c) - prod(a, prod(b, c))


@settings(max_examples=30, deadline=None)
@given(a=matrix_polys(), b=matrix_polys(), c=matrix_polys(), x0=st.sampled_from([F(0), F(-1, 2), F(2, 3)]))
def test_field_prelie_is_a_left_pre_lie_product(a, b, c, x0):
    # (A |> B)(x) = [integral of A from x0, B(x)]; its associator is
    # symmetric in its first two arguments, exactly
    field = MatrixField(Poly.constant(X), x0, x0 + 1)
    assert field_prelie(field, a, b) == commutator(a.integrate(x0), b)
    assert pre_lie_associator(field, a, b, c) == pre_lie_associator(field, b, a, c)


def test_field_prelie_is_not_right_pre_lie():
    # the associator is not symmetric in its last two arguments, so the
    # identity above is not one that every bilinear product passes
    field = MatrixField(Poly.constant(X), F(0), F(1))
    a, b, c = Poly.constant(X), Poly.constant(Y), Poly({(1,): X})
    assert pre_lie_associator(field, a, b, c) == pre_lie_associator(field, b, a, c)
    assert pre_lie_associator(field, a, b, c) != pre_lie_associator(field, a, c, b)


@st.composite
def grids(draw):
    """A field's coefficients of dimension 2, 3 or 8 (the row store), its
    base point, a step p/q and a number of sites."""
    dim = draw(st.sampled_from([2, 3, 8]))
    degrees = draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))
    # mostly zeros, so that the row store holds some positions and not others
    entry = st.one_of(st.just(F(0)), st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4])))
    entries = st.lists(entry, min_size=dim * dim, max_size=dim * dim)
    coeffs = {(k,): Matrix([e[i:i + dim] for i in range(0, dim * dim, dim)])
              for k, e in zip(sorted(degrees), (draw(entries) for _ in degrees))}
    x0 = draw(st.builds(F, st.integers(-3, 3), st.sampled_from([1, 2, 3])))
    delta = draw(st.builds(F, st.integers(1, 3), st.integers(1, 5)))
    return coeffs, x0, delta, draw(st.integers(1, 6))


@settings(max_examples=80, deadline=None)
@given(grids())
@example(({(0,): X, (3,): Y * F(2, 3)}, F(-1, 2), F(3, 4), 4))
@example(({(0,): Y * F(5, 2)}, F(1, 3), F(2, 3), 3))
# the value vanishes at x = 1 on both stores
@example(({(0,): Matrix.identity(8), (1,): Matrix.identity(8) * -1}, F(0), F(1, 2), 4))
@example(({(0,): Matrix.identity(2), (2,): Matrix.identity(2) * -1}, F(-2), F(3, 2), 4))
def test_discretize_is_the_field_at_each_left_endpoint(case):
    coeffs, x0, delta, n = case
    poly = Poly(coeffs)
    assume(not poly.is_zero())
    field = MatrixField(poly, x0, x0 + n * delta)
    fam = discretize(field, delta)
    assert fam.n_sites == n
    for site in range(1, n + 1):
        got = fam.entry(site, 1)
        want = field.eval(x0 + (site - 1) * delta) * delta
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
    # the family the public constructor builds from the same entries
    public = SiteOperatorFamily(n, dict(fam.entries), direction=FORWARD, like=Matrix.identity(field.dim))
    assert [getattr(fam, a) for a in SiteOperatorFamily.__slots__] == [
        getattr(public, a) for a in SiteOperatorFamily.__slots__]


def test_the_public_family_constructor_still_checks_every_entry():
    like = Matrix.identity(2)
    for bad, error in ((Matrix.identity(3), DimensionMismatch), (like.to_float(), BackendMismatch),
                       (F(1), BackendMismatch)):
        with pytest.raises(error):
            SiteOperatorFamily(2, {(1, 1): like, (2, 1): bad}, direction=FORWARD, like=like)


class TestConvergence:
    def test_affine_field_rates(self):
        field = affine_field()
        deltas = [F(1, 2 ** k) for k in range(2, 7)]
        table = convergence_study(field, deltas)
        # left-endpoint first-order error is delta/2 exactly at order 1
        assert table.errors[1] == [float(d / 2) for d in deltas]
        # the rates of the last two refinements, each on its own
        assert table.rates[1][-2:] == [pytest.approx(1.0)] * 2
        assert all(0.85 <= r <= 1.15 for r in table.rates[2][-2:])
        # order-2 errors shrink monotonically
        assert all(a > b for a, b in zip(table.errors[2], table.errors[2][1:]))

    def test_constant_commuting_field(self):
        field = MatrixField(Poly.constant(X), F(0), F(1))
        table = convergence_study(field, [F(1, 4), F(1, 8), F(1, 16)])
        assert table.errors[1] == [0.0, 0.0, 0.0]
        # no error to shrink: every rate estimate is NaN
        assert all(math.isnan(r) for rates in table.rates.values() for r in rates)

    def test_csv_shape(self):
        field = affine_field()
        table = convergence_study(field, [F(1, 4), F(1, 8), F(1, 16)])
        rows = list(table.csv_rows())
        assert rows[0] == "delta,err_q1,err_q2,err_q3,rate_q1,rate_q2,rate_q3"
        assert len(rows) == 4
        assert all(row.count(",") == 6 for row in rows[1:])

    def test_needs_three_decreasing_steps(self):
        field = affine_field()
        with pytest.raises(AlgebraError):
            convergence_study(field, [F(1, 4), F(1, 8)])
        with pytest.raises(AlgebraError):
            convergence_study(field, [F(1, 8), F(1, 4), F(1, 16)])


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 2.5, -3.0])
def test_expm_matches_rotation(t):
    rotation = expm(Matrix([[0, t], [-t, 0]]))
    expected = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
    for row, want in zip(rotation.data, expected):
        for got, value in zip(row, want):
            assert abs(got - value) <= 1e-14


def test_import_loads_neither_numpy_nor_scipy():
    code = "import sys, ordexp; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.stdout.strip() == "[]"


class TestOpenEvolution:
    def test_constant_field_small_defect(self):
        field = MatrixField(Poly.constant(Matrix([[0, 1], [1, 0]])), F(0), F(2))
        defect = open_evolution_residual(
            field, Matrix.identity(2), 1.0, 1e-4, alpha=1 / 20
        )
        # pure forward-difference error of an exact exponential flow
        assert 1e-8 < defect <= 1e-6

    def test_alpha_zero_is_constant(self):
        field = MatrixField(Poly.constant(Matrix([[0, 1], [1, 0]])), F(0), F(2))
        assert open_evolution_residual(field, Matrix.identity(2), 1.0, 1e-4, alpha=0.0) == 0.0

    def test_halving_halves_residual(self):
        field = affine_field()
        k = Matrix([[1, 2], [0, 1]])
        values = [
            open_evolution_residual(field, k, 0.5, d, alpha=1 / 200)
            for d in (1e-2, 5e-3, 2.5e-3)
        ]
        for a, b in zip(values, values[1:]):
            assert 1.8 <= a / b <= 2.2
