"""Operator-valued Laurent polynomials in one or more variables."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp.errors import BackendMismatch, DimensionMismatch, SingularOperator
from ordexp.matrix import Matrix
from ordexp.poly import Poly, poly_commutator

fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
poly_st = st.builds(
    lambda cs: Poly({(d,): c for d, c in enumerate(cs)}),
    st.lists(fractions, min_size=0, max_size=4),
)
nonzero = fractions.filter(bool)
matrices = st.lists(fractions, min_size=4, max_size=4).map(lambda v: Matrix([v[:2], v[2:]]))

# Laurent polynomials with exponents in -2..2, keyed by (variables, coefficient kind).
COEFFS = {"fraction": (fractions, Fraction(0)), "matrix": (matrices, Matrix.zeros(2))}
CASES = [(n, kind) for n in (1, 2) for kind in sorted(COEFFS)]


def laurent(nvars, kind):
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    return st.dictionaries(exps, COEFFS[kind][0], max_size=4).map(Poly)


def value(p, point, kind):
    """p at `point`, with the zero polynomial read as the zero of its coefficients."""
    return COEFFS[kind][1] if p.is_zero() else p.eval(*point)


def test_constant_and_variable():
    x = Poly.variable()
    c = Poly.constant(Fraction(3))
    p = c + x * x
    assert p.eval(Fraction(2)) == 7
    assert p.exponent_range(0) == (0, 2)


def test_zero_polynomial():
    assert Poly().is_zero()
    assert (Poly.variable() - Poly.variable()).is_zero()
    assert Poly().exponent_range(0) == (0, 0)
    assert Poly().eval(Fraction(2)) == 0


@settings(max_examples=50, deadline=None)
@given(poly_st, poly_st, poly_st)
def test_ring_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a


@settings(max_examples=50, deadline=None)
@given(poly_st, fractions)
def test_eval_is_ring_map(p, x):
    q = p * p + p
    assert q.eval(x) == p.eval(x) * p.eval(x) + p.eval(x)


def test_integrate_shifts_degrees():
    x = Poly.variable()
    p = Poly.constant(Fraction(2)) + 3 * x
    f = p.integrate()
    # antiderivative of 2 + 3x with F(0) = 0
    assert f == 2 * x + Fraction(3, 2) * x * x
    assert f.eval(Fraction(0)) == 0


def test_integrate_vanishes_at_base_point():
    x = Poly.variable()
    p = x * x
    f = p.integrate(x0=Fraction(2))
    assert f.eval(Fraction(2)) == 0
    assert f.eval(Fraction(3)) == Fraction(27 - 8, 3)


def test_integrate_laurent():
    # the integral of x^-2 from 1 is 1 - 1/x; from 0 it has a pole
    p = Poly({(-2,): Fraction(1)})
    assert p.integrate(Fraction(1)) == Poly({(-1,): Fraction(-1), (0,): Fraction(1)})
    with pytest.raises(SingularOperator):
        p.integrate()


def test_integrate_rejects_reciprocal_and_two_variables():
    with pytest.raises(BackendMismatch):
        Poly({(-1,): Fraction(1)}).integrate(Fraction(1))
    with pytest.raises(DimensionMismatch):
        Poly({(1, 0): Fraction(1)}).integrate()


def test_matrix_coefficients():
    a = Matrix([[0, 1], [0, 0]])
    b = Matrix([[0, 0], [1, 0]])
    p = Poly({(0,): a, (1,): b})
    v = p.eval(Fraction(2))
    assert v == a + 2 * b
    comm = poly_commutator(p, Poly.constant(a))
    assert comm.eval(Fraction(2)) == v * a - a * v


def test_map_coeffs():
    p = Poly({(0,): Fraction(1), (2,): Fraction(4)})
    q = p.map_coeffs(lambda c: c * 2)
    assert q == Poly({(0,): Fraction(2), (2,): Fraction(8)})


def test_str_sorted_by_degree():
    p = Poly({(2,): Fraction(1), (0,): Fraction(5)})
    s = str(p)
    assert s.index("5") < s.index("x^2")


def test_laurent_eval():
    m = Matrix.identity(2)
    p = Poly({(-2,): m, (1,): m})
    assert p.eval(Fraction(2)) == m * (Fraction(1, 4) + Fraction(2))


def test_pole_raises():
    with pytest.raises(SingularOperator):
        Poly({(-1,): Matrix.identity(2)}).eval(Fraction(0))


def test_product_adds_exponents():
    m = Matrix.identity(2)
    p = Poly({(1,): m})
    q = Poly({(-3,): m * Fraction(2)})
    assert (p * q).coeffs == {(-2,): m * Fraction(2)}


def test_cancellation_prunes():
    p = Poly({(1,): Matrix.identity(2)})
    assert (p - p).is_zero()


def test_shift_and_restrict():
    m = Matrix.identity(2)
    p = Poly({(-1, 0): m, (0, -2): m})
    assert set(p.shift((1, 2)).coeffs) == {(0, 2), (1, 0)}
    kept = p.restrict_floor((-1, -1))
    assert set(kept.coeffs) == {(-1, 0)}


def test_variable_count_mismatch():
    m = Matrix.identity(2)
    with pytest.raises(DimensionMismatch):
        Poly({(1,): m, (1, 0): m})
    with pytest.raises(DimensionMismatch):
        Poly({(1,): m}) + Poly({(1, 0): m})
    with pytest.raises(DimensionMismatch):
        Poly({(1,): m}) * Poly({(1, 0): m})
    with pytest.raises(DimensionMismatch):
        Poly({(1, 0): m}).eval(Fraction(1))


def test_exponents_are_tuples():
    with pytest.raises(DimensionMismatch):
        Poly({1: Fraction(1)})
    with pytest.raises(DimensionMismatch):
        Poly({(): Fraction(1)})


@pytest.mark.parametrize("nvars,kind", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_eval_is_ring_map_at_nonzero_points(nvars, kind, data):
    p, q = data.draw(laurent(nvars, kind)), data.draw(laurent(nvars, kind))
    point = data.draw(st.tuples(*[nonzero] * nvars))
    assert value(p + q, point, kind) == value(p, point, kind) + value(q, point, kind)
    assert value(p * q, point, kind) == value(p, point, kind) * value(q, point, kind)


@pytest.mark.parametrize("nvars,kind", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shift_is_multiplying_by_the_monomial(nvars, kind, data):
    p = data.draw(laurent(nvars, kind))
    exps = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
    assert p.shift(exps) == p * Poly({exps: Fraction(1)})


@pytest.mark.parametrize("nvars,kind", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_restrict_floor_keeps_exactly_the_monomials_above(nvars, kind, data):
    p = data.draw(laurent(nvars, kind))
    floors = data.draw(st.tuples(*[st.integers(-2, 2)] * nvars))
    kept, dropped = p.restrict_floor(floors), p - p.restrict_floor(floors)
    assert kept + dropped == p
    assert all(all(a >= f for a, f in zip(e, floors)) for e in kept.coeffs)
    assert all(any(a < f for a, f in zip(e, floors)) for e in dropped.coeffs)


@pytest.mark.parametrize("nvars,kind", CASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_to_float_converts_each_coefficient(nvars, kind, data):
    p = data.draw(laurent(nvars, kind))
    q = p.to_float()
    assert set(q.coeffs) == set(p.coeffs)
    for e, c in p.coeffs.items():
        if kind == "matrix":
            assert not q.coeffs[e].is_exact() and q.coeffs[e] == c.to_float()
        else:
            assert isinstance(q.coeffs[e], float) and q.coeffs[e] == float(c)
