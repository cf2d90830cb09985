"""Truncated power series over the operator backends."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp.errors import AlgebraError, BackendMismatch, DimensionMismatch, UnsupportedOrder
from ordexp.freealg import FreeElement
from ordexp.matrix import Matrix, commutator
from ordexp.ops import invert
from ordexp.series import AlphaSeries

ORDER = 4

fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def scalar_series(draw, unit=False):
    coeffs = [draw(fractions) for _ in range(ORDER + 1)]
    if unit:
        coeffs[0] = Fraction(1)
    return AlphaSeries(coeffs)


series_st = st.builds(
    lambda cs: AlphaSeries(cs),
    st.lists(fractions, min_size=ORDER + 1, max_size=ORDER + 1),
)
unit_series_st = series_st.map(
    lambda s: AlphaSeries([Fraction(1)] + list(s.coeffs[1:]))
)
nilpotent_series_st = series_st.map(
    lambda s: AlphaSeries([Fraction(0)] + list(s.coeffs[1:]))
)


def rand_matrix_series(rng, order=ORDER, size=2):
    return AlphaSeries(
        [
            Matrix(
                [
                    [Fraction(rng.randint(-3, 3)) for _ in range(size)]
                    for _ in range(size)
                ]
            )
            for _ in range(order + 1)
        ]
    )


def test_order_and_coeff_padding():
    s = AlphaSeries([Fraction(1), Fraction(2)])
    assert s.order == 1
    assert s.coeff(0) == 1
    assert s.coeff(5) == 0


def test_one_zero_constructors():
    one = AlphaSeries.one(3, like=Fraction(1))
    zero = AlphaSeries.zero(3, like=Fraction(1))
    assert one.coeff(0) == 1 and one.coeff(1) == 0
    assert zero.is_zero()
    m_one = AlphaSeries.one(2, like=Matrix.identity(2))
    assert m_one.coeff(0) == Matrix.identity(2)


def test_from_parts():
    s = AlphaSeries.from_parts(3, {1: Fraction(5)}, like=Fraction(1))
    assert [s.coeff(k) for k in range(4)] == [0, 5, 0, 0]


def test_mul_truncates():
    s = AlphaSeries([Fraction(0), Fraction(1)])
    sq = s * s
    assert sq.order == 1
    assert sq.is_zero()  # alpha^2 is beyond order 1


@settings(max_examples=60, deadline=None)
@given(series_st, series_st, series_st)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series_st, series_st, series_st)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(nilpotent_series_st)
def test_exp_log_round_trip_scalar(s):
    assert s.exp().log() == s


@settings(max_examples=40, deadline=None)
@given(unit_series_st)
def test_log_exp_round_trip_scalar(s):
    assert s.log().exp() == s


@settings(max_examples=40, deadline=None)
@given(unit_series_st)
def test_inverse_round_trip_scalar(s):
    inv = s.inverse()
    assert s * inv == AlphaSeries.one(ORDER, like=Fraction(1))
    assert inv * s == AlphaSeries.one(ORDER, like=Fraction(1))


def test_exp_log_round_trip_matrix():
    rng = random.Random(7)
    for _ in range(10):
        s = rand_matrix_series(rng)
        nil = AlphaSeries([Matrix.zeros(2)] + list(s.coeffs[1:]))
        assert nil.exp().log() == nil


def test_inverse_matrix_noncommutative():
    rng = random.Random(23)
    one = AlphaSeries.one(ORDER, like=Matrix.identity(2))
    for _ in range(10):
        s = rand_matrix_series(rng)
        unit = AlphaSeries([Matrix.identity(2)] + list(s.coeffs[1:]))
        assert unit * unit.inverse() == one
        assert unit.inverse() * unit == one


def test_exp_log_round_trip_free():
    x = FreeElement.gen("x")
    y = FreeElement.gen("y")
    s = AlphaSeries.from_parts(
        3, {1: x, 2: y}, like=FreeElement.one()
    )
    assert s.exp().log() == s


def test_exp_of_sum_needs_commuting_terms():
    # exp(alpha x) * exp(alpha y) != exp(alpha (x+y)) in the free algebra
    x = FreeElement.gen("x")
    y = FreeElement.gen("y")
    ex = AlphaSeries.from_parts(2, {1: x}, like=FreeElement.one()).exp()
    ey = AlphaSeries.from_parts(2, {1: y}, like=FreeElement.one()).exp()
    es = AlphaSeries.from_parts(2, {1: x + y}, like=FreeElement.one()).exp()
    diff = (ex * ey - es).coeff(2)
    assert diff == (x * y - y * x) * Fraction(1, 2)


def test_exp_rejects_nonzero_constant_term():
    s = AlphaSeries([Fraction(1), Fraction(1)])
    with pytest.raises(AlgebraError):
        s.exp()


def test_log_rejects_nonunit_constant_term():
    s = AlphaSeries([Fraction(0), Fraction(1)])
    with pytest.raises(AlgebraError):
        s.log()


def test_flip_alternates_signs():
    s = AlphaSeries([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    assert [s.flip().coeff(k) for k in range(4)] == [1, -2, 3, -4]
    assert s.flip().flip() == s


def test_truncate():
    s = AlphaSeries([Fraction(1), Fraction(2), Fraction(3)])
    t = s.truncate(1)
    assert t.order == 1
    assert t.coeff(1) == 2


@pytest.mark.parametrize("order", [-1, -3, -4])
def test_truncate_rejects_a_negative_order(order):
    s = AlphaSeries([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    with pytest.raises(UnsupportedOrder, match="truncation order"):
        s.truncate(order)
    assert s.truncate(0) == AlphaSeries([Fraction(1)])


@pytest.mark.parametrize("order", [-1, -2])
def test_constructors_reject_a_negative_order(order):
    # `one` gave an order-0 series, `zero` and `from_parts` a DimensionMismatch
    like = Fraction(1)
    for call in (lambda: AlphaSeries.one(order, like), lambda: AlphaSeries.zero(order, like),
                 lambda: AlphaSeries.from_parts(order, {0: like}, like)):
        with pytest.raises(UnsupportedOrder, match="truncation order"):
            call()
    assert AlphaSeries.one(0, like) == AlphaSeries.from_parts(0, {0: like}, like) == AlphaSeries([like])
    assert AlphaSeries.zero(0, like) == AlphaSeries([0])


def test_scale():
    s = AlphaSeries([Fraction(1), Fraction(2)])
    assert s.scale(Fraction(1, 2)) == AlphaSeries([Fraction(1, 2), Fraction(1)])


def test_backend_mismatch_rejected():
    s = AlphaSeries([Fraction(1)])
    m = AlphaSeries([Matrix.identity(2)])
    with pytest.raises(BackendMismatch):
        s + m


def test_ad_and_ad_pow():
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    h = Matrix([[1, 0], [0, -1]])
    # ad_{e12}^n(e21) as nested commutators: e21, h, -2 e12, then zero
    assert commutator(e12, e21) == h
    assert commutator(e12, commutator(e12, e21)) == -2 * e12
    assert commutator(e12, commutator(e12, commutator(e12, e21))).is_zero()


def test_log_of_geometric_series():
    # log(1/(1-alpha)) = alpha + alpha^2/2 + alpha^3/3 + ...
    geo = AlphaSeries([Fraction(1)] * 5)
    logs = geo.log()
    assert [logs.coeff(k) for k in range(5)] == [
        0,
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(1, 4),
    ]


# Round trips as properties over every coefficient backend: (coefficient
# strategy, unit).  Free coefficients are noncommuting combinations a x + b y.
small = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)
X, Y = FreeElement.gen("x"), FreeElement.gen("y")
BACKENDS = {
    "scalar": (small, Fraction(1)),
    "matrix": (st.lists(small, min_size=4, max_size=4).map(lambda v: Matrix([v[:2], v[2:]])),
               Matrix.identity(2)),
    "free": (st.tuples(small, small).map(lambda ab: X * ab[0] + Y * ab[1]), FreeElement.one()),
}


def draw_series(data, kind, constant):
    coeff, _ = BACKENDS[kind]
    return AlphaSeries([constant] + data.draw(st.lists(coeff, min_size=3, max_size=3)))


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_exp_log_round_trip_every_backend(kind, data):
    one = BACKENDS[kind][1]
    unit = draw_series(data, kind, one)
    assert unit.log().exp() == unit
    nil = draw_series(data, kind, one - one)
    assert nil.exp().log() == nil


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_round_trip_every_backend(kind, data):
    one = BACKENDS[kind][1]
    x = draw_series(data, kind, one * data.draw(small.filter(bool)))
    assert x * x.inverse() == AlphaSeries.one(3, like=one)
    assert x.inverse() * x == AlphaSeries.one(3, like=one)


# Constant terms that make each of exp, log and inverse defined, per backend.
CONSTANTS = {
    "exp": lambda c: c - c,
    "log": lambda c: c * 0 + one_of(c),
    "inverse": lambda c: (c * 0 + one_of(c)) * 3,
}


def one_of(c):
    if isinstance(c, Matrix):
        one = Matrix.identity(c.rows)
        return one if c.is_exact() else one.to_float()
    if isinstance(c, FreeElement):
        return FreeElement.one()
    return 1.0 if isinstance(c, float) else Fraction(1)


# Coefficients above the constant term: -0.0 and rounding floats, rationals,
# letters, and float scalars over an exact scalar constant.
UNIT_FREE_SERIES = [
    [Matrix([[0.1, -0.0], [Fraction(1, 3), 2.5]]), Matrix([[-0.0, -0.0], [-0.0, -0.0]]),
     Matrix([[1.5, -1 / 3], [0.0, 7.0]])],
    [Matrix([[Fraction(1, 3), 0], [-2, 5]]), Matrix.zeros(2), Matrix([[1, Fraction(-1, 2)], [3, 0]])],
    [0.1, -0.0, -1 / 3],
    [Fraction(1, 3), 0, 4],
    [Fraction(1, 3), -0.0, 0.1],
    [X * Fraction(1, 2) + Y, FreeElement.zero(), X * Y - Y * X],
]


def sum_by_products(s, method):
    """`method` of `s` as its defining sum, every power the series product of
    the one before, the first power the product of the series one and `u`."""
    D, c0 = s.order, s.coeffs[0]
    one = AlphaSeries.one(D, c0)
    if method == "exp":
        result = term = one
        for k in range(1, D + 1):
            term = (term * s).scale(Fraction(1, k))
            result = result + term
        return result
    if method == "log":
        c0inv = None
        u, result, weight = s - one, AlphaSeries.zero(D, c0), lambda k: Fraction((-1) ** (k + 1), k)
    else:
        c0inv = invert(c0)
        u, result, weight = AlphaSeries([c0inv * c for c in s.coeffs]) - one, one, lambda k: (-1) ** k
    power = one
    for k in range(1, D + 1):
        power = power * u
        result = result + power.scale(weight(k))
    return result if c0inv is None else AlphaSeries([c * c0inv for c in result.coeffs])


@pytest.mark.parametrize("coeffs", UNIT_FREE_SERIES)
@pytest.mark.parametrize("method", sorted(CONSTANTS))
def test_first_power_keeps_the_bits_of_the_product_by_one(coeffs, method, bits):
    s = AlphaSeries([CONSTANTS[method](coeffs[0])] + coeffs)
    assert bits(getattr(s, method)()) == bits(sum_by_products(s, method))


# Float matrix coefficients, zeros among them, over an exact constant term:
# two backends in one series, which every one of exp, log and inverse refuses.
MIXED_SERIES = [Matrix([[1, 2], [0, 1]]), Matrix([[-0.0, 0.0], [0.0, 0.0]]),
                Matrix([[0.5, -0.0], [0.1, 3.0]])]


@pytest.mark.parametrize("method", sorted(CONSTANTS))
def test_float_matrices_over_an_exact_constant_are_refused(method):
    s = AlphaSeries([CONSTANTS[method](MIXED_SERIES[0])] + MIXED_SERIES)
    with pytest.raises(BackendMismatch):
        getattr(s, method)()


# Coefficients of two operator kinds or shapes, and the error that names them.
MIXED_KINDS = [
    ([Fraction(1), Matrix.identity(2)], BackendMismatch),
    ([Matrix.identity(2), Fraction(1, 2), Matrix.identity(2)], BackendMismatch),
    ([Fraction(1), Fraction(1, 2), FreeElement.gen("x")], BackendMismatch),
    ([Matrix.identity(2), Matrix.identity(3)], DimensionMismatch),
]


@pytest.mark.parametrize("method", ["log", "inverse"])
@pytest.mark.parametrize("coeffs,error", MIXED_KINDS)
def test_log_and_inverse_refuse_coefficients_of_another_kind(coeffs, error, method):
    with pytest.raises(error):
        getattr(AlphaSeries(coeffs), method)()
