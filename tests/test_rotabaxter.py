"""Rota-Baxter, tridendriform, and pre-Lie laws on site sequences."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp import ops
from ordexp.errors import BackendMismatch, DimensionMismatch
from ordexp.freealg import FreeElement
from ordexp.matrix import SPARSE_FROM, Matrix, stack_prelie_left
from ordexp.poly import Poly
from ordexp.rotabaxter import (
    IntegralOp,
    PartialSumOp,
    SiteSequence,
    check_prelie_left,
    check_prelie_right,
    check_tridendriform,
    partial_sum,
    prelie_left,
    prelie_right,
    rb_residual,
    trid_apply,
    trid_dot,
    trid_prec,
    trid_star,
    trid_succ,
)

fractions = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)
scalar_seq = st.builds(
    lambda v: SiteSequence(v), st.lists(fractions, min_size=1, max_size=5)
)


def rand_matrix_seq(rng, n_sites=4, size=2):
    return SiteSequence(
        [
            Matrix(
                [
                    [Fraction(rng.randint(-3, 3)) for _ in range(size)]
                    for _ in range(size)
                ]
            )
            for _ in range(n_sites)
        ]
    )


def test_site_sequence_basics():
    s = SiteSequence([Fraction(1), Fraction(2), Fraction(3)])
    assert s.n_sites == 3
    assert s.at(1) == 1 and s.at(3) == 3
    assert (s + s).at(2) == 4
    assert (s - s).is_zero()
    assert (2 * s).at(3) == 6
    with pytest.raises(DimensionMismatch):
        SiteSequence([])


def test_partial_sum_is_strict():
    s = SiteSequence([Fraction(1), Fraction(10), Fraction(100)])
    assert partial_sum(s, 1) == 0
    assert partial_sum(s, 2) == 1
    assert partial_sum(s, 3) == 11
    r = PartialSumOp()(s)
    assert [r.at(n) for n in (1, 2, 3)] == [0, 1, 11]


def float_matrix_seq(rng, n_sites=5, size=2):
    return SiteSequence(
        [Matrix([[rng.uniform(-1, 1) for _ in range(size)] for _ in range(size)])
         for _ in range(n_sites)]
    )


@pytest.mark.parametrize("make", [rand_matrix_seq, float_matrix_seq])
def test_cached_partial_sums_equal_a_fresh_accumulation(make):
    rng = random.Random(11)
    s = make(rng)
    fresh = SiteSequence(s.values)
    r = PartialSumOp()(s)
    # float == compares storage, so the cache must round as partial_sum does
    assert list(r.values) == [partial_sum(fresh, n) for n in range(1, s.n_sites + 1)]
    assert PartialSumOp()(s) == r
    # == reads the values only: a cached and an uncached copy are equal
    assert s == fresh and fresh == s
    assert prelie_left(s, fresh) == prelie_left(fresh, SiteSequence(s.values))
    assert trid_succ(s, s) == trid_succ(SiteSequence(s.values), s)


@settings(max_examples=40, deadline=None)
@given(scalar_seq)
def test_cached_partial_sums_on_scalars(s):
    r = PartialSumOp()(s)
    assert list(r.values) == [partial_sum(s, n) for n in range(1, s.n_sites + 1)]
    assert PartialSumOp()(s) == r == PartialSumOp()(SiteSequence(s.values))


def test_rb_weight_one_scalar_example():
    a = SiteSequence([Fraction(1), Fraction(2), Fraction(3)])
    b = SiteSequence([Fraction(5), Fraction(-1), Fraction(2)])
    assert rb_residual(PartialSumOp(), a, b).is_zero()


@settings(max_examples=60, deadline=None)
@given(scalar_seq, scalar_seq)
def test_rb_weight_one_property(a, b):
    if a.n_sites != b.n_sites:
        return
    assert rb_residual(PartialSumOp(), a, b).is_zero()


def test_rb_weight_one_matrix():
    rng = random.Random(2)
    for _ in range(10):
        a = rand_matrix_seq(rng)
        b = rand_matrix_seq(rng)
        assert rb_residual(PartialSumOp(), a, b).is_zero()


def test_rb_weight_zero_integral():
    x = Poly({(1,): Fraction(1)})
    a = Poly.constant(Fraction(2)) + x
    b = x * x - Poly.constant(Fraction(1))
    assert rb_residual(IntegralOp(), a, b).is_zero()


def test_rb_weight_zero_matrix_coeffs():
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    x = Poly({(1,): Fraction(1)})
    a = Poly.constant(e12) + x * Poly.constant(e21)
    b = Poly.constant(e21) * x
    assert rb_residual(IntegralOp(x0=Fraction(1)), a, b).is_zero()


def test_trid_pointwise_values():
    a = SiteSequence([Fraction(2), Fraction(3)])
    b = SiteSequence([Fraction(5), Fraction(7)])
    # (a < b)_n = a_n R(b)_n, (a > b)_n = R(a)_n b_n, (a . b)_n = a_n b_n
    assert [trid_prec(a, b).at(n) for n in (1, 2)] == [0, 15]
    assert [trid_succ(a, b).at(n) for n in (1, 2)] == [0, 14]
    assert [trid_dot(a, b).at(n) for n in (1, 2)] == [10, 21]
    assert trid_star(a, b) == trid_prec(a, b) + trid_succ(a, b) + trid_dot(a, b)


def test_trid_apply_dispatch():
    a = SiteSequence([Fraction(2), Fraction(3)])
    b = SiteSequence([Fraction(5), Fraction(7)])
    assert trid_apply("prec", a, b) == trid_prec(a, b)
    assert trid_apply("succ", a, b, n=2) == 14
    assert trid_apply("dot", a, b, n=1) == 10
    assert trid_apply("star", a, b) == trid_star(a, b)
    with pytest.raises(ValueError):
        trid_apply("bogus", a, b)


def test_tridendriform_axioms_scalar():
    rng = random.Random(3)
    for _ in range(15):
        seqs = [
            SiteSequence([Fraction(rng.randint(-4, 4)) for _ in range(4)])
            for _ in range(3)
        ]
        for res in check_tridendriform(*seqs):
            assert res.is_zero()


def test_tridendriform_axioms_matrix():
    rng = random.Random(5)
    for _ in range(8):
        a, b, c = (rand_matrix_seq(rng) for _ in range(3))
        for res in check_tridendriform(a, b, c):
            assert res.is_zero()


def test_tridendriform_residuals_round_as_the_spelled_out_axioms():
    # check_tridendriform makes each piece of (a, b) and (b, c) once, and the
    # star row reuses two axioms' products; on floats its residuals must keep
    # every bit of the axioms and of star associativity as printed
    rng = random.Random(11)
    p, s, d, star = trid_prec, trid_succ, trid_dot, trid_star
    for _ in range(4):
        a, b, c = (
            SiteSequence([Matrix([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
                          for _ in range(4)])
            for _ in range(3)
        )
        printed = [
            p(p(a, b), c) - p(a, star(b, c)),
            p(s(a, b), c) - s(a, p(b, c)),
            s(a, s(b, c)) - s(star(a, b), c),
            d(d(a, b), c) - d(a, d(b, c)),
            d(s(a, b), c) - s(a, d(b, c)),
            d(p(a, b), c) - d(a, s(b, c)),
            p(d(a, b), c) - d(a, p(b, c)),
            star(star(a, b), c) - star(a, star(b, c)),
        ]
        assert [str(res) for res in check_tridendriform(a, b, c)] == [str(res) for res in printed]


def test_star_is_associative():
    rng = random.Random(7)
    a, b, c = (rand_matrix_seq(rng) for _ in range(3))
    assert trid_star(trid_star(a, b), c) == trid_star(a, trid_star(b, c))


def test_prelie_left_values():
    a = SiteSequence([Fraction(1), Fraction(2)])
    b = SiteSequence([Fraction(3), Fraction(4)])
    # (a |> b)_n = [sum_{m<n} a_m, b_n] + a_n b_n; scalars drop the bracket
    assert [prelie_left(a, b).at(n) for n in (1, 2)] == [3, 8]


def test_prelie_left_matrix_bracket():
    rng = random.Random(11)
    a = rand_matrix_seq(rng, n_sites=2)
    b = rand_matrix_seq(rng, n_sites=2)
    r = prelie_left(a, b)
    assert r.at(1) == a.at(1) * b.at(1)
    expected = a.at(1) * b.at(2) - b.at(2) * a.at(1) + a.at(2) * b.at(2)
    assert r.at(2) == expected


def test_prelie_identities():
    rng = random.Random(13)
    for _ in range(10):
        a, b, c = (rand_matrix_seq(rng) for _ in range(3))
        assert check_prelie_left(a, b, c).is_zero()
        assert check_prelie_right(a, b, c).is_zero()


def test_prelie_left_right_transpose():
    # x <| y = -(reversed bracket) only through the bracket part; check the
    # defining relation instead: a <| b at site n uses the strict prefix of b
    rng = random.Random(17)
    a = rand_matrix_seq(rng, n_sites=3)
    b = rand_matrix_seq(rng, n_sites=3)
    r = prelie_right(a, b)
    n = 3
    pref = b.at(1) + b.at(2)
    assert r.at(n) == a.at(n) * pref - pref * a.at(n) + a.at(n) * b.at(n)


def signed_zero_seq(rng, exact, n_sites=4, size=2):
    """Random site values with about 10 % exact zeros, and -0.0 on floats."""
    def entry():
        u = rng.random()
        if u < 0.1:
            return 0
        if not exact and u < 0.15:
            return -0.0
        v = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
        return v if exact else float(v) + rng.uniform(-1e-3, 1e-3)

    values = [Matrix([[entry() for _ in range(size)] for _ in range(size)]) for _ in range(n_sites)]
    return SiteSequence(v if exact else v.to_float() for v in values)


def composed_left(a, b):
    r = PartialSumOp()(SiteSequence(a.values))
    return [s * y - y * s + x * y for s, x, y in zip(r.values, a.values, b.values)]


def composed_right(a, b):
    r = PartialSumOp()(SiteSequence(b.values))
    return [x * s - s * x + x * y for s, x, y in zip(r.values, a.values, b.values)]


def bits(values):
    return [repr(v.data) if isinstance(v, Matrix) else repr(v) for v in values]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("size", [2, 3])
def test_prelie_products_round_as_the_composed_formula(size, exact):
    # each site goes through the fused kernel, which must keep every float
    # bit of s*y - y*s + x*y, site 1's zero prefix sum included
    rng = random.Random(size * 10 + exact)
    for _ in range(30):
        a, b = signed_zero_seq(rng, exact, size=size), signed_zero_seq(rng, exact, size=size)
        left, right = prelie_left(a, b), prelie_right(a, b)
        assert bits(left.values) == bits(composed_left(a, b))
        assert bits(right.values) == bits(composed_right(a, b))
        assert left.at(1) == a.at(1) * b.at(1) and right.at(1) == a.at(1) * b.at(1)


def stack(seq):
    """The site stack of a sequence of square matrices: its values on top of each other."""
    return Matrix([row for v in seq.values for row in v.data])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("size", [1, 2, 3, SPARSE_FROM])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_stacked_left_product_is_prelie_left_site_by_site(n_sites, size, exact):
    # block n of the stacked product is site n of prelie_left bit for bit;
    # every other case starts from a zero first site (0 and -0.0 entries),
    # so the first two prefix blocks are zero
    rng = random.Random(f"{n_sites}-{size}-{exact}")
    zero = Matrix([[-0.0 if (i + j) % 2 else 0.0 for j in range(size)] for i in range(size)])
    for trial in range(20):
        a, b = (signed_zero_seq(rng, exact, n_sites, size) for _ in range(2))
        if trial % 2:
            a = SiteSequence((Matrix.zeros(size) if exact else zero,) + a.values[1:])
        got = stack_prelie_left(stack(a), stack(b))
        assert (got.rows, got.cols) == (n_sites * size, size)
        want = prelie_left(a, b).values
        assert bits([Matrix(got.data[n * size:(n + 1) * size]) for n in range(n_sites)]) == bits(want)


def test_stacked_left_product_checks_its_stacks():
    tall, square = Matrix.zeros(4, 2), Matrix.zeros(2)
    for a, b in ((tall, square), (square, tall), (Matrix.zeros(3, 2), Matrix.zeros(3, 2))):
        with pytest.raises(DimensionMismatch):
            stack_prelie_left(a, b)
    with pytest.raises(BackendMismatch):
        stack_prelie_left(tall, tall.to_float())


def test_prelie_products_fall_back_off_matrices(monkeypatch):
    # free letters and scalars take the composed formula
    def refuse(*args):
        raise AssertionError("the fused kernel met operands it does not take")

    monkeypatch.setattr(ops, "fused_prelie_site", refuse)
    rng = random.Random(21)
    exact, floats = signed_zero_seq(rng, True), signed_zero_seq(rng, False)
    x, y = FreeElement.gen("x"), FreeElement.gen("y")
    free_a = SiteSequence([x, y * Fraction(2, 3), x * y])
    free_b = SiteSequence([y, x + y, x * Fraction(-1, 2)])
    scal_a = SiteSequence([Fraction(1, 2), Fraction(-3), Fraction(5, 7)])
    scal_b = SiteSequence([0.5, -1.25, 3.0])
    for a, b in ((free_a, free_b), (scal_a, scal_a), (scal_b, scal_b)):
        assert bits(prelie_left(a, b).values) == bits(composed_left(a, b))
        assert bits(prelie_right(a, b).values) == bits(composed_right(a, b))


def test_prelie_products_refuse_two_backends():
    rng = random.Random(21)
    exact, floats = signed_zero_seq(rng, True), signed_zero_seq(rng, False)
    for a, b in ((exact, floats), (floats, exact)):
        for product in (prelie_left, prelie_right):
            with pytest.raises(BackendMismatch):
                product(a, b)


def test_length_mismatch_rejected():
    a = SiteSequence([Fraction(1)])
    b = SiteSequence([Fraction(1), Fraction(2)])
    with pytest.raises(DimensionMismatch):
        a + b
