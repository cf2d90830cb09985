"""Ordered-product expansion checks.

The reference values here are deliberately computed by independent means:
coefficient lists multiplied with a local convolution helper, a local
exponential, and two order-3 logarithm coefficients expanded by hand on
two free letters.  The engine has to reproduce them all.
"""

import random
from fractions import Fraction

import pytest

from ordexp import expansion
from ordexp.boundary import BoundaryProblem, GaugeProblem, reflection_hat
from ordexp.continuum import MatrixField, magnus_continuous
from ordexp.errors import AlgebraError, BackendMismatch, DimensionMismatch, SingularOperator, UnsupportedOrder
from ordexp.expansion import (
    BACKWARD,
    FORWARD,
    SiteOperatorFamily,
    closed_form_defects,
    compositions,
    dyson_terms,
    factorized_direct,
    factorized_expansion,
    factorized_generators,
    magnus_closed_form,
    magnus_from_dyson,
    chain_walk,
    magnus_oracle,
    monodromy,
    ordered_product,
    pi_table,
    prefix_monodromy,
)
from ordexp.freealg import FreeElement
from ordexp.ops import is_zero, unit_product
from ordexp.matrix import Matrix
from ordexp.poly import Poly
from ordexp.series import AlphaSeries


def free_family(n_sites, degrees=(1,), direction=FORWARD):
    entries = {
        (n, d): FreeElement.gen("y", site=n, degree=d)
        for n in range((1), n_sites + 1)
        for d in degrees
    }
    return SiteOperatorFamily(n_sites, entries, direction=direction)


def rand_matrix(rng, size=2, bound=3):
    return Matrix(
        [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
    )


def matrix_family(seed, n_sites, degrees=(1,), direction=FORWARD, size=2):
    rng = random.Random(seed)
    entries = {
        (n, d): rand_matrix(rng, size)
        for n in range(1, n_sites + 1)
        for d in degrees
    }
    return SiteOperatorFamily(n_sites, entries, direction=direction)


def list_mul(a, b, order, zero):
    out = [zero for _ in range(order + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] = out[i + j] + x * y
    return out


def local_monodromy(family, order, zero, one):
    """Coefficient-list product of the local factors, no series machinery."""
    prod = [one] + [zero] * order
    sites = range(family.n_sites, 0, -1)
    if family.direction == BACKWARD:
        sites = range(1, family.n_sites + 1)
    for n in sites:
        factor = [one] + [family.entry(n, k) for k in range(1, order + 1)]
        prod = list_mul(prod, factor, order, zero)
    return prod


def local_exp(parts, order, zero, one):
    """Exponential of a coefficient list with zero constant term."""
    arg = [zero] + [parts[m - 1] for m in range(1, order + 1)]
    result = [one] + [zero] * order
    term = [one] + [zero] * order
    for k in range(1, order + 1):
        term = [x * Fraction(1, k) for x in list_mul(term, arg, order, zero)]
        result = [r + t for r, t in zip(result, term)]
    return result


def test_compositions_enumeration():
    assert list(compositions(3, 1)) == [(3,)]
    assert sorted(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    for m in range(1, 6):
        count = sum(len(list(compositions(m, k))) for k in range(1, m + 1))
        assert count == 2 ** (m - 1)


def test_compositions_into_no_parts():
    # these recursed until RecursionError; the order of every other output
    # sets the float summation order of the Dyson and Magnus sums
    assert list(compositions(0, 0)) == [()]
    for total, parts in ((3, 0), (2, -1), (0, -1), (-1, 0)):
        assert list(compositions(total, parts)) == []
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


@pytest.mark.parametrize("total,parts", [(True, 2), (3, True), (False, 0), (3.0, 2), (3, 2.0),
                                         ("3", 2), (3, None)])
def test_compositions_take_plain_ints(total, parts):
    # refused at the call, not at the first `next`; a bool is not taken as 0 or 1
    with pytest.raises(AlgebraError, match="compositions take ints"):
        compositions(total, parts)


@pytest.mark.parametrize("order", [-1, -2, -3])
@pytest.mark.parametrize("like", [Fraction(1), FreeElement.one(), Matrix.identity(2)], ids=["scalar", "free", "matrix"])
def test_negative_orders_are_unsupported(order, like):
    # they gave order-0 series, [] or [1]
    fam = SiteOperatorFamily(2, {(1, 1): like * 2, (2, 1): like * 3}, like=like)
    for call in (lambda: monodromy(fam, order), lambda: chain_walk(fam, order, FORWARD),
                 lambda: magnus_oracle(fam, order), lambda: dyson_terms(fam, order),
                 lambda: dyson_terms(fam, order, method="tridendriform")):
        with pytest.raises(UnsupportedOrder, match="truncation order"):
            call()


@pytest.mark.parametrize("order", [2.0, True, -1, "3"], ids=repr)
def test_every_order_entry_point_takes_a_plain_int_only(order):
    # one rule, `errors.check_order`: magnus_closed_form returned two terms
    # on 2.0, most others died with a bare TypeError on 2.0 or "3", and all
    # took True as 1
    one = Fraction(1)
    fam = SiteOperatorFamily(2, {(1, 1): Fraction(2), (2, 1): Fraction(3), (1, 2): Fraction(5)}, like=one)
    calls = [
        lambda: AlphaSeries.one(order, one), lambda: AlphaSeries.zero(order, one),
        lambda: AlphaSeries.from_parts(order, {0: one}, one), lambda: AlphaSeries([one, one]).truncate(order),
        lambda: GaugeProblem(fam, fam, one, order), lambda: BoundaryProblem(fam, fam, one, order),
        lambda: reflection_hat(fam, order), lambda: fam.lax_series(1, order),
        lambda: dyson_terms(fam, order), lambda: dyson_terms(fam, order, method="tridendriform"),
        lambda: monodromy(fam, order), lambda: magnus_oracle(fam, order),
        lambda: magnus_closed_form(fam, order), lambda: magnus_closed_form(fam, order, style="prelie"),
        lambda: closed_form_defects(fam, order),
    ]
    for call in calls:
        with pytest.raises(UnsupportedOrder, match="truncation order"):
            call()


@pytest.mark.parametrize("order", [-1, -2])
@pytest.mark.parametrize("like", [Fraction(1), FreeElement.one(), Matrix.identity(2)], ids=["scalar", "free", "matrix"])
def test_lax_series_rejects_a_negative_order(order, like):
    # it gave an order-0 series
    fam = SiteOperatorFamily(1, {(1, 1): like * 2}, like=like)
    with pytest.raises(UnsupportedOrder, match="truncation order"):
        fam.lax_series(1, order)
    assert fam.lax_series(1, 0).order == 0


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_monodromy_matches_local_product(direction):
    fam = matrix_family(seed=11, n_sites=3, degrees=(1, 2), direction=direction)
    order = 4
    series = monodromy(fam, order)
    expected = local_monodromy(fam, order, Matrix.zeros(2), Matrix.identity(2))
    for k in range(order + 1):
        assert series.coeff(k) == expected[k]


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("degrees", [(1,), (1, 2), (1, 2, 3)])
def test_dyson_direct_equals_monodromy(direction, degrees):
    fam = free_family(3, degrees=degrees, direction=direction)
    order = 4
    series = monodromy(fam, order)
    terms = dyson_terms(fam, order, method="direct")
    for k in range(order + 1):
        assert terms[k] == series.coeff(k)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("degrees", [(1,), (1, 2), (1, 2, 3)])
def test_dyson_tridendriform_equals_direct(direction, degrees):
    fam = free_family(3, degrees=degrees, direction=direction)
    order = 4
    direct = dyson_terms(fam, order, method="direct")
    trid = dyson_terms(fam, order, method="tridendriform")
    assert direct == trid


def test_backward_is_forward_of_reversed_chain():
    fam = free_family(4, degrees=(1, 2), direction=BACKWARD)
    order = 3
    flipped = SiteOperatorFamily(
        fam.n_sites,
        {(fam.n_sites + 1 - site, degree): op for (site, degree), op in fam.entries.items()},
        direction=FORWARD,
        like=fam.like,
    )
    assert monodromy(fam, order) == monodromy(flipped, order)


def test_prefix_monodromy_recursion():
    fam = matrix_family(seed=5, n_sites=3, degrees=(1,), direction=FORWARD)
    order = 3
    assert prefix_monodromy(fam, 1, order) == AlphaSeries.one(order, like=fam.like)
    for n in range(1, fam.n_sites + 1):
        step = fam.lax_series(n, order) * prefix_monodromy(fam, n, order)
        assert step == prefix_monodromy(fam, n + 1, order)
    assert prefix_monodromy(fam, fam.n_sites + 1, order) == monodromy(fam, order)
    back = matrix_family(seed=5, n_sites=3, degrees=(1,), direction=BACKWARD)
    for n in range(1, back.n_sites + 1):
        step = prefix_monodromy(back, n, order) * back.lax_series(n, order)
        assert step == prefix_monodromy(back, n + 1, order)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_magnus_exponentiates_to_product(direction):
    fam = free_family(3, degrees=(1, 2), direction=direction)
    order = 3
    terms = dyson_terms(fam, order)
    logs = magnus_from_dyson(terms, order)
    zero, one = FreeElement.zero(), FreeElement.one()
    rebuilt = local_exp(logs, order, zero, one)
    expected = local_monodromy(fam, order, zero, one)
    assert rebuilt == expected


def test_magnus_oracle_agrees_with_power_table():
    for direction in (FORWARD, BACKWARD):
        fam = free_family(3, degrees=(1, 2, 3), direction=direction)
        order = 4
        via_table = magnus_from_dyson(dyson_terms(fam, order), order)
        via_log = magnus_oracle(fam, order)
        assert via_table == via_log


def test_pi_table_is_tail_power():
    fam = free_family(3, degrees=(1,), direction=FORWARD)
    order = 4
    terms = dyson_terms(fam, order)
    table = pi_table(terms, order)
    zero, one = FreeElement.zero(), FreeElement.one()
    tail = [zero] + terms[1:]
    power = tail
    for k in range(1, order + 1):
        if k > 1:
            power = list_mul(power, tail, order, zero)
        for n in range(k, order + 1):
            assert table[(n, k)] == power[n]


def hand_q3_forward():
    """Order-3 logarithm of (1+a y2)(1+a y1), expanded by hand."""
    y1 = FreeElement.gen("y", site=1)
    y2 = FreeElement.gen("y", site=2)
    third = Fraction(1, 3)
    sixth = Fraction(1, 6)
    return (
        (y1 * y1 * y1 + y2 * y2 * y2 + y1 * y1 * y2 + y1 * y2 * y2) * third
        - (y1 * y2 * y1 + y2 * y1 * y2 + y2 * y2 * y1 + y2 * y1 * y1) * sixth
    )


def hand_q3_backward():
    """Order-3 logarithm of (1+a y1)(1+a y2), expanded by hand."""
    y1 = FreeElement.gen("y", site=1)
    y2 = FreeElement.gen("y", site=2)
    third = Fraction(1, 3)
    sixth = Fraction(1, 6)
    return (
        (y1 * y1 * y1 + y2 * y2 * y2 + y2 * y2 * y1 + y2 * y1 * y1) * third
        - (y1 * y2 * y1 + y2 * y1 * y2 + y1 * y1 * y2 + y1 * y2 * y2) * sixth
    )


def test_magnus_order3_frozen_hand_values():
    fwd = free_family(2, degrees=(1,), direction=FORWARD)
    assert magnus_oracle(fwd, 3)[2] == hand_q3_forward()
    bwd = free_family(2, degrees=(1,), direction=BACKWARD)
    assert magnus_oracle(bwd, 3)[2] == hand_q3_backward()


# The styles `magnus_closed_form` accepts; it refuses any other (see
# test_unknown_mode_string_is_an_algebra_error).
STYLES = ("explicit", "prelie")


def style_defects(fam, style, order=3):
    """`style`'s (degree, residual) pairs from `closed_form_defects`, after
    checking that it returns every accepted style at every degree."""
    defects = closed_form_defects(fam, order=order)
    assert set(defects) == set(STYLES)
    for pairs in defects.values():
        assert [degree for degree, _ in pairs] == list(range(1, order + 1))
    return defects[style]


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("degrees", [(1,), (1, 2, 3)])
def test_closed_forms_match_oracle_free(direction, style, degrees):
    fam = free_family(3, degrees=degrees, direction=direction)
    for degree, residual in style_defects(fam, style):
        assert not residual, f"degree {degree} defect: {residual}"


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("style", STYLES)
def test_closed_forms_match_oracle_matrix(direction, style):
    fam = matrix_family(seed=23, n_sites=4, degrees=(1, 2, 3), direction=direction)
    for degree, residual in style_defects(fam, style):
        assert residual.is_zero(), f"degree {degree} defect"


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("like", [Fraction(1), FreeElement.one(), Matrix.identity(2),
                                  Matrix.identity(2).to_float()], ids=["scalar", "free", "exact", "float"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_closed_forms_of_an_empty_chain_are_zero(style, like, order):
    # an empty chain's product is 1, so every logarithm term is zero
    fam = SiteOperatorFamily(0, {}, like=like)
    closed = magnus_closed_form(fam, order=order, style=style)
    assert closed == magnus_oracle(fam, order) == [like * 0] * order
    assert all(is_zero(residual) for _, residual in style_defects(fam, style, order=order))


def test_closed_form_rejects_high_order():
    fam = free_family(2)
    with pytest.raises(UnsupportedOrder):
        magnus_closed_form(fam, order=4)


def test_closed_form_defects_refuse_an_uncovered_order_before_the_oracle(monkeypatch):
    # the order-4 oracle was formed, then the closed forms refused the order
    def refuse(*args):
        raise AssertionError("the oracle ran for an order no closed form covers")

    monkeypatch.setattr(expansion, "magnus_oracle", refuse)
    with pytest.raises(UnsupportedOrder, match="closed forms cover"):
        closed_form_defects(free_family(2), order=4)


def test_closed_form_order_one_and_two_prefix():
    # below order 3 each style gives the order-3 terms cut at `order`, no
    # term past it, and they are the oracle's
    for direction in (FORWARD, BACKWARD):
        fam = free_family(3, degrees=(1, 2), direction=direction)
        for style in STYLES:
            full = magnus_closed_form(fam, 3, style)
            for order in (1, 2):
                closed = magnus_closed_form(fam, order, style)
                assert closed == full[:order] == magnus_oracle(fam, order), (direction, style, order)


def test_factorized_expansion_scalar_example():
    m_ops = [Fraction(2), Fraction(2)]
    l_ops = [Fraction(1), Fraction(1)]
    gens = factorized_generators(m_ops, l_ops)
    assert gens == [Fraction(1, 2), Fraction(1, 2)]
    result = factorized_expansion(m_ops, l_ops, order=2)
    assert [result.series.coeff(k) for k in range(3)] == [
        Fraction(4),
        Fraction(4),
        Fraction(1),
    ]
    assert result.residual.is_zero()
    assert result.q_list[0] == Fraction(1)
    assert result.series == factorized_direct(m_ops, l_ops, order=2)


def test_factorized_expansion_matrix():
    rng = random.Random(31)
    n_sites = 3
    m_ops = []
    for _ in range(n_sites):
        strict = [[0, rng.randint(-2, 2)], [0, 0]]
        m_ops.append(Matrix.identity(2) + Matrix(strict))
    l_ops = [rand_matrix(rng) for _ in range(n_sites)]
    result = factorized_expansion(m_ops, l_ops, 3)
    assert result.residual.is_zero()
    assert result.series == factorized_direct(m_ops, l_ops, 3)


def test_scalar_two_site_magnus_values():
    fam = SiteOperatorFamily(2, {(1, 1): Fraction(1), (2, 1): Fraction(1)})
    q_list = magnus_oracle(fam, 3)
    assert q_list == [Fraction(2), Fraction(-1), Fraction(2, 3)]
    assert magnus_from_dyson(dyson_terms(fam, 3), 3) == q_list


def test_factorized_expansion_names_singular_site():
    m_ops = [Matrix.identity(2), Matrix.zeros(2)]
    l_ops = [Matrix.identity(2), Matrix.identity(2)]
    with pytest.raises(SingularOperator, match="site 2"):
        factorized_generators(m_ops, l_ops)


def test_family_validation():
    y = FreeElement.gen("y", site=1)
    with pytest.raises(DimensionMismatch):
        SiteOperatorFamily(2, {(3, 1): y})
    with pytest.raises(DimensionMismatch):
        SiteOperatorFamily(2, {(1, 0): y})
    with pytest.raises(DimensionMismatch):
        SiteOperatorFamily(2, {})
    empty = SiteOperatorFamily(2, {}, like=y)
    assert monodromy(empty, 2).coeff(0) == FreeElement.one()
    assert monodromy(empty, 2).coeff(1) == FreeElement.zero()


@pytest.mark.parametrize("n_sites,entries", [
    (2, {(1.5, 1): Fraction(3), (2, 1): Fraction(1)}),
    (2, {(1, 2.5): Fraction(3)}),
    (2, {(Fraction(1), 1): Fraction(3)}),
    (2, {(True, 1): Fraction(3)}),
    (2, {(1, True): Fraction(3)}),
    (2.0, {(1, 1): Fraction(3)}),
    (True, {(1, 1): Fraction(3)}),
], ids=["float-site", "float-degree", "fraction-site", "bool-site", "bool-degree",
        "float-sites", "bool-sites"])
def test_family_refuses_a_site_or_degree_that_is_not_an_int(n_sites, entries):
    # a float site or degree was kept but never looked up, so its operator
    # dropped out of every product and closed form without a word
    with pytest.raises(DimensionMismatch):
        SiteOperatorFamily(n_sites, entries, like=Fraction(1))


def _one_site():
    return SiteOperatorFamily(1, {(1, 1): Fraction(2)})


@pytest.mark.parametrize("call", [
    lambda: SiteOperatorFamily(1, {(1, 1): Fraction(2)}, direction="sideways"),
    lambda: chain_walk(_one_site(), 2, "sideways"),
    lambda: dyson_terms(_one_site(), 2, method="recursive"),
    lambda: magnus_closed_form(_one_site(), 2, style="bch"),
    lambda: magnus_continuous(MatrixField(Poly({(0,): Matrix.identity(2)})), 2, style="bch"),
], ids=["direction", "walk-direction", "method", "closed-form-style", "continuous-style"])
def test_unknown_mode_string_is_an_algebra_error(call):
    with pytest.raises(AlgebraError, match="unknown "):
        call()


# -- the Lax step against the plain fold ----------------------------------------

# Floats whose sums round, and both zeros.
FLOATS = (0.0, -0.0, 1.5, -2.25, 0.1, -1 / 3, 7.0, 1e-17)


def _free(rng, site, degree):
    x = FreeElement.gen("x", site=site, degree=degree) * rng.randint(-2, 2)
    return x + FreeElement.gen("y", site=site) * Fraction(rng.randint(-2, 2), 3)


def _exact_matrix(size, dens=(1, 2, 3)):
    """Draws of exact size x size matrices with denominators from `dens`."""
    return lambda rng, n, d: Matrix([[Fraction(rng.randint(-3, 3), rng.choice(dens))
                                      for _ in range(size)] for _ in range(size)])


def _float_matrix(size):
    return lambda rng, n, d: Matrix([[rng.choice(FLOATS) for _ in range(size)] for _ in range(size)])


# kind -> (the family's template, a draw of one operator).  Matrices below
# SPARSE_FROM (8) columns and exact scalars take `matrix.lax_fold`; the 8 x 8
# kinds (the row store), floats, mixed scalars and free elements take the
# Lax step.
LAX_KINDS = {
    "exact-matrix": (Matrix.identity(2), _exact_matrix(2)),
    "exact-matrix-3": (Matrix.identity(3), _exact_matrix(3)),
    "exact-matrix-7": (Matrix.identity(7), _exact_matrix(7)),
    "exact-matrix-8": (Matrix.identity(8), _exact_matrix(8)),
    # power-of-two denominators, as discretize's delta * A(x) has them
    "exact-matrix-dyadic": (Matrix.identity(2), _exact_matrix(2, (1, 2, 4, 8, 16))),
    "float-matrix": (Matrix.identity(2).to_float(), _float_matrix(2)),
    "float-matrix-3": (Matrix.identity(3).to_float(), _float_matrix(3)),
    "float-matrix-7": (Matrix.identity(7).to_float(), _float_matrix(7)),
    "float-matrix-8": (Matrix.identity(8).to_float(), _float_matrix(8)),
    # Thirds rounded to float, as a float run casts its exact draws.
    "float-matrix-thirds": (Matrix.identity(2).to_float(), lambda rng, n, d: Matrix(
        [[Fraction(rng.randint(-3, 3), 3) for _ in range(2)] for _ in range(2)]).to_float()),
    "int": (1, lambda rng, n, d: rng.randint(-3, 3)),
    "fraction": (Fraction(1), lambda rng, n, d: Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
    "float": (1.0, lambda rng, n, d: rng.choice(FLOATS)),
    "mixed-scalar": (Fraction(1), lambda rng, n, d: rng.choice(
        (rng.randint(-3, 3), Fraction(rng.randint(-3, 3), 2), rng.choice(FLOATS)))),
    "free": (FreeElement.one(), _free),
}


def lax_family(kind, n_sites, direction, seed):
    """Each site draws degrees 1, 2, 3 and 5 at random, so degrees go
    missing, whole sites are empty and some lie above the order; now and
    then an operator is the zero."""
    like, draw = LAX_KINDS[kind]
    rng = random.Random(seed)
    entries = {}
    for n in range(1, n_sites + 1):
        for d in (1, 2, 3, 5):
            if rng.random() < 0.7:
                entries[n, d] = draw(rng, n, d) if rng.random() < 0.9 else draw(rng, n, d) * 0
    return SiteOperatorFamily(n_sites, entries, direction=direction, like=like)


def padded_lax(family, site, order):
    """A site's series as the zero-padded series plus the unit."""
    parts = {m: family.entry(site, m) for m in range(1, order + 1)}
    series = AlphaSeries.from_parts(order, parts, like=family.like)
    return series + AlphaSeries.one(order, like=family.like)


def plain_fold(family, order, sites, left):
    """[1, then the product after each site]: the series products, one by one."""
    t = AlphaSeries.one(order, like=family.like)
    out = [t]
    for site in sites:
        lax = padded_lax(family, site, order)
        t = lax * t if left else t * lax
        out.append(t)
    return out


@pytest.mark.parametrize("kind", sorted(LAX_KINDS))
# at (5, 8) the order lies above every drawn degree, so an exact site's step
# kernel runs its loop past the straight-line head
@pytest.mark.parametrize("n_sites,order", [(0, 2), (1, 0), (1, 4), (3, 0), (3, 3), (4, 4), (5, 8)])
def test_lax_step_is_the_plain_fold_bit_for_bit(kind, n_sites, order, bits):
    ascending = range(1, n_sites + 1)
    descending = range(n_sites, 0, -1)
    for seed in range(4):
        for direction in (FORWARD, BACKWARD):
            fam = lax_family(kind, n_sites, direction, seed)
            for site in ascending:
                assert bits(fam.lax_series(site, order)) == bits(padded_lax(fam, site, order))
            for descend, sites in ((True, descending), (False, ascending)):
                want = plain_fold(fam, order, sites, False)[-1]
                assert bits(ordered_product(fam, order, descend)) == bits(want)
                if descend == (direction == FORWARD):
                    assert bits(monodromy(fam, order)) == bits(want)
            for walk in (FORWARD, BACKWARD):
                laxes, prefixes = chain_walk(fam, order, walk)
                assert [bits(lax) for lax in laxes] == [bits(padded_lax(fam, n, order)) for n in ascending]
                want = plain_fold(fam, order, ascending, walk == FORWARD)
                assert [bits(t) for t in prefixes] == [bits(t) for t in want]
                # exact results are reduced, so they compare and hash as the plain fold's
                assert prefixes == want
                assert list(map(hash, prefixes)) == list(map(hash, want))
            want = plain_fold(fam, order, descending if direction == FORWARD else ascending, False)[-1]
            assert monodromy(fam, order) == want and hash(monodromy(fam, order)) == hash(want)


# the kinds whose chain products take `matrix.lax_fold`, and only it
FOLD_KINDS = {"exact-matrix", "exact-matrix-3", "exact-matrix-7", "exact-matrix-dyadic",
              "float-matrix", "float-matrix-3", "float-matrix-7", "float-matrix-thirds",
              "int", "fraction"}


@pytest.mark.parametrize("kind", sorted(LAX_KINDS))
def test_each_kind_takes_one_path(kind, monkeypatch):
    def refuse(*args):
        raise AssertionError("a chain took the path its operands do not take")

    fam = lax_family(kind, 3, FORWARD, 0)
    monkeypatch.setattr(expansion, "_lax_step" if kind in FOLD_KINDS else "lax_fold", refuse)
    monodromy(fam, 3)
    chain_walk(fam, 3, BACKWARD)
    # the logarithm: the raw one for the fold's kinds, the series' one otherwise
    if kind in FOLD_KINDS:
        monkeypatch.setattr(AlphaSeries, "log", refuse)
    else:
        monkeypatch.setattr(expansion, "lax_log", refuse)
    magnus_oracle(fam, 3)


@pytest.mark.parametrize("kind", sorted(LAX_KINDS))
@pytest.mark.parametrize("n_sites,orders", [(0, (0, 2)), (1, (0, 1, 4)), (3, range(7)), (5, (3, 6))])
def test_magnus_oracle_is_the_log_of_the_monodromy(kind, n_sites, orders, bits):
    for seed in range(3):
        for direction in (FORWARD, BACKWARD):
            fam = lax_family(kind, n_sites, direction, seed)
            # a free-letter log grows fast with the order, and takes
            # `AlphaSeries.log` on both sides
            for order in (o for o in orders if kind != "free" or o <= 4):
                got = magnus_oracle(fam, order)
                log = monodromy(fam, order).log()
                want = [log.coeff(m) for m in range(1, order + 1)]
                assert [bits(q) for q in got] == [bits(q) for q in want]
                assert list(map(type, got)) == list(map(type, want))
                assert got == want and list(map(hash, got)) == list(map(hash, want))


@pytest.mark.parametrize("kind", sorted(LAX_KINDS))
@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_prefix_monodromy_walks_only_its_sites(kind, direction, monkeypatch, bits):
    fam = lax_family(kind, 4, direction, 1)
    prefixes = chain_walk(fam, 3, direction)[1]

    def refuse(*args):
        raise AssertionError("a prefix formed a site series")

    monkeypatch.setattr(SiteOperatorFamily, "lax_series", refuse)
    got = [prefix_monodromy(fam, upto, 3) for upto in range(1, fam.n_sites + 2)]
    assert [bits(t) for t in got] == [bits(t) for t in prefixes] and got == prefixes


UNIT_CASES = [
    (Matrix.identity(2), Matrix([[Fraction(1, 3), 0], [-2, 5]])),
    (Matrix.identity(2).to_float(), Matrix([[0.1, -0.0], [0.0, -2.5]])),
    (Matrix.identity(2).to_float(), Matrix([[-0.0, -0.0], [-0.0, -0.0]])),
    (Fraction(1), Fraction(-2, 3)),
    (Fraction(1), 4),
    (Fraction(1), 0.1),
    (Fraction(1), -0.0),
    (1.0, 0.1),
    (1.0, -0.0),
    (1.0, 4),
    (1.0, Fraction(-2, 3)),
    (FreeElement.one(), FreeElement.gen("x") * Fraction(1, 2) + FreeElement.gen("y") * 3),
]


@pytest.mark.parametrize("unit,x", UNIT_CASES)
def test_unit_product_is_the_product_by_the_unit(unit, x, bits):
    assert bits(unit_product(unit, x)) == bits(unit * x) == bits(x * unit)


# An exact and a float matrix are two backends: a family refuses them when it
# is built, and the unit of one never meets an operator of the other.
MIXED_CASES = [
    (Matrix.identity(2), Matrix([[0.1, -0.0], [Fraction(1, 3), -2.5]])),
    (Matrix.identity(2).to_float(), Matrix([[Fraction(1, 3), 0], [-2, 5]])),
]


@pytest.mark.parametrize("like,op", MIXED_CASES, ids=["float-over-exact", "exact-over-float"])
def test_family_refuses_a_matrix_of_the_other_backend(like, op):
    with pytest.raises(BackendMismatch):
        SiteOperatorFamily(2, {(1, 1): op}, like=like)
    # an inferred template is the first entry, so a second one of the other backend is refused
    with pytest.raises(BackendMismatch):
        SiteOperatorFamily(2, {(1, 1): like, (2, 1): op})


@pytest.mark.parametrize("unit,x", MIXED_CASES, ids=["float-over-exact", "exact-over-float"])
def test_unit_product_refuses_two_backends_as_the_product_does(unit, x):
    for call in (lambda: unit_product(unit, x), lambda: unit * x, lambda: x * unit):
        with pytest.raises(BackendMismatch):
            call()
