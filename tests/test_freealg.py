"""Free associative algebra over exact rationals."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp import ops
from ordexp.freealg import FreeElement, Letter

# Coefficients either way they may arrive: ints, or Fractions that are
# sometimes integral (Fraction(4, 2)), so canonicalisation is exercised.
ints = st.integers(-6, 6)
fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coeffs = st.one_of(ints, fracs)
words = st.lists(st.sampled_from([Letter("x", 0, 1), Letter("y", 1, 2)]), max_size=3).map(tuple)
elements = st.dictionaries(words, coeffs, max_size=4).map(FreeElement)


def canonical(e: FreeElement) -> bool:
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in e.terms.values())


def as_fractions(e: FreeElement) -> FreeElement:
    """The same element built from Fraction coefficients only."""
    return FreeElement({w: Fraction(c) for w, c in e.terms.items()})


def test_generators_and_words():
    x = FreeElement.gen("x")
    y = FreeElement.gen("y", site=2, degree=3)
    xy = x * y
    assert len(xy.terms) == 1
    word, coeff = next(iter(xy.terms.items()))
    assert coeff == 1
    assert word == (Letter("x", 0, 1), Letter("y", 2, 3))


def test_zero_and_one():
    x = FreeElement.gen("x")
    assert x + FreeElement.zero() == x
    assert x * FreeElement.one() == x
    assert FreeElement.one() * x == x
    assert (x - x).is_zero()
    assert FreeElement.zero().is_zero()


def test_scalar_elements_hash_as_their_scalar():
    # == and hash agree: a scalar element equals its coefficient
    assert FreeElement.one() == 1 and hash(FreeElement.one()) == hash(1)
    assert FreeElement.zero() == 0 and hash(FreeElement.zero()) == hash(0)
    half = FreeElement({(): Fraction(1, 2)})
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({FreeElement.one(), 1}) == 1
    assert len({FreeElement.zero(), 0, FreeElement.one() - FreeElement.one()}) == 1
    x = FreeElement.gen("x")
    assert hash(x + 1) == hash(FreeElement.one() + x)


def test_associativity_and_distributivity():
    x, y, z = (FreeElement.gen(n) for n in "xyz")
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


def test_noncommutativity():
    x, y = FreeElement.gen("x"), FreeElement.gen("y")
    assert x * y != y * x
    assert not (x * y - y * x).is_zero()


def test_scalar_action_and_pruning():
    x = FreeElement.gen("x")
    half = x * Fraction(1, 2)
    assert half + half == x
    assert (x * 0).is_zero()
    assert not (x * 0).terms


def test_str_is_deterministic():
    x, y = FreeElement.gen("x"), FreeElement.gen("y")
    a = x * y + y * x
    b = y * x + x * y
    assert str(a) == str(b)
    assert str(FreeElement.zero()) == "0"


def test_mixed_site_letters_keep_order():
    a = FreeElement.gen("L", site=2, degree=1)
    b = FreeElement.gen("L", site=1, degree=1)
    prod = a * b
    (word,) = prod.terms
    assert [letter.site for letter in word] == [2, 1]


def test_generators_store_int_coefficients():
    assert FreeElement.one().terms == {(): 1}
    assert type(FreeElement.one().terms[()]) is int
    assert type(next(iter(FreeElement.gen("x").terms.values()))) is int
    assert FreeElement({(): Fraction(6, 3)}).terms == {(): 2}
    assert type(FreeElement({(): Fraction(6, 3)}).terms[()]) is int
    assert type(FreeElement({(): True}).terms[()]) is int


@settings(max_examples=80, deadline=None)
@given(elements, elements, coeffs)
def test_arithmetic_keeps_coefficients_canonical(a, b, s):
    assert canonical(a) and canonical(b)
    for result in (a + b, a - b, -a, a * b, b * a, a * s, s * a, a + s, a - s, s - a):
        assert canonical(result)


@settings(max_examples=80, deadline=None)
@given(elements, elements)
def test_int_and_fraction_built_elements_agree(a, b):
    fa = as_fractions(a)
    assert fa == a and fa.terms == a.terms
    assert hash(fa) == hash(a)
    assert as_fractions(a * b) == fa * as_fractions(b)
    assert hash(as_fractions(a + b)) == hash(a + b)


@settings(max_examples=50, deadline=None)
@given(elements)
def test_max_abs_is_a_fraction(a):
    m = a.max_abs()
    assert type(m) is Fraction
    assert m == max((abs(c) for c in a.terms.values()), default=0)


def test_invert_of_an_int_scalar_is_exact():
    inv = ops.invert(FreeElement({(): 2}))
    assert inv == FreeElement({(): Fraction(1, 2)})
    assert type(inv.terms[()]) is Fraction
    assert ops.invert(FreeElement({(): Fraction(1, 3)})).terms == {(): 3}
    assert type(ops.invert(FreeElement({(): -1})).terms[()]) is int
