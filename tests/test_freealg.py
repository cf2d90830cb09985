"""Free associative algebra over exact rationals."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordexp import ops
from ordexp.errors import AlgebraError, BackendMismatch, SingularOperator
from ordexp.freealg import FreeElement, Letter

# Coefficients either way they may arrive: ints, or Fractions that are
# sometimes integral (Fraction(4, 2)), so canonicalisation is exercised.
ints = st.integers(-6, 6)
fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
coeffs = st.one_of(ints, fracs)
words = st.lists(st.sampled_from([Letter("x", 0, 1), Letter("y", 1, 2)]), max_size=3).map(tuple)
raw = st.dictionaries(words, coeffs, max_size=4)
elements = raw.map(FreeElement)


def canonical(e: FreeElement) -> bool:
    """Every coefficient is an int, or a Fraction with denominator > 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for _, c in e.named_words())


def coefficients(e: FreeElement) -> list:
    return [c for _, c in e.named_words()]


# -- a plain reference: Letter-tuple words -> Fraction coefficients ------------
#
# It builds each result the way the element stores it, so the words come
# out in the same order (the order `named_words` reports), and it spells
# `str` from the letters themselves.

def ref_of(raw: dict) -> dict:
    return {w: Fraction(c) for w, c in raw.items() if c}


def ref_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for w, c in y.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            del out[w]
    return out


def ref_scale(x: dict, s) -> dict:
    return {w: c * s for w, c in x.items()} if s else {}


def ref_mul(x: dict, y: dict) -> dict:
    out = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            s = out.get(w1 + w2, 0) + c1 * c2
            if s:
                out[w1 + w2] = s
            else:
                del out[w1 + w2]
    return out


def ref_str(x: dict) -> str:
    if not x:
        return "0"
    parts = []
    for w, c in sorted(x.items(), key=lambda item: (len(item[0]), [(l.name, l.degree, l.site) for l in item[0]])):
        c = c.numerator if c.denominator == 1 else c
        body = " ".join(f"{l.name}_{l.site}" for l in w)
        parts.append(str(c) if not w else body if c == 1 else "-" + body if c == -1 else f"{c} {body}")
    return parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in parts[1:])


def assert_agrees(e: FreeElement, x: dict):
    """`e` is the reference element `x`, in value, storage order and spelling."""
    built = FreeElement(x)
    assert e == built and hash(e) == hash(built) and not e != built
    assert e.named_words() == [(tuple(l.name for l in w), c) for w, c in x.items()]
    assert str(e) == ref_str(x)
    assert e.scalar_part() == x.get((), 0)
    assert bool(e) == bool(x) and e.is_zero() == (not x)
    if x.keys() <= {()}:
        assert e == x.get((), 0) and hash(e) == hash(x.get((), 0))
    # every stored coefficient is an int when it is integral
    assert canonical(e)


# Letters whose ids sort against their (name, degree, site) order: each is
# interned here, at import, in the reverse of that order, so a `str` that
# sorted by id would spell the words in another order than the reference.
SPREAD = [Letter("u", 1, 1), Letter("u", 3, 1), Letter("u", 0, 2), Letter("v", 0, 1)]
for _letter in reversed(SPREAD):
    FreeElement({(_letter,): 1})
spread_words = st.lists(st.sampled_from(SPREAD), max_size=3).map(tuple)
spread = st.dictionaries(spread_words, coeffs, max_size=5)

U1, U3, U02, V = ((letter,) for letter in SPREAD)


@settings(max_examples=150, deadline=None)
@given(spread, spread, coeffs)
@example({U1: Fraction(1, 2), V: 3}, {U1: Fraction(1, 2), U3: Fraction(3, 2)}, Fraction(2, 3))
@example({U3: 2, U02: Fraction(1, 2)}, {U1: Fraction(1, 2), V: Fraction(2, 3)}, 0)
@example({(): Fraction(3, 2), U1 + V: 2}, {(): Fraction(1, 2), V: Fraction(1, 4)}, Fraction(4, 2))
def test_arithmetic_agrees_with_a_plain_reference(ra, rb, s):
    x, y = ref_of(ra), ref_of(rb)
    a, b = FreeElement(ra), FreeElement(rb)
    assert_agrees(a, x)
    assert_agrees(b, y)
    assert_agrees(a + b, ref_add(x, y))
    assert_agrees(a - b, ref_add(x, ref_scale(y, -1)))
    assert_agrees(-a, ref_scale(x, -1))
    assert_agrees(a * b, ref_mul(x, y))
    assert_agrees(b * a, ref_mul(y, x))
    assert_agrees(a * s, ref_scale(x, Fraction(s)))
    assert_agrees(s * a, ref_scale(x, Fraction(s)))
    assert_agrees(a + s, ref_add(x, ref_of({(): s})))
    assert_agrees(s + a, ref_add(x, ref_of({(): s})))
    assert_agrees(a - s, ref_add(x, ref_of({(): -s})))
    assert_agrees(s - a, ref_add(ref_scale(x, -1), ref_of({(): s})))
    assert (a == b) == (x == y)


# Coefficients over many denominators, so sums and products of the numerator
# store meet differing ones, and words of one length, on which a product of
# more than a few pairs skips the search for colliding words.
wide = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
one_length = st.integers(0, 3).flatmap(lambda k: st.dictionaries(
    st.lists(st.sampled_from(SPREAD), min_size=k, max_size=k).map(tuple), wide, max_size=6))
mixed = st.dictionaries(spread_words, wide, max_size=6)
scalars = st.dictionaries(st.just(()), wide, max_size=1)
stores = st.one_of(one_length, mixed, scalars)


@settings(max_examples=200, deadline=None)
@given(stores, stores, wide)
@example({U1 + V: Fraction(1, 3), U3 + U1: Fraction(5, 6), V + V: -2},
         {(): Fraction(1, 2), U02: Fraction(3, 4)}, Fraction(6, 5))
@example({U1 + V: Fraction(1, 2), V + U1: Fraction(1, 2), V + V: Fraction(1, 4)},
         {U1: 2, V: 4, U3: Fraction(2, 3)}, 4)
@example({(): Fraction(-3, 4)}, {(): Fraction(4, 3)}, Fraction(-1, 12))
def test_the_numerator_store_agrees_with_a_plain_reference(ra, rb, s):
    x, y = ref_of(ra), ref_of(rb)
    a, b = FreeElement(ra), FreeElement(rb)
    results = ((a, x), (a + b, ref_add(x, y)), (a - b, ref_add(x, ref_scale(y, -1))),
               (-a, ref_scale(x, -1)), (a * b, ref_mul(x, y)), (b * a, ref_mul(y, x)),
               (a * s, ref_scale(x, s)), (s * a, ref_scale(x, s)))
    for e, r in results:
        assert_agrees(e, r)
        m = e.max_abs()
        assert type(m) is Fraction and m == max(map(abs, r.values()), default=0)
    # equal values reached by other roads are equal, with one hash
    for e, f in ((a + b - b, a), (a * b - a * b, FreeElement.zero()), ((a + b) * s, a * s + b * s)):
        assert e == f and hash(e) == hash(f)
    if list(x) == [()]:
        assert_agrees(a.inverse(), {(): 1 / x[()]})
        assert a * a.inverse() == 1
    else:
        with pytest.raises(SingularOperator):
            a.inverse()


def test_generators_and_words():
    x = FreeElement.gen("x")
    y = FreeElement.gen("y", site=2, degree=3)
    xy = x * y
    assert xy.named_words() == [(("x", "y"), 1)]
    assert type(coefficients(xy)[0]) is int
    assert xy == FreeElement({(Letter("x", 0, 1), Letter("y", 2, 3)): 1})
    assert xy != FreeElement({(Letter("x", 0, 1), Letter("y", 2, 1)): 1})
    assert str(xy) == "x_0 y_2"


def test_the_checked_constructor_takes_letter_words_only():
    with pytest.raises(AlgebraError):
        FreeElement({(("x", 0, 1),): 1})
    with pytest.raises(BackendMismatch):
        FreeElement({(Letter("x", 0, 1),): 0.5})
    assert FreeElement({(Letter("x", 0, 1),): 0}) == 0
    # an equal site or degree of another type would share the int's letter
    for bad in (dict(site=True), dict(site=1.0), dict(degree=True), dict(name=1)):
        with pytest.raises(AlgebraError):
            FreeElement.gen(**{"name": "x", **bad})
        with pytest.raises(AlgebraError):
            FreeElement({(Letter(**{"name": "x", "site": 1, "degree": 1, **bad}),): 1})


def test_a_generator_needs_a_site_of_at_least_0_and_a_degree_of_at_least_1():
    assert FreeElement.gen("x", 0, 1).named_words() == [(("x",), 1)]
    for site, degree in ((-1, 1), (False, 1), (0, 0), (0, -2), (0, 2.0), (0, False), (1.5, 1)):
        with pytest.raises(AlgebraError):
            FreeElement.gen("x", site, degree)


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
    assert not (x * 0) and (x * 0).named_words() == []


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
    assert prod == FreeElement({(Letter("L", 2, 1), Letter("L", 1, 1)): 1})
    assert prod != FreeElement({(Letter("L", 1, 1), Letter("L", 2, 1)): 1})
    assert str(prod) == "L_2 L_1"


def test_generators_store_int_coefficients():
    assert FreeElement.one().named_words() == [((), 1)]
    assert type(FreeElement.one().scalar_part()) is int
    assert type(coefficients(FreeElement.gen("x"))[0]) is int
    assert FreeElement({(): Fraction(6, 3)}).named_words() == [((), 2)]
    assert type(FreeElement({(): Fraction(6, 3)}).scalar_part()) is int
    assert type(FreeElement({(): True}).scalar_part()) is int


@settings(max_examples=80, deadline=None)
@given(elements, elements, coeffs)
def test_arithmetic_keeps_coefficients_canonical(a, b, s):
    assert canonical(a) and canonical(b)
    for result in (a + b, a - b, -a, a * b, b * a, a * s, s * a, a + s, a - s, s - a):
        assert canonical(result)


@settings(max_examples=80, deadline=None)
@given(raw, raw)
def test_int_and_fraction_built_elements_agree(ra, rb):
    a, b = FreeElement(ra), FreeElement(rb)
    fa, fb = FreeElement(ref_of(ra)), FreeElement(ref_of(rb))
    assert fa == a and fa.named_words() == a.named_words() and str(fa) == str(a)
    assert hash(fa) == hash(a)
    assert FreeElement(ref_mul(ref_of(ra), ref_of(rb))) == fa * fb == a * b
    assert hash(FreeElement(ref_add(ref_of(ra), ref_of(rb)))) == hash(a + b)


@settings(max_examples=50, deadline=None)
@given(elements)
def test_max_abs_is_a_fraction(a):
    m = a.max_abs()
    assert type(m) is Fraction
    assert m == max((abs(c) for c in coefficients(a)), default=0)


def test_invert_of_an_int_scalar_is_exact():
    inv = ops.invert(FreeElement({(): 2}))
    assert inv == FreeElement({(): Fraction(1, 2)})
    assert type(inv.scalar_part()) is Fraction
    assert ops.invert(FreeElement({(): Fraction(1, 3)})).named_words() == [((), 3)]
    assert type(ops.invert(FreeElement({(): -1})).scalar_part()) is int


def test_inverse_is_that_of_a_nonzero_scalar_only():
    assert FreeElement({(): 2}).inverse() == FreeElement({(): Fraction(1, 2)})
    for x in (FreeElement.zero(), FreeElement.gen("x"), FreeElement.one() + FreeElement.gen("x")):
        with pytest.raises(SingularOperator):
            x.inverse()
        with pytest.raises(SingularOperator):
            ops.invert(x)


def test_scalar_part_and_named_words():
    x, y = FreeElement.gen("x", site=2), FreeElement.gen("y", degree=3)
    e = x * y * Fraction(1, 2) + 3 - y
    assert e.scalar_part() == 3 and type(e.scalar_part()) is int
    assert (x * y).scalar_part() == 0
    # storage order, each word's letters by name
    assert e.named_words() == [(("x", "y"), Fraction(1, 2)), ((), 3), (("y",), -1)]


@pytest.mark.parametrize("op", [
    lambda x: x + 0.5, lambda x: 0.5 + x, lambda x: x - 0.5, lambda x: 0.5 - x,
    lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: FreeElement.zero() * 0.5,
], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "zero-mul"])
def test_a_float_operand_is_another_backend(op):
    # four of these raised TypeError, and 0.5 - x named `+`
    with pytest.raises(BackendMismatch):
        op(FreeElement.gen("x"))


def test_a_free_element_is_never_equal_to_a_float():
    assert FreeElement.one() != 1.0 and not FreeElement.zero() == 0.0
    assert FreeElement.one() == 1 and FreeElement.zero() == 0
