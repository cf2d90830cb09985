"""Free noncommutative elements: rational-linear combinations of words.

A letter is a named symbol attached to a site index and a degree.  The
module interns each distinct `Letter` once, to a small int id, and tables
its sort key (name, degree, site) and its spelling beside it, so a word is
a tuple of ids: it multiplies by concatenation, hashes without touching a
letter's name, and is spelled and sorted from the tables.

An element stores its words as integer numerators over one denominator:
`terms` maps each word to a nonzero plain `int`, and `denom` is a positive
int with gcd(denom, *numerators) == 1.  That form is unique, so equality
compares ints and the hash is built from them.  A product multiplies
numerators and denominators, a sum or difference works over the lcm of the
two denominators, and each reduces once, only when its denominator is not
1.  When every word of one factor has the same length, concatenation is
one-to-one, so no two terms of the product meet and a product of more than
a few pairs is one comprehension over them.  The canonical coefficient (a
plain `int` when it is integral, otherwise a `Fraction` with denominator >
1) is built only where one is read: `named_words`, `scalar_part`,
`max_abs`, `str`, and the comparison and hash of a scalar element with its
scalar.  A float operand raises BackendMismatch: free coefficients are
exact on both backends.

`FreeElement(terms)` is the checked constructor: it takes words of
`Letter`s, interns them and checks every coefficient.  Every element the
module makes itself (sums, differences, products, scalar multiples,
negation, `gen`, `one`, `zero`) is wrapped as built, without a second walk
(`_element`).  No output reads an id: `str` sorts words by (length, name,
degree, site), and `named_words` lists them in storage order, so nothing
depends on the order in which the letters were interned.

This module is the only one that reads that store (`terms`, `denom`, and a
word's letters): other modules ask an element for its `scalar_part`, its
`inverse` or its `named_words`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import AlgebraError, BackendMismatch, SingularOperator
from .matrix import SCALARS


class Letter(NamedTuple):
    name: str
    site: int
    degree: int

    def __str__(self) -> str:
        return f"{self.name}_{self.site}"


# The interned letters: `_LETTERS[i]` is the letter with id i, `_IDS` the
# inverse, `_KEYS[i]` its sort key and `_SPELLINGS[i]` how `str` writes it.
_LETTERS: list = []
_IDS: dict = {}
_KEYS: list = []
_SPELLINGS: list = []


def _intern(letter: Letter) -> int:
    """The id of `letter`, interned when first met.  It must be a `Letter`
    with a str name and a plain int site and degree: `True` or `1.0` equals
    1, so it would share 1's id and be spelled as whichever came first."""
    if not (isinstance(letter, Letter) and type(letter.name) is str
            and type(letter.site) is int and type(letter.degree) is int):
        raise AlgebraError(f"a free-element word is a tuple of Letters with a str name and "
                           f"an int site and degree, got {letter!r}")
    i = _IDS.get(letter)
    if i is None:
        i = _IDS[letter] = len(_LETTERS)
        _LETTERS.append(letter)
        _KEYS.append((letter.name, letter.degree, letter.site))
        _SPELLINGS.append(str(letter))
    return i


def _ratio(c) -> tuple:
    """(numerator, denominator) of a rational coefficient, in lowest terms."""
    if type(c) is int:
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, int):
        return int(c), 1
    raise BackendMismatch(f"free-element coefficients must be rational, got {type(c).__name__}")


def _coefficient(n: int, denom: int):
    """The canonical coefficient n / denom: an int if integral, else a Fraction."""
    if denom == 1:
        return n
    c = Fraction(n, denom)
    return c.numerator if c.denominator == 1 else c


def _spelled(n: int, denom: int) -> str:
    """n / denom as `str` spells its canonical coefficient: "n" or "n/d" in lowest terms."""
    g = gcd(n, denom)
    return str(n // g) if g == denom else f"{n // g}/{denom // g}"


def _element(terms: dict, denom: int = 1) -> "FreeElement":
    """The element of an already reduced numerator dict over `denom`, stored as is."""
    e = object.__new__(FreeElement)
    e.terms = terms
    e.denom = denom
    return e


def _reduced(terms: dict, denom: int) -> "FreeElement":
    """The element of the numerators `terms` over `denom`, their common factor divided out."""
    if denom != 1:
        g = gcd(denom, *terms.values())
        if g != 1:
            denom //= g
            terms = {w: n // g for w, n in terms.items()}
    return _element(terms, denom)


def _scalar(c) -> "FreeElement":
    n, d = _ratio(c)
    return _element({(): n}, d) if n else _element({})


def _one_length(terms: dict) -> bool:
    """Whether every word has the same length."""
    return len(set(map(len, terms))) < 2


class FreeElement:
    """A finite rational combination of words over site-indexed letters."""

    __slots__ = ("terms", "denom")

    def __init__(self, terms=None):
        parts = []
        denom = 1
        for word, c in (terms or {}).items():
            word = tuple(_intern(letter) for letter in word)
            n, d = _ratio(c)
            if n:
                parts.append((word, n, d))
                denom = lcm(denom, d)
        # over the lcm of reduced fractions the numerators share no factor with it
        self.terms = {w: n * (denom // d) for w, n, d in parts}
        self.denom = denom

    @staticmethod
    def zero() -> "FreeElement":
        return _element({})

    @staticmethod
    def one() -> "FreeElement":
        return _element({(): 1})

    @staticmethod
    def gen(name: str, site: int = 0, degree: int = 1) -> "FreeElement":
        """The letter `name` at `site` of degree `degree`, as an element.  A
        site that is not an int of at least 0, or a degree that is not an
        int of at least 1 (a bool is neither), is AlgebraError."""
        if not (type(site) is int and site >= 0 and type(degree) is int and degree >= 1):
            raise AlgebraError(f"a generator needs an int site of at least 0 and an int degree "
                               f"of at least 1, got site {site!r} and degree {degree!r}")
        return _element({(_intern(Letter(name, site, degree)),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self):
        """The coefficient of the empty word: 0 when there is none."""
        return _coefficient(self.terms.get((), 0), self.denom)

    def named_words(self) -> list:
        """(letter names, coefficient) per word, in the order the element stores them."""
        denom = self.denom
        return [(tuple(_LETTERS[i].name for i in w), _coefficient(n, denom))
                for w, n in self.terms.items()]

    def inverse(self) -> "FreeElement":
        """Two-sided inverse: only a nonzero scalar is a unit of the free algebra."""
        if list(self.terms) != [()]:
            raise SingularOperator("a free element is invertible only when it is a nonzero scalar")
        n, d = self.terms[()], self.denom
        return _element({(): d}, n) if n > 0 else _element({(): -d}, -n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _scalar(other)
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.denom == other.denom and self.terms == other.terms

    def __hash__(self):
        # A scalar element is == to its scalar, so it hashes as that scalar.
        if self.terms.keys() <= {()}:
            return hash(self.scalar_part())
        return hash((self.denom, frozenset(self.terms.items())))

    def __add__(self, other) -> "FreeElement":
        if not isinstance(other, FreeElement):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = _scalar(other)
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "FreeElement":
        return _element({w: -n for w, n in self.terms.items()}, self.denom)

    def __sub__(self, other) -> "FreeElement":
        if not isinstance(other, FreeElement):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = _scalar(other)
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "FreeElement":
        return (-self) + other

    def __mul__(self, other) -> "FreeElement":
        if not isinstance(other, FreeElement):
            if not isinstance(other, SCALARS):
                return NotImplemented
            n, d = _ratio(other)
            if not n:
                return _element({})
            return _reduced({w: c * n for w, c in self.terms.items()}, self.denom * d)
        a, b = self.terms, other.terms
        # over a few pairs the loop costs less than the length test
        if len(a) * len(b) > 4 and (_one_length(a) or _one_length(b)):
            # no two pairs of words concatenate to one word
            out = {w1 + w2: c1 * c2 for w1, c1 in a.items() for w2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            for w1, c1 in a.items():
                for w2, c2 in b.items():
                    w = w1 + w2
                    s = get(w, 0) + c1 * c2
                    if s:
                        out[w] = s
                    else:
                        del out[w]
        return _reduced(out, self.denom * other.denom)

    def __rmul__(self, other) -> "FreeElement":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def max_abs(self) -> Fraction:
        return Fraction(max(map(abs, self.terms.values()), default=0), self.denom)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys, spell, denom = _KEYS.__getitem__, _SPELLINGS.__getitem__, self.denom
        parts = []
        for w, n in sorted(self.terms.items(), key=lambda item: (len(item[0]), list(map(keys, item[0])))):
            body = " ".join(map(spell, w))
            if not w:
                piece = _spelled(n, denom)
            elif n == denom:
                piece = body
            elif n == -denom:
                piece = "-" + body
            else:
                piece = f"{_spelled(n, denom)} {body}"
            parts.append(piece)
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self) -> str:
        return f"FreeElement({self})"


def _combine(a: FreeElement, b: FreeElement, sign: int) -> FreeElement:
    """a + sign * b over the lcm of the two denominators, in a's word order
    followed by the words only b has."""
    da, db = a.denom, b.denom
    if da == db:
        out, fb, denom = dict(a.terms), sign, da
    else:
        denom = lcm(da, db)
        fa, fb = denom // da, sign * (denom // db)
        out = {w: n * fa for w, n in a.terms.items()} if fa != 1 else dict(a.terms)
    get = out.get
    for w, n in b.terms.items():
        s = get(w, 0) + n * fb
        if s:
            out[w] = s
        else:
            del out[w]
    return _reduced(out, denom)
