"""Free noncommutative elements: rational-linear combinations of words.

A letter is a named symbol attached to a site index and a degree.  The
module interns each distinct `Letter` once, to a small int id, so a word is
a tuple of ids: it multiplies by concatenation and hashes without touching
a letter's name.  Elements store a mapping word -> coefficient with zero
coefficients pruned, so equality is exact and structural.  A coefficient is
stored in one canonical form: a plain `int` when it is integral, otherwise a
`Fraction` with denominator > 1, so the common integer coefficients never
pay for `Fraction` arithmetic.  A float operand raises BackendMismatch: free
coefficients are exact on both backends.

`FreeElement(terms)` is the checked constructor: it takes words of
`Letter`s, interns them and coerces every coefficient.  Every element the
module makes itself (sums, differences, products, scalar multiples,
negation, `gen`, `one`, `zero`) is wrapped as built, without a second walk
(`_element`); the one normalisation left is that an integral `Fraction`
result becomes an `int`.  No output reads an id: `str` maps ids back to
letters and sorts words by (length, name, degree, site), and `named_words`
lists them in storage order, so nothing depends on the order in which the
letters were interned.

This module is the only one that reads that store (`terms`, and a word's
letters): other modules ask an element for its `scalar_part`, its
`inverse` or its `named_words`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import AlgebraError, BackendMismatch, SingularOperator
from .matrix import SCALARS


class Letter(NamedTuple):
    name: str
    site: int
    degree: int

    def __str__(self) -> str:
        return f"{self.name}_{self.site}"


# The interned letters: `_LETTERS[i]` is the letter with id i, `_IDS` the inverse.
_LETTERS: list = []
_IDS: dict = {}


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
    return i


def _coerce(c):
    """The canonical form of a rational coefficient: int if integral, else Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise BackendMismatch(f"free-element coefficients must be rational, got {type(c).__name__}")


def _integral(terms: dict) -> dict:
    """`terms` with every integral Fraction coefficient made an int, in place."""
    for w, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[w] = c.numerator
    return terms


def _element(terms: dict) -> "FreeElement":
    """The element of an already clean word -> coefficient dict, stored as is."""
    e = object.__new__(FreeElement)
    e.terms = terms
    return e


def _scalar(c) -> "FreeElement":
    c = _coerce(c)
    return _element({(): c} if c else {})


class FreeElement:
    """A finite rational combination of words over site-indexed letters."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, c in (terms or {}).items():
            word = tuple(_intern(letter) for letter in word)
            c = _coerce(c)
            if c:
                clean[word] = c
        self.terms = clean

    @staticmethod
    def zero() -> "FreeElement":
        return _element({})

    @staticmethod
    def one() -> "FreeElement":
        return _element({(): 1})

    @staticmethod
    def gen(name: str, site: int = 0, degree: int = 1) -> "FreeElement":
        return _element({(_intern(Letter(name, site, degree)),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def scalar_part(self):
        """The coefficient of the empty word: 0 when there is none."""
        return self.terms.get((), 0)

    def named_words(self) -> list:
        """(letter names, coefficient) per word, in the order the element stores them."""
        return [(tuple(_LETTERS[i].name for i in w), c) for w, c in self.terms.items()]

    def inverse(self) -> "FreeElement":
        """Two-sided inverse: only a nonzero scalar is a unit of the free algebra."""
        if list(self.terms) != [()]:
            raise SingularOperator("a free element is invertible only when it is a nonzero scalar")
        return _scalar(Fraction(1) / self.terms[()])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _scalar(other)
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A scalar element is == to its scalar, so it hashes as that scalar.
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "FreeElement":
        if not isinstance(other, FreeElement):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = _scalar(other)
        out = dict(self.terms)
        get = out.get
        for w, c in other.terms.items():
            s = get(w, 0) + c
            if s:
                out[w] = _coerce(s)
            else:
                del out[w]
        return _element(out)

    __radd__ = __add__

    def __neg__(self) -> "FreeElement":
        return _element({w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "FreeElement":
        return self + (-other if isinstance(other, FreeElement) else _scalar(-_coerce(other)))

    def __rsub__(self, other) -> "FreeElement":
        return (-self) + other

    def __mul__(self, other) -> "FreeElement":
        if not isinstance(other, FreeElement):
            if not isinstance(other, SCALARS):
                return NotImplemented
            other = _coerce(other)
            return _element(_integral({w: c * other for w, c in self.terms.items()}) if other else {})
        out: dict = {}
        get = out.get
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return _element(_integral(out))

    def __rmul__(self, other) -> "FreeElement":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def max_abs(self) -> Fraction:
        return Fraction(max((abs(c) for c in self.terms.values()), default=0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        words = [([_LETTERS[i] for i in w], c) for w, c in self.terms.items()]
        def word_key(item):
            w, _ = item
            return (len(w), [(l.name, l.degree, l.site) for l in w])
        parts = []
        for w, c in sorted(words, key=word_key):
            body = " ".join(str(l) for l in w)
            if not w:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = "-" + body
            else:
                piece = f"{c} {body}"
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
