"""Free noncommutative elements: rational-linear combinations of words.

A letter is a named symbol attached to a site index and a degree; a word is a
tuple of letters and multiplies by concatenation. Elements store a mapping
word -> coefficient with zero coefficients pruned, so equality is exact and
structural. A coefficient is stored in one canonical form: a plain `int` when
it is integral, otherwise a `Fraction` with denominator > 1, so the common
integer coefficients never pay for `Fraction` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BackendMismatch


class Letter(NamedTuple):
    name: str
    site: int
    degree: int

    def __str__(self) -> str:
        return f"{self.name}_{self.site}"


def _coerce(c):
    """The canonical form of a rational coefficient: int if integral, else Fraction."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise BackendMismatch(f"free-element coefficients must be rational, got {type(c).__name__}")


class FreeElement:
    """A finite rational combination of words over site-indexed letters."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, c in (terms or {}).items():
            c = _coerce(c)
            if c:
                clean[tuple(word)] = c
        self.terms = clean

    @staticmethod
    def zero() -> "FreeElement":
        return FreeElement({})

    @staticmethod
    def one() -> "FreeElement":
        return FreeElement({(): 1})

    @staticmethod
    def gen(name: str, site: int = 0, degree: int = 1) -> "FreeElement":
        return FreeElement({(Letter(name, site, degree),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FreeElement({(): other}) if other else FreeElement({})
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A scalar element is == to its scalar, so it hashes as that scalar.
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "FreeElement":
        if isinstance(other, (int, Fraction)):
            other = FreeElement({(): other})
        if not isinstance(other, FreeElement):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return FreeElement(out)

    __radd__ = __add__

    def __neg__(self) -> "FreeElement":
        return FreeElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> "FreeElement":
        return self + (-other if isinstance(other, FreeElement) else FreeElement({(): -_coerce(other)}))

    def __rsub__(self, other) -> "FreeElement":
        return (-self) + other

    def __mul__(self, other) -> "FreeElement":
        if isinstance(other, (int, Fraction)):
            return FreeElement({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, FreeElement):
            return NotImplemented
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    out.pop(w, None)
        return FreeElement(out)

    def __rmul__(self, other) -> "FreeElement":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def max_abs(self) -> Fraction:
        return Fraction(max((abs(c) for c in self.terms.values()), default=0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        def word_key(item):
            w, _ = item
            return (len(w), [(l.name, l.degree, l.site) for l in w])
        parts = []
        for w, c in sorted(self.terms.items(), key=word_key):
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
