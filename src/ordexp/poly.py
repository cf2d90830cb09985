"""Operator-valued polynomials in one real variable.

Coefficients live in any of the series backends (numbers, Matrix, FreeElement)
and are stored sparsely by degree with zeros pruned. Integration returns the
antiderivative vanishing at the base point, which is what the weight-zero
Rota-Baxter operator and every iterated integral here mean by "integral".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BackendMismatch
from .ops import SCALARS, is_zero, max_abs
from .ops import commutator as poly_commutator


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for d, c in (coeffs or {}).items():
            if d < 0:
                raise BackendMismatch("polynomials here have nonnegative degrees")
            if not is_zero(c):
                clean[int(d)] = c
        self.coeffs = clean

    @staticmethod
    def constant(op) -> "Poly":
        return Poly({0: op})

    @staticmethod
    def variable() -> "Poly":
        return Poly({1: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            if d in out:
                s = out[d] + c
                if is_zero(s):
                    del out[d]
                else:
                    out[d] = s
            else:
                out[d] = c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({d: -c for d, c in self.coeffs.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, SCALARS):
            return Poly({d: c * other for d, c in self.coeffs.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                term = c1 * c2
                if d in out:
                    out[d] = out[d] + term
                else:
                    out[d] = term
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, SCALARS):
            return Poly({d: other * c for d, c in self.coeffs.items()})
        return NotImplemented

    def integrate(self, x0=Fraction(0)) -> "Poly":
        """Antiderivative F with F(x0) = 0, i.e. the integral from x0 to x."""
        out: dict = {}
        const = None
        for d, c in self.coeffs.items():
            c1 = c / (d + 1) if isinstance(c, float) else c * Fraction(1, d + 1)
            out[d + 1] = c1
            if x0:
                v = c1 * x0 ** (d + 1)
                const = v if const is None else const + v
        p = Poly(out)
        if const is not None:
            p = p - Poly({0: const})
        return p

    def eval(self, x):
        """Value at x by Horner's rule; the zero polynomial evaluates to Fraction(0)."""
        if not self.coeffs:
            return Fraction(0)
        acc = None
        for d in range(self.degree(), -1, -1):
            if acc is not None:
                acc = acc * x
            c = self.coeffs.get(d)
            if c is not None:
                acc = c if acc is None else acc + c
        return acc

    def map_coeffs(self, f) -> "Poly":
        return Poly({d: f(c) for d, c in self.coeffs.items()})

    def max_abs(self):
        return max((max_abs(c) for c in self.coeffs.values()), default=Fraction(0))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"({c})" if d == 0 else f"({c}) x^{d}") for d, c in sorted(self.coeffs.items())
        )

    def __repr__(self) -> str:
        return f"Poly({self})"

