"""Operator-valued Laurent polynomials in one or more variables.

Coefficients live in any of the series backends (numbers, Matrix, FreeElement)
and are stored sparsely by exponent tuple, one exponent per variable, with
zeros pruned.  Every key of one polynomial has the same length: one variable
for fields and Rota-Baxter integrands, two spectral parameters for the RTT
relation.  Exponents may be negative, so a Lax operator in 1/lambda is a
polynomial too.

Integration (one variable only) returns the antiderivative vanishing at the
base point, which is what the weight-zero Rota-Baxter operator and every
iterated integral here mean by "integral".
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import BackendMismatch, DimensionMismatch, SingularOperator
from .ops import SCALARS, is_zero, max_abs, to_float


class Poly:
    """Mapping exponent tuple -> nonzero coefficient; the empty mapping is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for e, c in (coeffs or {}).items():
            if type(e) is not tuple or not e:
                raise DimensionMismatch(f"exponents are nonempty tuples, got {e!r}")
            if not is_zero(c):
                clean[e] = c
        if len({len(e) for e in clean}) > 1:
            raise DimensionMismatch("exponent tuples of different lengths")
        self.coeffs = clean

    @staticmethod
    def constant(op) -> "Poly":
        return Poly({(0,): op})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_nvars(self, other: "Poly"):
        """Raise unless both polynomials have the same number of variables."""
        if self.coeffs and other.coeffs:
            if len(next(iter(self.coeffs))) != len(next(iter(other.coeffs))):
                raise DimensionMismatch("polynomials in different numbers of variables")

    def exponent_range(self, var: int) -> tuple[int, int]:
        vals = [e[var] for e in self.coeffs] or [0]
        return min(vals), max(vals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_nvars(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, SCALARS):
            return Poly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_nvars(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                term = c1 * c2
                out[e] = out[e] + term if e in out else term
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        if isinstance(other, SCALARS):
            return Poly({e: other * c for e, c in self.coeffs.items()})
        return NotImplemented

    def shift(self, exps) -> "Poly":
        """Multiply by the monomial with the given exponents."""
        return Poly({tuple(map(add, e, exps)): c for e, c in self.coeffs.items()})

    def restrict_floor(self, floors) -> "Poly":
        """Keep only monomials with every exponent at or above its floor."""
        return Poly({e: c for e, c in self.coeffs.items() if all(a >= f for a, f in zip(e, floors))})

    def integrate(self, x0=Fraction(0)) -> "Poly":
        """Antiderivative F with F(x0) = 0, i.e. the integral from x0 to x."""
        out: dict = {}
        for e, c in self.coeffs.items():
            if len(e) != 1:
                raise DimensionMismatch("integration is in one variable")
            (d,) = e
            if d == -1:
                raise BackendMismatch("the antiderivative of 1/x is not a Laurent polynomial")
            out[(d + 1,)] = c / (d + 1) if isinstance(c, float) else c * Fraction(1, d + 1)
        p = Poly(out)
        if x0 or p.exponent_range(0)[0] < 0:
            p = p - Poly.constant(p.eval(x0))
        return p

    def eval(self, *point):
        """Value at `point`, one coordinate per variable.

        Each monomial's scalar is computed exactly as a product of Fraction
        powers and multiplies its coefficient once; the terms are summed in
        storage order.  The zero polynomial evaluates to Fraction(0), and a
        negative power of a zero coordinate raises SingularOperator.
        """
        point = [p if type(p) is Fraction else Fraction(p) for p in point]
        total = None
        for exps, c in self.coeffs.items():
            if len(exps) != len(point):
                raise DimensionMismatch(f"need {len(exps)} coordinates, got {len(point)}")
            scalar = None
            for p, e in zip(point, exps):
                if e:
                    if e < 0 and not p:
                        raise SingularOperator("evaluation at a pole")
                    scalar = p ** e if scalar is None else scalar * p ** e
            term = c if scalar is None else c * scalar
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def map_coeffs(self, f) -> "Poly":
        return Poly({e: f(c) for e, c in self.coeffs.items()})

    def max_abs(self):
        return max((max_abs(c) for c in self.coeffs.values()), default=Fraction(0))

    def to_float(self) -> "Poly":
        return self.map_coeffs(to_float)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"({c})" if not any(e) else f"({c}) x^{e[0] if len(e) == 1 else e}"
            for e, c in sorted(self.coeffs.items())
        )

    def __repr__(self) -> str:
        return f"Poly({self})"
