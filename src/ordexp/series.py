"""Truncated formal power series in one grading parameter over an operator algebra.

A series of order D keeps coefficients c_0..c_D and drops everything above.
Coefficients may be plain numbers, Matrix, or FreeElement; mixing backends in
one arithmetic expression raises BackendMismatch. exp/log/inverse work degree
by degree and are exact for exact coefficients: exp needs a vanishing constant
term, log needs a unit constant term, and inverse needs an invertible one.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BackendMismatch, DimensionMismatch, check_order
from .ops import SCALARS, check_compatible, invert, is_zero, max_abs, one_like, to_float, zero_like


class AlphaSeries:
    """Coefficient list c_0..c_D; all arithmetic truncates at D."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DimensionMismatch("series needs at least the constant coefficient")
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return zero_like(self.coeffs[0])

    @staticmethod
    def one(order: int, like) -> "AlphaSeries":
        check_order(order)
        z = zero_like(like)
        return AlphaSeries([one_like(like)] + [z] * order)

    @staticmethod
    def zero(order: int, like) -> "AlphaSeries":
        check_order(order)
        z = zero_like(like)
        return AlphaSeries([z] * (order + 1))

    @staticmethod
    def from_parts(order: int, parts: dict, like) -> "AlphaSeries":
        """Series with the given degree -> coefficient entries, zeros elsewhere."""
        check_order(order)
        cs = [zero_like(like) for _ in range(order + 1)]
        for d, c in parts.items():
            if 0 <= d <= order:
                cs[d] = c
        return AlphaSeries(cs)

    def _binop_check(self, other: "AlphaSeries"):
        if self.order != other.order:
            raise DimensionMismatch(f"series orders differ: {self.order} vs {other.order}")
        check_compatible(self.coeffs[0], other.coeffs[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        return self.order == other.order and all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "AlphaSeries":
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        self._binop_check(other)
        return AlphaSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other) -> "AlphaSeries":
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        self._binop_check(other)
        return AlphaSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "AlphaSeries":
        return AlphaSeries([-a for a in self.coeffs])

    def scale(self, s) -> "AlphaSeries":
        return AlphaSeries([c * s for c in self.coeffs])

    def __mul__(self, other) -> "AlphaSeries":
        if isinstance(other, SCALARS):
            return self.scale(other)
        if not isinstance(other, AlphaSeries):
            return NotImplemented
        self._binop_check(other)
        D = self.order
        a, b = self.coeffs, other.coeffs
        out = []
        for n in range(D + 1):
            acc = None
            for k in range(n + 1):
                if is_zero(a[k]) or is_zero(b[n - k]):
                    continue
                term = a[k] * b[n - k]
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else zero_like(a[0]))
        return AlphaSeries(out)

    def __rmul__(self, other) -> "AlphaSeries":
        if isinstance(other, SCALARS):
            return self.scale(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs)

    def truncate(self, order: int) -> "AlphaSeries":
        check_order(order)
        if order <= self.order:
            return AlphaSeries(self.coeffs[:order + 1])
        z = zero_like(self.coeffs[0])
        return AlphaSeries(self.coeffs + (z,) * (order - self.order))

    def flip(self) -> "AlphaSeries":
        """Substitute alpha -> -alpha."""
        return AlphaSeries([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    def exp(self) -> "AlphaSeries":
        if not is_zero(self.coeffs[0]):
            raise BackendMismatch("exp needs a vanishing constant term")
        D = self.order
        result = term = AlphaSeries.one(D, self.coeffs[0])
        for k in range(1, D + 1):
            term = (term * self).scale(Fraction(1, k))
            result = result + term
        return result

    def _check_kinds(self):
        """Raise unless every coefficient lives in the constant term's algebra
        (`ops.check_compatible`); the arithmetic operators compare only the
        constant terms."""
        c0 = self.coeffs[0]
        for c in self.coeffs[1:]:
            check_compatible(c0, c)

    def log(self) -> "AlphaSeries":
        self._check_kinds()
        u = self - AlphaSeries.one(self.order, self.coeffs[0])
        if not is_zero(u.coeffs[0]):
            raise BackendMismatch("log needs constant term equal to the identity")
        return _power_sum(AlphaSeries.zero(self.order, u.coeffs[0]), u,
                          lambda k: Fraction((-1) ** (k + 1), k))

    def inverse(self) -> "AlphaSeries":
        """Multiplicative inverse; the constant term must be invertible."""
        self._check_kinds()
        c0 = self.coeffs[0]
        D = self.order
        c0inv = invert(c0)
        # self = c0 * unit with unit = 1 + u, so self^{-1} = unit^{-1} c0^{-1},
        # and unit^{-1} is the alternating Neumann sum.
        unit = AlphaSeries([c0inv * c for c in self.coeffs])
        one = AlphaSeries.one(D, c0)
        result = _power_sum(one, unit - one, lambda k: (-1) ** k)
        return AlphaSeries([c * c0inv for c in result.coeffs])

    def max_abs(self):
        return max(max_abs(c) for c in self.coeffs)

    def to_float(self) -> "AlphaSeries":
        return AlphaSeries([to_float(c) for c in self.coeffs])

    def __str__(self) -> str:
        return " + ".join(f"a^{k} ({c})" for k, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"AlphaSeries(order={self.order})"


def _power_sum(start: AlphaSeries, u: AlphaSeries, weight) -> AlphaSeries:
    """`start + sum_k weight(k) u^k` for k = 1..order, each power the series
    product of the one before and `u`, the first by the series one."""
    result = start
    power = AlphaSeries.one(u.order, u.coeffs[0])
    for k in range(1, u.order + 1):
        power = power * u
        result = result + power.scale(weight(k))
    return result
