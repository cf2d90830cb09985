"""The operator protocol: every per-backend decision, in one place.

An operator is an exact or float scalar (one of `SCALARS`), a `Matrix`, or
a `FreeElement`.  Every other value in the package is a container of
operators (series, site sequences, polynomials, ...) whose `max_abs()` maps
the function below over its children, so this module is the only place that
asks which backend a value lives in.  Which backend a sampled value is
drawn in is decided in one place too: `sampling.SampleSource`, whose
`cast` is the one caller of `to_float` (the yangian `Poly` R-matrices and
`AlphaSeries` Lax operators it converts carry their own `to_float()`).

`SCALARS` and `commutator` are defined in `matrix`, which sits below this
module (`Matrix` needs the scalar tuple, and `matrix.commutator` is public);
they are re-exported here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BackendMismatch, DimensionMismatch, SingularOperator
from .freealg import FreeElement
from .matrix import SCALARS, Matrix, commutator

__all__ = ["SCALARS", "check_compatible", "commutator", "invert", "is_zero",
           "max_abs", "one_like", "to_float", "zero_like"]


def zero_like(x):
    """The zero of the algebra `x` lives in, of the same shape and backend.

    A scalar or `Matrix` zero is exact when `x` is and float when `x` is
    float, so the float backend never rounds an exact zero.
    """
    if isinstance(x, Matrix):
        z = Matrix.zeros(x.rows, x.cols)
        return z if x.is_exact() else z.to_float()
    if isinstance(x, FreeElement):
        return FreeElement.zero()
    if isinstance(x, SCALARS):
        return 0.0 if isinstance(x, float) else Fraction(0)
    raise BackendMismatch(f"unknown operator type {type(x).__name__}")


def one_like(x):
    """The unit of the algebra `x` lives in, in the backend of `x`."""
    if isinstance(x, Matrix):
        if not x.is_square():
            raise DimensionMismatch("identity only exists for square matrices")
        one = Matrix.identity(x.rows)
        return one if x.is_exact() else one.to_float()
    if isinstance(x, FreeElement):
        return FreeElement.one()
    if isinstance(x, SCALARS):
        return 1.0 if isinstance(x, float) else Fraction(1)
    raise BackendMismatch(f"unknown operator type {type(x).__name__}")


def is_zero(x) -> bool:
    if isinstance(x, Matrix):
        return x.is_zero()
    return not x


def check_compatible(a, b):
    """Raise unless `a` and `b` live in the same operator algebra."""
    if isinstance(a, Matrix) != isinstance(b, Matrix) or isinstance(a, FreeElement) != isinstance(b, FreeElement):
        raise BackendMismatch(f"{type(a).__name__} vs {type(b).__name__}")
    if isinstance(a, Matrix) and (a.rows != b.rows or a.cols != b.cols):
        raise DimensionMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def invert(x):
    """Two-sided inverse; SingularOperator when there is none.

    A free element is a unit of the free algebra only when it is a nonzero
    scalar, so that is the only free element this inverts.
    """
    if isinstance(x, Matrix):
        return x.inverse()
    if isinstance(x, FreeElement):
        if list(x.terms) != [()]:
            raise SingularOperator("a free element is invertible only when it is a nonzero scalar")
        return FreeElement({(): 1 / x.terms[()]})
    if not x:
        raise SingularOperator("zero scalar has no inverse")
    return 1.0 / x if isinstance(x, float) else Fraction(1) / x


def max_abs(x):
    """Largest absolute coefficient of an operator or a container of operators."""
    if isinstance(x, SCALARS):
        return abs(x)
    return x.max_abs()


def to_float(x):
    """The same value with every coefficient converted to float."""
    if isinstance(x, SCALARS):
        return float(x)
    return x.to_float()
