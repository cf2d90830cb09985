"""The operator protocol: every per-backend decision, in one place.

An operator is an exact or float scalar (one of `SCALARS`), a `Matrix`, or
a `FreeElement`.  Every other value in the package is a container of
operators (series, site sequences, polynomials, ...) whose `max_abs()` maps
the function below over its children, so this module is the only place that
asks which backend a value lives in.  Which backend a sampled value is
drawn in is decided in one place too: `sampling.SampleSource`, whose
`cast` converts every float-backend operator through `to_float`, so an
exact and a float matrix never meet (`check_compatible` refuses them).  The
containers it converts (the yangian `Poly` R-matrices and `AlphaSeries`
Lax operators) carry their own `to_float()`, which maps `to_float` over
their coefficients; those two are its only other callers.
The rule that turns a law's residuals into its reported defect is here as
well: `worst` takes their largest `max_abs`, keeping their type.

`SCALARS` and `commutator` are defined in `matrix`, which sits below this
module (`Matrix` needs the scalar tuple, and `matrix.commutator` is public);
they are re-exported here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BackendMismatch, DimensionMismatch, InsufficientSamples, SingularOperator
from .freealg import FreeElement
from .matrix import SCALARS, Matrix, _wrap, commutator, fused_prelie_site

__all__ = ["SCALARS", "check_compatible", "commutator", "invert", "is_zero",
           "max_abs", "one_like", "prelie_site", "to_float", "unit_product", "worst",
           "zero_like"]


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


def unit_product(unit, x):
    """`unit * x`, equally `x * unit`, for `unit = one_like(...)` of the algebra
    of a nonzero `x`, formed without the product and with the same value.

    An exact matrix gives `x` itself, a float one its entries as `0.0 + v`:
    the zero-skipping product starts each entry at 0.0 and adds `1.0 * v`
    for each nonzero `v`, so -0.0 becomes 0.0.  Any other `x` is itself
    when its type is the unit's (a free element, or a scalar of the unit's
    type), otherwise `unit * x` (an int or a float meeting `Fraction(1)`, a
    rational meeting 1.0).
    """
    if isinstance(x, Matrix):
        if (x.den is None) != (unit.den is None):
            raise BackendMismatch("an exact and a float matrix")
        return x if x.den is not None else _wrap([0.0 + v for v in x.num], x.rows, x.cols, None)
    return x if type(x) is type(unit) else unit * x


def is_zero(x) -> bool:
    if isinstance(x, Matrix):
        return x.is_zero()
    return not x


def check_compatible(a, b):
    """Raise unless `a` and `b` live in the same operator algebra; matrices
    also share their shape and their backend."""
    if isinstance(a, Matrix) != isinstance(b, Matrix) or isinstance(a, FreeElement) != isinstance(b, FreeElement):
        raise BackendMismatch(f"{type(a).__name__} vs {type(b).__name__}")
    if isinstance(a, Matrix) and (a.rows != b.rows or a.cols != b.cols):
        raise DimensionMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    if isinstance(a, Matrix) and a.is_exact() != b.is_exact():
        raise BackendMismatch("an exact and a float matrix")


def prelie_site(p, q, x, y):
    """(p*q - q*p) + x*y, the value of a pre-Lie product at one site.

    Four square `Matrix` values of one shape go through
    `matrix.fused_prelie_site`, which gives the same entries, bit for bit,
    in one pass, and refuses two backends as the composed formula does.
    Anything else is the composed formula: scalars and free elements.
    """
    if type(p) is type(q) is type(x) is type(y) is Matrix and (
            p.rows == p.cols == q.rows == q.cols == x.rows == x.cols == y.rows == y.cols):
        return fused_prelie_site(p, q, x, y)
    return (p * q - q * p) + x * y


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
        return FreeElement({(): Fraction(1) / x.terms[()]})
    if not x:
        raise SingularOperator("zero scalar has no inverse")
    return 1.0 / x if isinstance(x, float) else Fraction(1) / x


def max_abs(x):
    """Largest absolute coefficient of an operator or a container of operators."""
    if isinstance(x, SCALARS):
        return abs(x)
    return x.max_abs()


def worst(residuals):
    """Largest `max_abs` over a nonempty iterable of residuals: a row's defect.

    There is no starting value, so the defect keeps the residuals' type: a
    float residual makes it a float, even at 0.0.  No residual at all raises
    InsufficientSamples, so a check that ran on no case never reads as zero.
    The iterable is consumed one residual at a time and none is kept.
    """
    best = None
    floated = False
    for r in residuals:
        d = max_abs(r)
        floated = floated or isinstance(d, float)
        if best is None or d > best:
            best = d
    if best is None:
        raise InsufficientSamples("no residual to take the worst of")
    return float(best) if floated else best


def to_float(x):
    """The same value with every coefficient converted to float."""
    if isinstance(x, SCALARS):
        return float(x)
    return x.to_float()
