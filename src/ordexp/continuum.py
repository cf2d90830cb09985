"""Continuous Magnus and Dyson expansions, discretization, and limit studies.

Exact polynomial matrix fields keep every integral in closed form, so the
three Magnus constructions (explicit commutator integrals, the pre-Lie
form, and the Bernoulli fixed point) can be compared coefficient by
coefficient.  The pre-Lie form is the one the convergence study and the
open-evolution residual compute with; the other two are its references.
The explicit commutator integrals and the Dyson simplex oracle share one
simplex sum: every tuple of field monomials, weighted by the iterated
integral of its degrees.
The float layer only enters when evaluating those exact polynomials at
numeric points for finite-difference and rate checks.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

from .errors import AlgebraError, DimensionMismatch, UnsupportedOrder
from .expansion import FORWARD, SiteOperatorFamily, compositions, magnus_oracle
from .matrix import Matrix
from .ops import commutator
from .poly import Poly


def bernoulli(n: int) -> Fraction:
    """B_n from z/(e^z - 1), via the symmetric recurrence."""
    if n < 0:
        raise UnsupportedOrder("Bernoulli numbers start at n = 0")
    values = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * values[k]
        values.append(-acc / (m + 1))
    return values[n]


class MatrixField:
    """Matrix-valued polynomial field A(x) on the interval [x0, x_end]."""

    __slots__ = ("poly", "x0", "x_end", "dim")

    def __init__(self, poly: Poly, x0=Fraction(0), x_end=Fraction(1)):
        if not isinstance(poly, Poly):
            raise AlgebraError("a field needs a matrix-valued polynomial")
        if any(len(e) != 1 or e[0] < 0 for e in poly.coeffs):
            raise AlgebraError("a field is a polynomial in one variable with nonnegative degrees")
        sample = next(iter(poly.coeffs.values()), None)
        if not isinstance(sample, Matrix) or not sample.is_square():
            raise DimensionMismatch("field coefficients must be square matrices")
        self.poly = poly
        self.x0 = Fraction(x0)
        self.x_end = Fraction(x_end)
        if self.x_end <= self.x0:
            raise AlgebraError("empty interval")
        self.dim = sample.rows

    def eval(self, x) -> Matrix:
        return self.poly.eval(x)

    def integral(self) -> Poly:
        """The primitive vanishing at the base point."""
        return self.poly.integrate(self.x0)


def field_prelie(field: MatrixField, a: Poly, b: Poly) -> Poly:
    """(A |> B)(x) = [integral of A from the base point, B(x)]."""
    return commutator(a.integrate(field.x0), b)


def _scalar_simplex(degrees, x0) -> Poly:
    """Iterated integral of x1^d1 ... xm^dm over x0 < x1 < ... < xm < x.

    `degrees` is ordered innermost first.
    """
    acc = Poly.constant(Fraction(1))
    for d in degrees:
        acc = (Poly({(d,): Fraction(1)}) * acc).integrate(x0)
    return acc


def _monomials(field: MatrixField):
    """(degree, coefficient) pairs of the field, by increasing degree."""
    return [(d, c) for (d,), c in sorted(field.poly.coeffs.items())]


def _simplex_sum(field: MatrixField, m: int, integrand) -> Poly:
    """Sum over m-tuples of field monomials of the simplex weight times
    `integrand(mats)`, the tuple's matrices ordered innermost first."""
    total = Poly()
    for monos in product(_monomials(field), repeat=m):
        degrees, mats = zip(*monos)
        total = total + _scalar_simplex(degrees, field.x0) * Poly.constant(integrand(mats))
    return total


def _magnus_explicit(field: MatrixField, order: int) -> dict:
    """Commutator-integral Magnus terms, built monomial by monomial."""
    if order >= 4:
        raise UnsupportedOrder("explicit continuous Magnus terms stop at order 3")
    out = {1: field.integral()}
    if order >= 2:
        out[2] = Fraction(1, 2) * _simplex_sum(
            field, 2, lambda m: commutator(m[1], m[0]))
    if order >= 3:
        out[3] = Fraction(1, 6) * _simplex_sum(
            field, 3, lambda m: commutator(m[2], commutator(m[1], m[0]))
            + commutator(commutator(m[2], m[1]), m[0]))
    return out


def _magnus_prelie(field: MatrixField, order: int) -> dict:
    if order >= 4:
        raise UnsupportedOrder("pre-Lie continuous Magnus terms stop at order 3")
    a = field.poly
    x0 = field.x0
    out = {1: a.integrate(x0)}
    if order >= 2:
        aa = field_prelie(field, a, a)
        out[2] = (Fraction(-1, 2) * aa).integrate(x0)
    if order >= 3:
        left = field_prelie(field, aa, a)
        right = field_prelie(field, a, aa)
        out[3] = (Fraction(1, 4) * left + Fraction(1, 12) * right).integrate(x0)
    return out


def magnus_continuous(field: MatrixField, order: int = 3, style: str = "prelie") -> dict:
    """Magnus terms Q^(m)(x) as exact matrix polynomials, m = 1..order.

    The pre-Lie form is the one the package computes with; the
    commutator-integral form ("explicit") is its reference.
    """
    if order < 1:
        raise UnsupportedOrder("need order >= 1")
    if style == "explicit":
        return _magnus_explicit(field, order)
    if style == "prelie":
        return _magnus_prelie(field, order)
    raise AlgebraError(f"unknown style {style!r}")


def magnus_bernoulli_iterate(field: MatrixField, depth: int, order: int) -> dict:
    """Fixed point of Q = int sum_n (B_n/n!) ad_Q^n A in the order grading.

    Each sweep settles one more order, so depth below the requested order
    cannot have converged.
    """
    if depth < order:
        raise UnsupportedOrder("iteration depth below the requested order")
    a = field.poly
    x0 = field.x0
    q = {m: Poly() for m in range(1, order + 1)}
    for _ in range(depth):
        new = {}
        for m in range(1, order + 1):
            integrand = a if m == 1 else Poly()
            for n in range(1, m):
                b = bernoulli(n)
                if not b:
                    continue
                for combo in compositions(m - 1, n):
                    nested = a
                    for part in reversed(combo):
                        nested = commutator(q[part], nested)
                    integrand = integrand + (b / math.factorial(n)) * nested
            new[m] = integrand.integrate(x0)
        q = new
    return q


def dyson_continuous(field: MatrixField, order: int) -> dict:
    """T^(m)(x) by the nested right-to-left products A(x) . integral(B)."""
    if order < 1:
        raise UnsupportedOrder("need order >= 1")
    a = field.poly
    x0 = field.x0
    out = {}
    nested = a
    out[1] = nested.integrate(x0)
    for m in range(2, order + 1):
        nested = a * nested.integrate(x0)
        out[m] = nested.integrate(x0)
    return out


def dyson_simplex_oracle(field: MatrixField, order: int) -> dict:
    """T^(m)(x) as descending-ordered simplex integrals, term by term."""
    return {m: _simplex_sum(field, m, lambda mats: reduce(mul, reversed(mats)))
            for m in range(1, order + 1)}


def discretize(field: MatrixField, delta) -> SiteOperatorFamily:
    """Linear site family with L^(1)_n = delta * A(x0 + (n-1) delta).

    Left-endpoint sampling: site n carries the field value at the left
    edge of its subinterval, so T_1 sits at x0.  The step must divide the
    interval, so the chain covers all of it.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise AlgebraError("need a positive step")
    n_sites, rest = divmod(field.x_end - field.x0, delta)
    if n_sites < 1:
        raise AlgebraError("step larger than the interval")
    if rest:
        raise AlgebraError(f"delta {delta} does not divide the interval [{field.x0}, {field.x_end}]")
    entries = {}
    for n in range(1, n_sites + 1):
        value = field.eval(field.x0 + (n - 1) * delta) * delta
        entries[(n, 1)] = value
    like = Matrix.identity(field.dim)
    return SiteOperatorFamily(n_sites, entries, direction=FORWARD, like=like)


# The Magnus orders a convergence study compares.
STUDY_ORDERS = (1, 2, 3)


class ConvergenceTable:
    """Per-step errors and estimated convergence rates of the discrete terms,
    keyed by the orders of `STUDY_ORDERS`."""

    __slots__ = ("deltas", "errors", "rates")

    def __init__(self, deltas, errors, rates):
        self.deltas = deltas
        self.errors = errors
        self.rates = rates

    def csv_rows(self):
        yield "delta,err_q1,err_q2,err_q3,rate_q1,rate_q2,rate_q3"
        for i, delta in enumerate(self.deltas):
            cells = [f"{float(delta):.10g}"]
            cells += [f"{self.errors[m][i]:.12g}" for m in STUDY_ORDERS]
            cells += [f"{self.rates[m][i]:.6g}" for m in STUDY_ORDERS]
            yield ",".join(cells)


def convergence_study(field: MatrixField, deltas) -> ConvergenceTable:
    """Compare discrete Magnus terms against the continuous ones per step."""
    deltas = [Fraction(d) for d in deltas]
    if len(deltas) < 3:
        raise AlgebraError("a convergence study needs at least three steps")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise AlgebraError("steps must decrease strictly")
    top = STUDY_ORDERS[-1]
    continuous = magnus_continuous(field, top)
    blank = Matrix.zeros(field.dim)
    targets = {
        m: blank if continuous[m].is_zero() else continuous[m].eval(field.x_end)
        for m in STUDY_ORDERS
    }
    errors = {m: [] for m in STUDY_ORDERS}
    for delta in deltas:
        family = discretize(field, delta)
        discrete = magnus_oracle(family, top)
        for m in STUDY_ORDERS:
            diff = discrete[m - 1] - targets[m]
            errors[m].append(float(diff.max_abs()))
    rates = {m: [float("nan")] for m in STUDY_ORDERS}
    for m in STUDY_ORDERS:
        for i in range(1, len(deltas)):
            e_prev, e_cur = errors[m][i - 1], errors[m][i]
            if e_prev <= 0 or e_cur <= 0:
                rates[m].append(float("nan"))
            else:
                ratio = math.log(e_prev / e_cur) / math.log(deltas[i - 1] / deltas[i])
                rates[m].append(ratio)
    return ConvergenceTable(deltas, errors, rates)


def expm(m: Matrix) -> Matrix:
    """exp(m) in floats: a degree-18 Taylor sum of m / 2^s, squared s times.

    s is chosen so that the scaled matrix has row-sum norm at most 1/2,
    which puts the Taylor remainder below 1e-22 relative to the result.
    """
    norm = max(sum(abs(float(v)) for v in row) for row in m.data)
    s = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0 else 0
    scaled = m.to_float() * 0.5 ** s
    term = result = Matrix.identity(m.rows).to_float()
    for k in range(1, 19):
        term = term * scaled * (1.0 / k)
        result = result + term
    for _ in range(s):
        result = result * result
    return result


def open_evolution_residual(field: MatrixField, k: Matrix, x, delta,
                            alpha, order: int = 3) -> float:
    """Finite-difference defect of d/dx T = alpha (A T + T A).

    The double-row operator T(x) = T K That is assembled from the exact
    Magnus polynomials through the requested order, with That built from
    the sign-flipped expansion; the derivative is a forward difference.
    """
    x = float(x)
    delta = float(delta)
    alpha = float(alpha)
    q_polys = magnus_continuous(field, order)
    k = k.to_float()

    def double_row(point: float) -> Matrix:
        plus = minus = Matrix.zeros(field.dim).to_float()
        for m, poly in q_polys.items():
            if poly.is_zero():
                continue
            qm = poly.eval(point).to_float()
            plus = plus + qm * alpha ** m
            minus = minus + qm * (-alpha) ** m
        return expm(plus) * k * expm(-minus)

    lhs = (double_row(x + delta) - double_row(x)) * (1.0 / delta)
    a_x = field.eval(x).to_float()
    t_x = double_row(x)
    rhs = (a_x * t_x + t_x * a_x) * alpha
    return float((lhs - rhs).max_abs())
