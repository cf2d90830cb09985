"""Continuous Magnus and Dyson expansions, discretization, and limit studies.

Exact polynomial matrix fields keep every integral in closed form, so the
three Magnus constructions (explicit commutator integrals, the pre-Lie
form, and the Bernoulli fixed point) can be compared coefficient by
coefficient. The float layer only enters when evaluating those exact
polynomials at numeric points for finite-difference and rate checks.
"""

import math
from fractions import Fraction

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

    @staticmethod
    def affine(const: Matrix, slope: Matrix, x0=Fraction(0), x_end=Fraction(1)):
        """The field const + x * slope."""
        poly = Poly.constant(const) + Poly.variable() * Poly.constant(slope)
        return MatrixField(poly, x0, x_end)

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


def _magnus_explicit(field: MatrixField, order: int) -> dict:
    """Commutator-integral Magnus terms, built monomial by monomial."""
    if order >= 4:
        raise UnsupportedOrder("explicit continuous Magnus terms stop at order 3")
    x0 = field.x0
    out = {1: field.integral()}
    if order >= 2:
        q2 = None
        for d2, m2 in _monomials(field):
            for d1, m1 in _monomials(field):
                weight = _scalar_simplex((d1, d2), x0)
                term = weight * Poly.constant(commutator(m2, m1))
                q2 = term if q2 is None else q2 + term
        out[2] = Fraction(1, 2) * q2
    if order >= 3:
        q3 = None
        for d3, m3 in _monomials(field):
            for d2, m2 in _monomials(field):
                for d1, m1 in _monomials(field):
                    weight = _scalar_simplex((d1, d2, d3), x0)
                    first = commutator(m3, commutator(m2, m1))
                    second = commutator(commutator(m3, m2), m1)
                    term = weight * Poly.constant(first + second)
                    q3 = term if q3 is None else q3 + term
        out[3] = Fraction(1, 6) * q3
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
        aa = field_prelie(field, a, a)
        left = field_prelie(field, aa, a)
        right = field_prelie(field, a, aa)
        out[3] = (Fraction(1, 4) * left + Fraction(1, 12) * right).integrate(x0)
    return out


def magnus_continuous(field: MatrixField, order: int = 3, style: str | None = None) -> dict:
    """Magnus terms Q^(m)(x) as exact matrix polynomials, m = 1..order.

    With style None both the commutator-integral and pre-Lie forms are
    computed and must agree; a named style returns that form alone.
    """
    if order < 1:
        raise UnsupportedOrder("need order >= 1")
    if style == "explicit":
        return _magnus_explicit(field, order)
    if style == "prelie":
        return _magnus_prelie(field, order)
    if style is not None:
        raise AlgebraError(f"unknown style {style!r}")
    explicit = _magnus_explicit(field, order)
    prelie = _magnus_prelie(field, order)
    for m in explicit:
        if not (explicit[m] - prelie[m]).is_zero():
            raise AlgebraError(f"continuous Magnus forms disagree at order {m}")
    return explicit


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
    x0 = field.x0
    out = {}
    for m in range(1, order + 1):
        total = None
        stack = [((), ())]
        for _ in range(m):
            stack = [
                (degs + (d,), mats + (mat,))
                for degs, mats in stack
                for d, mat in _monomials(field)
            ]
        for degs, mats in stack:
            weight = _scalar_simplex(degs, x0)
            prod = mats[-1]
            for mat in reversed(mats[:-1]):
                prod = prod * mat
            term = weight * Poly.constant(prod)
            total = term if total is None else total + term
        out[m] = total
    return out


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


class ConvergenceTable:
    """Per-step errors and estimated convergence rates of the discrete terms."""

    __slots__ = ("deltas", "orders", "errors", "rates", "label")

    def __init__(self, deltas, orders, errors, rates, label=""):
        self.deltas = deltas
        self.orders = orders
        self.errors = errors
        self.rates = rates
        self.label = label

    def summary_rate(self, order: int) -> float:
        """Average of the rate estimates from the last two refinements."""
        tail = [r for r in self.rates[order][-2:] if not math.isnan(r)]
        if not tail:
            return float("nan")
        return sum(tail) / len(tail)

    def csv_rows(self):
        yield "delta,err_q1,err_q2,err_q3,rate_q1,rate_q2,rate_q3"
        for i, delta in enumerate(self.deltas):
            cells = [f"{float(delta):.10g}"]
            for order in (1, 2, 3):
                err = self.errors.get(order)
                cells.append(f"{err[i]:.12g}" if err is not None else "")
            for order in (1, 2, 3):
                rate = self.rates.get(order)
                cells.append(f"{rate[i]:.6g}" if rate is not None else "")
            yield ",".join(cells)


def convergence_study(field: MatrixField, deltas, orders=(1, 2, 3)) -> ConvergenceTable:
    """Compare discrete Magnus terms against the continuous ones per step."""
    deltas = [Fraction(d) for d in deltas]
    if len(deltas) < 3:
        raise AlgebraError("a convergence study needs at least three steps")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise AlgebraError("steps must decrease strictly")
    top = max(orders)
    continuous = magnus_continuous(field, top, style="prelie")
    blank = Matrix.zeros(field.dim)
    targets = {
        m: blank if continuous[m].is_zero() else continuous[m].eval(field.x_end)
        for m in orders
    }
    errors = {m: [] for m in orders}
    for delta in deltas:
        family = discretize(field, delta)
        discrete = magnus_oracle(family, top)
        for m in orders:
            diff = discrete[m - 1] - targets[m]
            errors[m].append(float(diff.max_abs()))
    rates = {m: [float("nan")] for m in orders}
    for m in orders:
        for i in range(1, len(deltas)):
            e_prev, e_cur = errors[m][i - 1], errors[m][i]
            if e_prev <= 0 or e_cur <= 0:
                rates[m].append(float("nan"))
            else:
                ratio = math.log(e_prev / e_cur) / math.log(deltas[i - 1] / deltas[i])
                rates[m].append(ratio)
    return ConvergenceTable(deltas, tuple(orders), errors, rates)


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
    q_polys = magnus_continuous(field, order, style="prelie")
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
