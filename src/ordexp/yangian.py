"""R-matrices, RTT checks, monodromy coproducts, and Hopf-structure data.

Every abstract relation is evaluated in a faithful-enough tensor
representation built from a lax operator on aux tensor quantum space:
defects falsify a relation, exact matches support it but cannot prove it
for the abstract algebra. Polynomial identities in spectral parameters
are decided by exact rational evaluation at more points than the degree
bound, after clearing denominators, or by direct coefficient comparison
for truncated (matching-order) checks.
"""

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    SingularOperator,
    UnsupportedOrder,
)
from .matrix import Matrix, aux_block, kron_embed, partial_trace_first, permutation_op
from .ops import commutator
from .rotabaxter import SiteSequence, prelie_left, trid_dot, trid_prec, trid_succ
from .expansion import FORWARD, SiteOperatorFamily, monodromy

DIMENSION_BUDGET = 256


class MatrixPoly:
    """Matrix-valued Laurent polynomial in one or two spectral parameters."""

    __slots__ = ("nvars", "coeffs", "dim")

    def __init__(self, nvars: int, coeffs: dict, dim: int | None = None):
        if nvars not in (1, 2):
            raise DimensionMismatch("only 1 or 2 spectral parameters supported")
        clean = {}
        for exps, mat in coeffs.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DimensionMismatch(f"exponent tuple {exps} for {nvars} variables")
            if dim is None:
                dim = mat.rows
            if mat.rows != dim or mat.cols != dim:
                raise DimensionMismatch("coefficient matrices must share a square shape")
            if not mat.is_zero():
                clean[exps] = mat
        if dim is None:
            raise DimensionMismatch("an empty matrix polynomial needs an explicit dim")
        self.nvars = nvars
        self.coeffs = clean
        self.dim = dim

    @staticmethod
    def constant(mat: Matrix, nvars: int = 1) -> "MatrixPoly":
        return MatrixPoly(nvars, {(0,) * nvars: mat})

    def _check(self, other: "MatrixPoly"):
        if self.nvars != other.nvars or self.dim != other.dim:
            raise DimensionMismatch("mixed variable counts or dimensions")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other) -> "MatrixPoly":
        self._check(other)
        out = dict(self.coeffs)
        for e, m in other.coeffs.items():
            out[e] = out[e] + m if e in out else m
        return MatrixPoly(self.nvars, out, dim=self.dim)

    def __sub__(self, other) -> "MatrixPoly":
        return self + (-other)

    def __neg__(self) -> "MatrixPoly":
        return self.scale(Fraction(-1))

    def scale(self, s) -> "MatrixPoly":
        return MatrixPoly(
            self.nvars, {e: m * s for e, m in self.coeffs.items()}, dim=self.dim
        )

    def __mul__(self, other) -> "MatrixPoly":
        self._check(other)
        out = {}
        for e1, m1 in self.coeffs.items():
            for e2, m2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                m = m1 * m2
                out[e] = out[e] + m if e in out else m
        return MatrixPoly(self.nvars, out, dim=self.dim)

    def shift(self, exps) -> "MatrixPoly":
        """Multiply by the monomial with the given exponents."""
        exps = tuple(exps)
        return MatrixPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, exps)): m for e, m in self.coeffs.items()},
            dim=self.dim,
        )

    def exponent_range(self, var: int) -> tuple[int, int]:
        vals = [e[var] for e in self.coeffs] or [0]
        return min(vals), max(vals)

    def restrict_floor(self, floors) -> "MatrixPoly":
        """Keep only monomials with every exponent at or above its floor."""
        floors = tuple(floors)
        out = {
            e: m
            for e, m in self.coeffs.items()
            if all(a >= f for a, f in zip(e, floors))
        }
        return MatrixPoly(self.nvars, out, dim=self.dim)

    def eval(self, point) -> Matrix:
        point = tuple(Fraction(p) for p in point)
        if len(point) != self.nvars:
            raise DimensionMismatch(f"need {self.nvars} coordinates")
        total = Matrix.zeros(self.dim)
        for exps, mat in self.coeffs.items():
            scalar = Fraction(1)
            for p, e in zip(point, exps):
                if e < 0 and p == 0:
                    raise SingularOperator("evaluation at a pole")
                scalar *= p ** e
            total = total + mat * scalar
        return total

    def map_coeffs(self, f) -> "MatrixPoly":
        mapped = {e: f(m) for e, m in self.coeffs.items()}
        return MatrixPoly(self.nvars, mapped, dim=self.dim if not mapped else None)

    def max_abs(self):
        return max((m.max_abs() for m in self.coeffs.values()), default=Fraction(0))

    def to_float(self) -> "MatrixPoly":
        return self.map_coeffs(Matrix.to_float)


class LaxRep:
    """Lax operator 1 + sum_m lambda^(-m) L^(m) on aux tensor one quantum site."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: list):
        size = dim * dim
        if not coeffs or coeffs[0] != Matrix.identity(size):
            raise DimensionMismatch("degree-0 coefficient must be the identity")
        for m in coeffs:
            if m.rows != size or m.cols != size:
                raise DimensionMismatch(f"coefficients must be {size}x{size}")
        self.dim = dim
        self.coeffs = list(coeffs)

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, m: int) -> Matrix:
        if m < len(self.coeffs):
            return self.coeffs[m]
        return Matrix.zeros(self.dim * self.dim)

    def series(self, order: int):
        """The lax expansion as a power series in alpha = 1/lambda."""
        from .series import AlphaSeries

        return AlphaSeries([self.coeff(m) for m in range(order + 1)])

    def to_float(self) -> "LaxRep":
        return LaxRep(self.dim, [c.to_float() for c in self.coeffs])

    def to_poly(self, var: int = 0, nvars: int = 1) -> MatrixPoly:
        coeffs = {}
        for m, mat in enumerate(self.coeffs):
            exps = [0] * nvars
            exps[var] = -m
            coeffs[tuple(exps)] = mat
        return MatrixPoly(nvars, coeffs)


def fundamental_lax(dim: int) -> LaxRep:
    """1 + P/lambda with P the permutation, the basic RTT solution."""
    return LaxRep(dim, [Matrix.identity(dim * dim), permutation_op(dim)])


def geometric_lax(dim: int, max_degree: int) -> LaxRep:
    """sum_m lambda^(-m) P^m truncated; exact RTT solution to matching order."""
    p = permutation_op(dim)
    coeffs = [Matrix.identity(dim * dim)]
    for _ in range(max_degree):
        coeffs.append(coeffs[-1] * p)
    return LaxRep(dim, coeffs)


def yangian_r(dim: int) -> MatrixPoly:
    """R(lambda) = lambda 1 + P in difference form."""
    size = dim * dim
    return MatrixPoly(1, {(1,): Matrix.identity(size), (0,): permutation_op(dim)})


def classical_r(dim: int) -> MatrixPoly:
    """The classical r-matrix P/lambda."""
    return MatrixPoly(1, {(-1,): permutation_op(dim)})


def _embed_poly(poly: MatrixPoly, slots, total: int, dim: int) -> MatrixPoly:
    return poly.map_coeffs(lambda m: kron_embed(m, slots, total, dim))


def ybe_residual(r: MatrixPoly, lam1, lam2, lam3, dim: int) -> Matrix:
    """R12(l1-l2) R13(l1-l3) R23(l2-l3) minus the reversed product."""
    r12 = kron_embed(r.eval((lam1 - lam2,)), (0, 1), 3, dim)
    r13 = kron_embed(r.eval((lam1 - lam3,)), (0, 2), 3, dim)
    r23 = kron_embed(r.eval((lam2 - lam3,)), (1, 2), 3, dim)
    return r12 * r13 * r23 - r23 * r13 * r12


def classical_ybe_residual(r: MatrixPoly, lam1, lam2, lam3, dim: int) -> Matrix:
    """[r12, r13] + [r12 + r13, r23] for the classical r-matrix."""
    r12 = kron_embed(r.eval((lam1 - lam2,)), (0, 1), 3, dim)
    r13 = kron_embed(r.eval((lam1 - lam3,)), (0, 2), 3, dim)
    r23 = kron_embed(r.eval((lam2 - lam3,)), (1, 2), 3, dim)
    return commutator(r12, r13) + commutator(r12 + r13, r23)


def _difference_form(r: MatrixPoly) -> MatrixPoly:
    """Rewrite R(lambda) as the two-variable polynomial R(lambda1 - lambda2)."""
    out = {}
    for (k,), mat in r.coeffs.items():
        if k < 0:
            raise UnsupportedOrder("difference substitution needs a polynomial R")
        binom = 1
        for i in range(k + 1):
            # (l1 - l2)^k expanded term by term
            coeff = Fraction(binom) * Fraction((-1) ** i)
            e = (k - i, i)
            term = mat * coeff
            out[e] = out[e] + term if e in out else term
            binom = binom * (k - i) // (i + 1)
    return MatrixPoly(2, out)


class RttReport:
    """Outcome of a sampled RTT verification."""

    __slots__ = ("degrees", "points", "max_abs", "exact_zero")

    def __init__(self, degrees, points, max_abs, exact_zero):
        self.degrees = degrees
        self.points = points
        self.max_abs = max_abs
        self.exact_zero = exact_zero


def rtt_residual(r: MatrixPoly, lax: LaxRep, samples1, samples2) -> RttReport:
    """Check R12 L1 L2 = L2 L1 R12 on a rational grid exceeding degree bounds.

    The residual is cleared of denominators, so vanishing on the grid is
    equivalent to the polynomial identity. Raises when the grid is too
    small for the declared degrees.
    """
    dim = lax.dim
    rhat = _embed_poly(_difference_form(r), (0, 1), 3, dim)
    l1 = _embed_poly(lax.to_poly(var=0, nvars=2), (0, 2), 3, dim)
    l2 = _embed_poly(lax.to_poly(var=1, nvars=2), (1, 2), 3, dim)
    residual = rhat * l1 * l2 - l2 * l1 * rhat
    # a priori per-variable spans of the cleared residual
    spans = []
    for var in range(2):
        lo = (
            rhat.exponent_range(var)[0]
            + l1.exponent_range(var)[0]
            + l2.exponent_range(var)[0]
        )
        hi = (
            rhat.exponent_range(var)[1]
            + l1.exponent_range(var)[1]
            + l2.exponent_range(var)[1]
        )
        spans.append(hi - lo)
    needed = (spans[0] + 1, spans[1] + 1)
    s1 = sorted(set(Fraction(s) for s in samples1))
    s2 = sorted(set(Fraction(s) for s in samples2))
    if len(s1) < needed[0] or len(s2) < needed[1]:
        raise InsufficientSamples(
            f"need at least {needed[0]}x{needed[1]} distinct sample values, "
            f"got {len(s1)}x{len(s2)}"
        )
    floor1 = residual.exponent_range(0)[0]
    floor2 = residual.exponent_range(1)[0]
    cleared = residual.shift((max(0, -floor1), max(0, -floor2)))
    worst = Fraction(0)
    points = []
    for a in s1:
        for b in s2:
            value = cleared.eval((a, b)).max_abs()
            worst = max(worst, value)
            points.append((a, b))
    return RttReport(spans, points, worst, residual.is_zero())


def rtt_matching_order_residual(r: MatrixPoly, lax: LaxRep) -> MatrixPoly:
    """RTT residual of a degree-truncated lax, restricted to trusted orders.

    Truncating the geometric solution at degree M contaminates only the
    monomials with an exponent at or below -M in either variable, so the
    residual restricted to exponents above that floor must vanish.
    """
    dim = lax.dim
    rhat = _embed_poly(_difference_form(r), (0, 1), 3, dim)
    l1 = _embed_poly(lax.to_poly(var=0, nvars=2), (0, 2), 3, dim)
    l2 = _embed_poly(lax.to_poly(var=1, nvars=2), (1, 2), 3, dim)
    residual = rhat * l1 * l2 - l2 * l1 * rhat
    floor = -(lax.max_degree - 1)
    return residual.restrict_floor((floor, floor))


def _check_budget(dim: int, slots: int):
    if dim ** slots > DIMENSION_BUDGET:
        raise DimensionMismatch(
            f"dimension {dim}^{slots} exceeds the budget {DIMENSION_BUDGET}"
        )


def monodromy_family(lax: LaxRep, n_sites: int) -> SiteOperatorFamily:
    """Site family whose forward product is L_{0N} ... L_{01}."""
    _check_budget(lax.dim, n_sites + 1)
    total = n_sites + 1
    entries = {}
    for m in range(1, lax.max_degree + 1):
        mat = lax.coeff(m)
        if mat.is_zero():
            continue
        for n in range(1, n_sites + 1):
            entries[(n, m)] = kron_embed(mat, (0, n), total, lax.dim)
    like = Matrix.identity(lax.dim ** total)
    return SiteOperatorFamily(n_sites, entries, direction=FORWARD, like=like)


def monodromy_coproduct(lax: LaxRep, n_sites: int, order: int):
    """T = L_{0N} ... L_{01} as a series; realizes (id x Delta^N) of the lax."""
    return monodromy(monodromy_family(lax, n_sites), order)


def transfer_commute_residual(dim: int, n_sites: int, order: int,
                              lax: LaxRep | None = None) -> Fraction:
    """Largest entry of [t^(k), t^(l)] over all order pairs; zero exactly."""
    if lax is None:
        lax = fundamental_lax(dim)
    series = monodromy_coproduct(lax, n_sites, order)
    traced = [partial_trace_first(series.coeff(k), dim) for k in range(order + 1)]
    worst = Fraction(0)
    for k in range(1, order + 1):
        for l in range(k + 1, order + 1):
            worst = max(worst, commutator(traced[k], traced[l]).max_abs())
    return worst


def generator_block(coeffs: list, m: int, a: int, b: int, dim: int) -> Matrix:
    """L^(m)_{a,b} on the quantum space; L^(0)_{a,b} = delta_{a,b}."""
    if m >= len(coeffs):
        raise UnsupportedOrder(f"order {m} not available")
    return aux_block(coeffs[m], a, b, dim)


def yangian_relations_residual(coeffs: list, dim: int, n: int, m: int,
                               i: int, j: int, k: int, l: int) -> Matrix:
    """Defect of the defining exchange relation for generator orders n, m.

    [L^(n+1)_ij, L^(m)_kl] - [L^(n)_ij, L^(m+1)_kl]
        - L^(m)_kj L^(n)_il + L^(n)_kj L^(m)_il, all indices 0-based.
    """
    ln1 = generator_block(coeffs, n + 1, i, j, dim)
    lm = generator_block(coeffs, m, k, l, dim)
    ln = generator_block(coeffs, n, i, j, dim)
    lm1 = generator_block(coeffs, m + 1, k, l, dim)
    lkj_m = generator_block(coeffs, m, k, j, dim)
    lil_n = generator_block(coeffs, n, i, l, dim)
    lkj_n = generator_block(coeffs, n, k, j, dim)
    lil_m = generator_block(coeffs, m, i, l, dim)
    return (
        commutator(ln1, lm)
        - commutator(ln, lm1)
        - lkj_m * lil_n
        + lkj_n * lil_m
    )


def _block_table(mat: Matrix, dim: int) -> list:
    return [[aux_block(mat, a, b, dim) for b in range(dim)] for a in range(dim)]


def _delta(i: int, j: int) -> Fraction:
    return Fraction(1) if i == j else Fraction(0)


def q_generators_and_relations(series, dim: int) -> tuple[dict, dict]:
    """Log-coefficient generators and the residuals of their exchange laws.

    Returns ({m: block table}, report). The report carries the maximal
    defects of the three displayed relation families; the third family is
    evaluated under both readings of its unbalanced 1/12 parentheses: the
    literal placement and the delta-swapped variant.
    """
    if series.order < 3:
        raise UnsupportedOrder("q-generator relations need the series through order 3")
    logs = series.log()
    q = {m: _block_table(logs.coeff(m), dim) for m in (1, 2, 3)}
    size = q[1][0][0].rows
    zero = Matrix.zeros(size)

    # Block tables of q1^2 and q1^3, built once for the dim^4 loop below.
    q1sq = [[zero] * dim for _ in range(dim)]
    q1cube = [[zero] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for x in range(dim):
                q1sq[a][b] = q1sq[a][b] + q[1][a][x] * q[1][x][b]
                for y in range(dim):
                    q1cube[a][b] = q1cube[a][b] + q[1][a][x] * q[1][x][y] * q[1][y][b]

    fam1 = Fraction(0)
    fam2 = Fraction(0)
    fam3_literal = Fraction(0)
    fam3_swapped = Fraction(0)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    r1 = (
                        commutator(q[1][i][j], q[1][k][l])
                        - q[1][k][j] * _delta(i, l)
                        + q[1][i][l] * _delta(k, j)
                    )
                    fam1 = max(fam1, r1.max_abs())
                    r2 = (
                        commutator(q[1][i][j], q[2][k][l])
                        - q[2][k][j] * _delta(i, l)
                        + q[2][i][l] * _delta(k, j)
                    )
                    fam2 = max(fam2, r2.max_abs())
                    base = (
                        commutator(q[2][i][j], q[2][k][l])
                        - q[3][k][j] * _delta(i, l)
                        + q[3][i][l] * _delta(k, j)
                        + q[1][k][j] * q1sq[i][l] * Fraction(1, 4)
                        - q1sq[k][j] * q[1][i][l] * Fraction(1, 4)
                    )
                    twelfth = (
                        q1cube[i][l] * _delta(k, j)
                        - q1cube[k][j] * _delta(i, l)
                    ) * Fraction(1, 12)
                    fam3_literal = max(fam3_literal, (base - twelfth).max_abs())
                    fam3_swapped = max(fam3_swapped, (base + twelfth).max_abs())
    report = {
        "first_family": fam1,
        "second_family": fam2,
        "third_family_literal": fam3_literal,
        "third_family_swapped": fam3_swapped,
    }
    return q, report


def hopf_checks(dim: int, order: int = 3) -> dict:
    """Coproduct, coassociativity, counit, and antipode data for the lax rep.

    The two-site coproduct comparison fixes the tensor-leg dictionary: the
    first coproduct leg corresponds to the leftmost (highest-site) factor
    of the monodromy. The defect under the opposite identification is
    reported alongside. The order-2 antipode is computed from the inverse
    lax and compared against both the printed linear form and the derived
    closed form -Q2 - (dim/2) Q1 + (1/2) tr(Q1) delta.
    """
    lax = fundamental_lax(dim)
    two_site = monodromy_coproduct(lax, 2, order)
    logs2 = two_site.log()
    p01 = kron_embed(permutation_op(dim), (0, 1), 3, dim)
    p02 = kron_embed(permutation_op(dim), (0, 2), 3, dim)

    q1_defect = (logs2.coeff(1) - (p01 + p02)).max_abs()

    half = Fraction(1, 2)
    sym = (p01 * p01 + p02 * p02) * (-half)
    pred_first_leg_high = sym + commutator(p02, p01) * half
    pred_first_leg_low = sym + commutator(p01, p02) * half
    q2 = logs2.coeff(2)
    q2_high = (q2 - pred_first_leg_high).max_abs()
    q2_low = (q2 - pred_first_leg_low).max_abs()

    three = monodromy_family(lax, 3)
    l_series = [three.lax_series(n, order) for n in (1, 2, 3)]
    coassoc = (
        (l_series[2] * l_series[1]) * l_series[0]
        - l_series[2] * (l_series[1] * l_series[0])
    )
    coassoc_defect = max(
        (coassoc.coeff(k).max_abs() for k in range(order + 1)), default=Fraction(0)
    )

    empty = SiteOperatorFamily(0, {}, direction=FORWARD, like=Matrix.identity(dim))
    counit_series = monodromy(empty, order).log()
    counit_defect = max(
        (counit_series.coeff(k).max_abs() for k in range(1, order + 1)),
        default=Fraction(0),
    )

    single = lax.series(order)
    inv = single.inverse()
    logs1 = single.log()
    antipode_q1 = (inv.coeff(1) + logs1.coeff(1)).max_abs()

    m1 = _block_table(inv.coeff(1), dim)
    m2 = _block_table(inv.coeff(2), dim)
    q1b = _block_table(logs1.coeff(1), dim)
    q2b = _block_table(logs1.coeff(2), dim)
    trace_q1 = Matrix.zeros(dim)
    for x in range(dim):
        trace_q1 = trace_q1 + q1b[x][x]
    printed_defect = Fraction(0)
    derived_defect = Fraction(0)
    for a in range(dim):
        for b in range(dim):
            true = m2[a][b]
            for x in range(dim):
                true = true - m1[x][b] * m1[a][x] * half
            printed = -q2b[a][b] + q1b[a][b] * half
            derived = (
                -q2b[a][b]
                - q1b[a][b] * Fraction(dim, 2)
                + trace_q1 * (half * _delta(a, b))
            )
            printed_defect = max(printed_defect, (true - printed).max_abs())
            derived_defect = max(derived_defect, (true - derived).max_abs())
    return {
        "coproduct_q1": q1_defect,
        "coproduct_q2_first_leg_high_site": q2_high,
        "coproduct_q2_first_leg_low_site": q2_low,
        "coassociativity": coassoc_defect,
        "counit": counit_defect,
        "antipode_q1": antipode_q1,
        "antipode_q2_vs_printed": printed_defect,
        "antipode_q2_vs_derived": derived_defect,
    }


def _entry_sequence(lax: LaxRep, m: int, a: int, b: int, n_sites: int) -> SiteSequence:
    """(L^(m)_{a,b})_n as a sequence of operators on the quantum sites."""
    dim = lax.dim
    block = aux_block(lax.coeff(m), a, b, dim)
    return SiteSequence(
        [kron_embed(block, (n,), n_sites, dim) for n in range(n_sites)]
    )


def coproduct_tridendriform_residual(lax: LaxRep, n_sites: int) -> dict:
    """Defects of the entrywise coproduct formulas against the monodromy.

    Checks the nested-prec expansion of Delta^N(L^(m)_{a,b}) for m = 1..3,
    the pre-Lie matrix form for the log generators through order 3, its
    entrywise order-2 variant, and the prec/succ transpose identity for
    operators on distinct sites.
    """
    dim = lax.dim
    _check_budget(dim, n_sites + 1)
    series = monodromy_coproduct(lax, n_sites, 3)
    logs = series.log()

    seq = {
        m: {
            (a, b): _entry_sequence(lax, m, a, b, n_sites)
            for a in range(dim)
            for b in range(dim)
        }
        for m in (1, 2, 3)
    }

    lemma_defect = Fraction(0)
    for a in range(dim):
        for b in range(dim):
            left = trid_prec(seq[1][(a, b)], seq[1][(b, a)])
            right = trid_succ(seq[1][(b, a)], seq[1][(a, b)])
            lemma_defect = max(lemma_defect, (left - right).max_abs())

    defects = {"prec_succ_transpose": lemma_defect}

    for m in (1, 2, 3):
        worst = Fraction(0)
        for a in range(dim):
            for b in range(dim):
                rhs = seq[m][(a, b)]
                if m >= 2:
                    for c in range(dim):
                        rhs = rhs + trid_prec(seq[1][(a, c)], seq[m - 1][(c, b)])
                        if m == 3:
                            rhs = rhs + trid_prec(seq[2][(a, c)], seq[1][(c, b)])
                if m == 3:
                    for c in range(dim):
                        for d in range(dim):
                            rhs = rhs + trid_prec(
                                seq[1][(a, d)],
                                trid_prec(seq[1][(d, c)], seq[1][(c, b)]),
                            )
                target = aux_block(series.coeff(m), a, b, dim)
                worst = max(worst, (target - rhs.total()).max_abs())
        defects[f"dendriform_order_{m}"] = worst

    single_logs = lax.series(3).log()
    total = n_sites + 1
    q_site = {
        m: SiteSequence(
            [
                kron_embed(single_logs.coeff(m), (0, n), total, dim)
                for n in range(1, n_sites + 1)
            ]
        )
        for m in (1, 2, 3)
    }
    q1, q2, q3 = q_site[1], q_site[2], q_site[3]
    pre2 = (
        Fraction(-1, 2) * prelie_left(q1, q1)
        + q2
        + Fraction(1, 2) * trid_dot(q1, q1)
    )
    q1q1 = prelie_left(q1, q1)
    q1sq = trid_dot(q1, q1)
    pre3 = (
        Fraction(1, 4) * prelie_left(q1q1, q1)
        + Fraction(1, 12) * prelie_left(q1, q1q1)
        + Fraction(-1, 2) * (prelie_left(q2, q1) + prelie_left(q1, q2))
        + Fraction(-1, 4) * (prelie_left(q1sq, q1) + prelie_left(q1, q1sq))
        + q3
        + Fraction(1, 2) * (trid_dot(q2, q1) + trid_dot(q1, q2))
        + Fraction(1, 6) * trid_dot(q1sq, q1)
    )
    defects["prelie_matrix_order_1"] = (logs.coeff(1) - q1.total()).max_abs()
    defects["prelie_matrix_order_2"] = (logs.coeff(2) - pre2.total()).max_abs()
    defects["prelie_matrix_order_3"] = (logs.coeff(3) - pre3.total()).max_abs()

    qe = {
        m: {
            (a, b): SiteSequence(
                [
                    kron_embed(
                        aux_block(single_logs.coeff(m), a, b, dim), (n,), n_sites, dim
                    )
                    for n in range(n_sites)
                ]
            )
            for a in range(dim)
            for b in range(dim)
        }
        for m in (1, 2)
    }
    worst1 = Fraction(0)
    worst2 = Fraction(0)
    for a in range(dim):
        for b in range(dim):
            target1 = aux_block(logs.coeff(1), a, b, dim)
            worst1 = max(worst1, (target1 - qe[1][(a, b)].total()).max_abs())
            rhs = qe[2][(a, b)]
            for c in range(dim):
                diff = trid_succ(qe[1][(a, c)], qe[1][(c, b)]) - trid_prec(
                    qe[1][(a, c)], qe[1][(c, b)]
                )
                rhs = rhs - Fraction(1, 2) * diff
            target2 = aux_block(logs.coeff(2), a, b, dim)
            worst2 = max(worst2, (target2 - rhs.total()).max_abs())
    defects["prelie_entry_order_1"] = worst1
    defects["prelie_entry_order_2"] = worst2
    return defects
