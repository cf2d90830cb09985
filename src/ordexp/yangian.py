"""R-matrices, RTT checks, monodromy coproducts, and Hopf-structure data.

Every abstract relation is evaluated in a faithful-enough tensor
representation built from a lax operator on aux tensor quantum space:
defects falsify a relation, exact matches support it but cannot prove it
for the abstract algebra.  A lax operator is an `AlphaSeries` in
alpha = 1/lambda whose constant term is the identity, the same kind of
series that the monodromy (the ordered product over sites) expands.
R-matrices and the RTT residuals are Laurent `Poly`s in one or two
spectral parameters.  Polynomial identities in spectral parameters
are decided by exact rational evaluation at more points than the degree
bound, after clearing denominators, or by direct coefficient comparison
for truncated (matching-order) checks.
"""

import math
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    UnsupportedOrder,
)
from .matrix import Matrix, aux_block, kron_embed, partial_trace_first, permutation_op
from .ops import commutator, max_abs
from .poly import Poly
from .rotabaxter import SiteSequence, prelie_left, trid_dot, trid_prec, trid_succ
from .expansion import FORWARD, SiteOperatorFamily, monodromy
from .series import AlphaSeries

DIMENSION_BUDGET = 256


# perfbench/tracing.py patches `yangian.MatrixPoly.__mul__` by name; this
# alias keeps that working until the tracer moves onto package hooks.
MatrixPoly = Poly


def _lax_dim(lax: AlphaSeries) -> int:
    """Local dimension d of a Lax series on aux (x) one site.

    Every coefficient must be d^2 x d^2 and the constant term the identity.
    """
    c0 = lax.coeffs[0]
    dim = math.isqrt(c0.rows) if isinstance(c0, Matrix) else 0
    if not dim or dim * dim != c0.rows or c0 != Matrix.identity(c0.rows):
        raise DimensionMismatch("degree-0 coefficient must be the identity on dim^2")
    if any(m.rows != c0.rows or m.cols != c0.rows for m in lax.coeffs):
        raise DimensionMismatch(f"coefficients must be {c0.rows}x{c0.rows}")
    return dim


def fundamental_lax(dim: int) -> AlphaSeries:
    """1 + P/lambda with P the permutation, the basic RTT solution."""
    return AlphaSeries([Matrix.identity(dim * dim), permutation_op(dim)])


def geometric_lax(dim: int, max_degree: int) -> AlphaSeries:
    """sum_m lambda^(-m) P^m truncated; exact RTT solution to matching order."""
    p = permutation_op(dim)
    coeffs = [Matrix.identity(dim * dim)]
    for _ in range(max_degree):
        coeffs.append(coeffs[-1] * p)
    return AlphaSeries(coeffs)


def yangian_r(dim: int) -> Poly:
    """R(lambda) = lambda 1 + P in difference form."""
    size = dim * dim
    return Poly({(1,): Matrix.identity(size), (0,): permutation_op(dim)})


def classical_r(dim: int) -> Poly:
    """The classical r-matrix P/lambda."""
    return Poly({(-1,): permutation_op(dim)})


def _embed_poly(poly: Poly, slots, total: int, dim: int) -> Poly:
    return poly.map_coeffs(lambda m: kron_embed(m, slots, total, dim))


def ybe_residual(r: Poly, lam1, lam2, lam3, dim: int) -> Matrix:
    """R12(l1-l2) R13(l1-l3) R23(l2-l3) minus the reversed product."""
    r12 = kron_embed(r.eval(lam1 - lam2), (0, 1), 3, dim)
    r13 = kron_embed(r.eval(lam1 - lam3), (0, 2), 3, dim)
    r23 = kron_embed(r.eval(lam2 - lam3), (1, 2), 3, dim)
    return r12 * r13 * r23 - r23 * r13 * r12


def classical_ybe_residual(r: Poly, lam1, lam2, lam3, dim: int) -> Matrix:
    """[r12, r13] + [r12 + r13, r23] for the classical r-matrix."""
    r12 = kron_embed(r.eval(lam1 - lam2), (0, 1), 3, dim)
    r13 = kron_embed(r.eval(lam1 - lam3), (0, 2), 3, dim)
    r23 = kron_embed(r.eval(lam2 - lam3), (1, 2), 3, dim)
    return commutator(r12, r13) + commutator(r12 + r13, r23)


def _difference_form(r: Poly) -> Poly:
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
    return Poly(out)


def _rtt_parts(r: Poly, lax: AlphaSeries):
    """The embedded factors R12(u - v), L1(u), L2(v) on aux (x) aux (x) quantum,
    and the residual R12 L1 L2 - L2 L1 R12, all polynomials in (u, v)."""
    dim = _lax_dim(lax)
    rhat = _embed_poly(_difference_form(r), (0, 1), 3, dim)
    l1 = _embed_poly(Poly({(-m, 0): c for m, c in enumerate(lax.coeffs)}), (0, 2), 3, dim)
    l2 = _embed_poly(Poly({(0, -m): c for m, c in enumerate(lax.coeffs)}), (1, 2), 3, dim)
    return (rhat, l1, l2), rhat * l1 * l2 - l2 * l1 * rhat


class RttReport:
    """Outcome of a sampled RTT verification."""

    __slots__ = ("degrees", "points", "max_abs", "exact_zero")

    def __init__(self, degrees, points, max_abs, exact_zero):
        self.degrees = degrees
        self.points = points
        self.max_abs = max_abs
        self.exact_zero = exact_zero


def rtt_residual(r: Poly, lax: AlphaSeries, samples1, samples2) -> RttReport:
    """Check R12 L1 L2 = L2 L1 R12 on a rational grid exceeding degree bounds.

    The residual is cleared of denominators, so vanishing on the grid is
    equivalent to the polynomial identity. Raises when the grid is too
    small for the declared degrees.
    """
    factors, residual = _rtt_parts(r, lax)
    # a priori per-variable spans of the cleared residual
    spans = [
        sum(f.exponent_range(var)[1] for f in factors)
        - sum(f.exponent_range(var)[0] for f in factors)
        for var in range(2)
    ]
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
            worst = max(worst, max_abs(cleared.eval(a, b)))
            points.append((a, b))
    return RttReport(spans, points, worst, residual.is_zero())


def rtt_matching_order_residual(r: Poly, lax: AlphaSeries) -> Poly:
    """RTT residual of a degree-truncated lax, restricted to trusted orders.

    Truncating the geometric solution at degree M contaminates only the
    monomials with an exponent at or below -M in either variable, so the
    residual restricted to exponents above that floor must vanish.
    """
    _, residual = _rtt_parts(r, lax)
    floor = -(lax.order - 1)
    return residual.restrict_floor((floor, floor))


def _check_budget(dim: int, slots: int):
    if dim ** slots > DIMENSION_BUDGET:
        raise DimensionMismatch(
            f"dimension {dim}^{slots} exceeds the budget {DIMENSION_BUDGET}"
        )


def monodromy_family(lax: AlphaSeries, n_sites: int) -> SiteOperatorFamily:
    """Site family whose forward product is L_{0N} ... L_{01}."""
    dim = _lax_dim(lax)
    _check_budget(dim, n_sites + 1)
    total = n_sites + 1
    entries = {}
    for m in range(1, lax.order + 1):
        mat = lax.coeff(m)
        if mat.is_zero():
            continue
        for n in range(1, n_sites + 1):
            entries[(n, m)] = kron_embed(mat, (0, n), total, dim)
    like = Matrix.identity(dim ** total)
    return SiteOperatorFamily(n_sites, entries, direction=FORWARD, like=like)


def monodromy_coproduct(lax: AlphaSeries, n_sites: int, order: int):
    """T = L_{0N} ... L_{01} as a series; realizes (id x Delta^N) of the lax."""
    return monodromy(monodromy_family(lax, n_sites), order)


def transfer_commute_residual(dim: int, n_sites: int, order: int,
                              lax: AlphaSeries | None = None) -> Fraction:
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

    single = lax.truncate(order)
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


def _entry_sequence(coeff: Matrix, a: int, b: int, dim: int, n_sites: int) -> SiteSequence:
    """(L^(m)_{a,b})_n, for the Lax coefficient L^(m), on the quantum sites."""
    block = aux_block(coeff, a, b, dim)
    return SiteSequence(
        [kron_embed(block, (n,), n_sites, dim) for n in range(n_sites)]
    )


def coproduct_tridendriform_residual(lax: AlphaSeries, n_sites: int) -> dict:
    """Defects of the entrywise coproduct formulas against the monodromy.

    Checks the nested-prec expansion of Delta^N(L^(m)_{a,b}) for m = 1..3,
    the pre-Lie matrix form for the log generators through order 3, its
    entrywise order-2 variant, and the prec/succ transpose identity for
    operators on distinct sites.
    """
    dim = _lax_dim(lax)
    _check_budget(dim, n_sites + 1)
    series = monodromy_coproduct(lax, n_sites, 3)
    logs = series.log()

    seq = {
        m: {
            (a, b): _entry_sequence(lax.coeff(m), a, b, dim, n_sites)
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

    single_logs = lax.truncate(3).log()
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
