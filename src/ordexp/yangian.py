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
for truncated (matching-order) checks.  The exchange relation among the
generators L^(m)_ab, and the three bracket families of the q-generators
(the log coefficients Q1, Q2, Q3 of the monodromy), are each one operator
identity on aux (x) aux (x) quantum, with the operators placed on either aux
leg and P12 flipping the two legs; a defect is the largest entry of the
identity's residual, so no aux index tuple is walked.  The coproduct's
nested-prec expansion is the tridendriform Dyson fold (`dyson_terms`) of
the monodromy family, not a hand-unrolled copy.
"""

import math
from fractions import Fraction
from itertools import product

from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    UnsupportedOrder,
    check_order,
)
from .matrix import Matrix, aux_block, kron_embed, partial_trace_first, permutation_op
from .ops import commutator, one_like, worst
from .poly import Poly
from .rotabaxter import SiteSequence, prelie_left, trid_dot, trid_prec, trid_succ
from .expansion import FORWARD, SiteOperatorFamily, dyson_terms, monodromy
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
    if not dim or dim * dim != c0.rows or not c0.is_square() or c0 != one_like(c0):
        raise DimensionMismatch("degree-0 coefficient must be the identity on dim^2")
    if any(m.rows != c0.rows or m.cols != c0.rows for m in lax.coeffs):
        raise DimensionMismatch(f"coefficients must be {c0.rows}x{c0.rows}")
    return dim


def fundamental_lax(dim: int) -> AlphaSeries:
    """1 + P/lambda with P the permutation, the basic RTT solution."""
    return AlphaSeries([Matrix.identity(dim * dim), permutation_op(dim)])


def geometric_lax(dim: int, max_degree: int) -> AlphaSeries:
    """sum_m lambda^(-m) P^m truncated; exact RTT solution to matching order."""
    check_order(max_degree, 0)
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

    __slots__ = ("degrees", "points", "max_abs")

    def __init__(self, degrees, points, max_abs):
        self.degrees = degrees
        self.points = points
        self.max_abs = max_abs


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
    points = [(a, b) for a in s1 for b in s2]
    defect = worst(cleared.eval(a, b) for a, b in points)
    return RttReport(spans, points, defect)


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


def _site_family(series: AlphaSeries, n_sites: int, dim: int) -> SiteOperatorFamily:
    """Forward family whose degree-m operator at site n is the coefficient
    series^(m) embedded on aux (x) site n."""
    _check_budget(dim, n_sites + 1)
    total = n_sites + 1
    entries = {}
    for m in range(1, series.order + 1):
        mat = series.coeff(m)
        if mat.is_zero():
            continue
        for n in range(1, n_sites + 1):
            entries[(n, m)] = kron_embed(mat, (0, n), total, dim)
    one = Matrix.identity(dim ** total)
    return SiteOperatorFamily(n_sites, entries, direction=FORWARD,
                              like=one if series.coeffs[0].is_exact() else one.to_float())


def monodromy_family(lax: AlphaSeries, n_sites: int) -> SiteOperatorFamily:
    """Site family whose forward product is L_{0N} ... L_{01}."""
    return _site_family(lax, n_sites, _lax_dim(lax))


def monodromy_coproduct(lax: AlphaSeries, n_sites: int, order: int):
    """T = L_{0N} ... L_{01} as a series; realizes (id x Delta^N) of the lax."""
    return monodromy(monodromy_family(lax, n_sites), order)


def transfer_commute_residual(lax: AlphaSeries, n_sites: int, order: int) -> Fraction:
    """Largest entry of [t^(k), t^(l)] over all order pairs; zero exactly."""
    series = monodromy_coproduct(lax, n_sites, order)
    dim = _lax_dim(lax)
    traced = [partial_trace_first(series.coeff(k), dim) for k in range(order + 1)]
    return worst(commutator(traced[k], traced[l])
                 for k in range(1, order + 1) for l in range(k + 1, order + 1))


def block_table(mat: Matrix, dim: int) -> list:
    """The aux blocks of `mat`: `block_table(mat, dim)[a][b]` is mat_{a,b}
    on the quantum space."""
    return [[aux_block(mat, a, b, dim) for b in range(dim)] for a in range(dim)]


def _aux_legs(coeffs, dim: int):
    """(N, on leg 1, on leg 2, P12) for operators on aux (x) N sites.

    N is read from the operators' size dim^(N + 1).  On aux (x) aux (x) the
    N sites, the first list holds each of `coeffs` with its aux factor on
    the first leg, the second the same on the second leg, and P12 flips the
    two aux legs.
    """
    if type(dim) is not int or dim < 2:
        raise DimensionMismatch(f"the aux space needs an int dimension of at least 2, got {dim!r}")
    # dim^(N + 1) = size; a size that is not such a power fails in kron_embed.
    size, n_sites = coeffs[0].rows, -1
    while size > 1 and size % dim == 0:
        size, n_sites = size // dim, n_sites + 1
    total, sites = n_sites + 2, tuple(range(2, n_sites + 2))
    return (n_sites,
            [kron_embed(c, (0, *sites), total, dim) for c in coeffs],
            [kron_embed(c, (1, *sites), total, dim) for c in coeffs],
            kron_embed(permutation_op(dim), (0, 1), total, dim))


def yangian_relations_residual(series: AlphaSeries, dim: int) -> Fraction:
    """Largest defect of the defining exchange relation over all generator
    orders n + m <= series.order - 1; zero exactly.

    `series` is a monodromy series on aux (x) N sites.  On aux (x) aux (x)
    the N sites, T1^(p) is its coefficient L^(p) with the aux factor on the
    first leg, T2^(p) the same on the second leg, and P12 flips the two aux
    legs.  The defect for orders n, m is the operator
        [T1^(n+1), T2^(m)] - [T1^(n), T2^(m+1)] - P12 (T1^(m) T2^(n) - T1^(n) T2^(m)),
    whose aux block ((i, k), (j, l)) is, with all indices 0-based,
        [L^(n+1)_ij, L^(m)_kl] - [L^(n)_ij, L^(m+1)_kl]
            - L^(m)_kj L^(n)_il + L^(n)_kj L^(m)_il.
    """
    if series.order < 1:
        raise UnsupportedOrder("the exchange relation needs the series through order 1")
    n_sites, t1, t2, p12 = _aux_legs(series.coeffs, dim)
    _check_budget(dim, n_sites + 2)
    # One defect per order pair is kept, never the residual operators.
    return worst([
        (commutator(t1[n + 1], t2[m]) - commutator(t1[n], t2[m + 1])
         - p12 * (t1[m] * t2[n] - t1[n] * t2[m])).max_abs()
        for n in range(series.order) for m in range(series.order - n)
    ])


def q_generators_and_relations(series: AlphaSeries, dim: int) -> dict:
    """Largest defects of the three bracket families of the q-generators.

    The q-generators Q1, Q2, Q3 are the log coefficients of `series`, a
    monodromy series on aux (x) N sites; S = Q1^2 and C = Q1^3.  On
    aux (x) aux (x) the N sites, X1 and X2 are X with its aux factor on the
    first or the second leg and P12 flips the two aux legs.  The aux block
    ((i, k), (j, l)) of [X1, Y2] is [x_ij, y_kl], that of [X1, P12] is
    d_kj x_il - d_il x_kj, and that of P12 A1 B2 is a_kj b_il, so each
    family, over all index tuples at once, is one operator:
        first   [Q1_1, Q1_2] + [Q1_1, P12]
        second  [Q1_1, Q2_2] + [Q2_1, P12]
        third   B - T (literal) and B + T (deltas swapped), with
                B = [Q2_1, Q2_2] + [Q3_1, P12] + (1/4) P12 (Q1_1 S_2 - S_1 Q1_2)
                and T = (1/12) [C_1, P12].
    The third family is evaluated under both readings of its unbalanced
    1/12 parentheses.  Returns {family: largest entry of its operator}.
    """
    if series.order < 3:
        raise UnsupportedOrder("q-generator relations need the series through order 3")
    logs = series.log()
    q1 = logs.coeff(1)
    _, first, second, p12 = _aux_legs([q1, logs.coeff(2), logs.coeff(3), q1 * q1, q1 * q1 * q1], dim)
    (q1_1, q2_1, q3_1, s_1, c_1), (q1_2, q2_2, _, s_2, _) = first, second
    base = (commutator(q2_1, q2_2) + commutator(q3_1, p12)
            + p12 * (q1_1 * s_2 - s_1 * q1_2) * Fraction(1, 4))
    twelfth = commutator(c_1, p12) * Fraction(1, 12)
    return {
        "first_family": (commutator(q1_1, q1_2) + commutator(q1_1, p12)).max_abs(),
        "second_family": (commutator(q1_1, q2_2) + commutator(q2_1, p12)).max_abs(),
        "third_family_literal": (base - twelfth).max_abs(),
        "third_family_swapped": (base + twelfth).max_abs(),
    }


def hopf_checks(dim: int) -> dict:
    """Coproduct, coassociativity, counit, and antipode data for the lax rep,
    through order 3.

    The two-site coproduct comparison fixes the tensor-leg dictionary: the
    first coproduct leg corresponds to the leftmost (highest-site) factor
    of the monodromy. The defect under the opposite identification is
    reported alongside. The order-2 antipode is computed from the inverse
    lax and compared against both the printed linear form and the derived
    closed form -Q2 - (dim/2) Q1 + (1/2) tr(Q1) delta.
    """
    order = 3
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
    coassoc_defect = worst(coassoc.coeff(k) for k in range(order + 1))

    empty = SiteOperatorFamily(0, {}, direction=FORWARD, like=Matrix.identity(dim))
    counit_series = monodromy(empty, order).log()
    counit_defect = worst(counit_series.coeff(k) for k in range(1, order + 1))

    single = lax.truncate(order)
    inv = single.inverse()
    logs1 = single.log()
    antipode_q1 = (inv.coeff(1) + logs1.coeff(1)).max_abs()

    m1 = block_table(inv.coeff(1), dim)
    m2 = block_table(inv.coeff(2), dim)
    q1b = block_table(logs1.coeff(1), dim)
    q2b = block_table(logs1.coeff(2), dim)
    trace_q1 = partial_trace_first(logs1.coeff(1), dim)

    def antipode_residuals(a, b):
        """The true order-2 antipode block minus its printed and derived forms."""
        true = m2[a][b]
        for x in range(dim):
            true = true - m1[x][b] * m1[a][x] * half
        printed = -q2b[a][b] + q1b[a][b] * half
        derived = -q2b[a][b] - q1b[a][b] * Fraction(dim, 2)
        if a == b:
            derived = derived + trace_q1 * half
        return true - printed, true - derived

    printed_defect, derived_defect = map(
        worst, zip(*(antipode_residuals(a, b) for a, b in product(range(dim), repeat=2)))
    )
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


def _entry_table(series: AlphaSeries, orders, dim: int, n_sites: int) -> dict:
    """{m: {(a, b): (L^(m)_{a,b})_n}}: each aux block of a coefficient of
    `series`, placed on every quantum site."""
    table = {}
    for m in orders:
        blocks = block_table(series.coeff(m), dim)
        table[m] = {(a, b): SiteSequence([kron_embed(blocks[a][b], (n,), n_sites, dim)
                                          for n in range(n_sites)])
                    for a, b in product(range(dim), repeat=2)}
    return table


def coproduct_tridendriform_residual(lax: AlphaSeries, n_sites: int) -> dict:
    """Defects of the coproduct formulas against the monodromy.

    Checks the nested-prec expansion of Delta^N(L^(m)) for m = 1..3, which
    is the tridendriform Dyson fold of the monodromy family, the pre-Lie
    matrix form for the log generators through order 3, its entrywise
    order-2 variant, and the prec/succ transpose identity for operators on
    distinct sites.
    """
    dim = _lax_dim(lax)
    family = _site_family(lax, n_sites, dim)
    series = monodromy(family, 3)
    logs = series.log()
    fold = dyson_terms(family, 3, method="tridendriform")

    l1 = _entry_table(lax, (1,), dim, n_sites)[1]
    pairs = list(product(range(dim), repeat=2))

    defects = {"prec_succ_transpose": worst(
        trid_prec(l1[(a, b)], l1[(b, a)]) - trid_succ(l1[(b, a)], l1[(a, b)])
        for a, b in pairs
    )}
    for m in (1, 2, 3):
        defects[f"dendriform_order_{m}"] = (series.coeff(m) - fold[m]).max_abs()

    single_logs = lax.truncate(3).log()
    q_site = _site_family(single_logs, n_sites, dim)
    q1, q2, q3 = (q_site.degree_sequence(m) for m in (1, 2, 3))
    q1q1 = prelie_left(q1, q1)
    q1sq = trid_dot(q1, q1)
    pre2 = Fraction(-1, 2) * q1q1 + q2 + Fraction(1, 2) * q1sq
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

    qe = _entry_table(single_logs, (1, 2), dim, n_sites)

    def entry_order_2_residual(a, b):
        rhs = qe[2][(a, b)]
        for c in range(dim):
            diff = trid_succ(qe[1][(a, c)], qe[1][(c, b)]) - trid_prec(
                qe[1][(a, c)], qe[1][(c, b)]
            )
            rhs = rhs - Fraction(1, 2) * diff
        return aux_block(logs.coeff(2), a, b, dim) - rhs.total()

    defects["prelie_entry_order_1"] = worst(
        aux_block(logs.coeff(1), a, b, dim) - qe[1][(a, b)].total() for a, b in pairs
    )
    defects["prelie_entry_order_2"] = worst(entry_order_2_residual(a, b) for a, b in pairs)
    return defects
