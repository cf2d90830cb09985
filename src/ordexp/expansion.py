"""Ordered-product expansions on a finite chain.

A chain of N sites carries one local transition operator per site,
given as a polynomial in the coupling:

    site n:  1 + sum_m alpha^m L_n^{(m)}

The full transition operator is the ordered product of the local ones.
Two orderings occur: "forward" multiplies site N leftmost, "backward"
multiplies site 1 leftmost.  This module expands the ordered product in
powers of alpha (the discrete time-ordered series), converts it to the
logarithm (the discrete Magnus series), and evaluates the closed
commutator and pre-Lie formulas for the first three logarithm
coefficients so they can be compared against the series oracle.

The ordered product and the prefix products of `chain_walk` grow one site
at a time, by the product with the site's series 1 + sum_m alpha^m L_n^(m).
The whole ordered product of a family of exact square matrices below
`matrix.SPARSE_FROM` columns, or of exact scalars only (ints and
Fractions), takes `matrix.lax_fold`: the running series passes through
every site as integer numerators over one denominator, reduced once per
site, and becomes matrices or Fractions only at the end, with the value
of the series product.  Every other family's product (float matrices,
free elements, float or mixed scalars, matrices of the row store), and
the prefix products of every family, are multiplied by `lax_series` one
site at a time, as `AlphaSeries` multiplies.  For a family that takes the
fold, `magnus_oracle` takes the logarithm with `matrix.lax_log`, on the
fold's raw blocks, and builds only the coefficients it returns, with the
values and types of `AlphaSeries.log`; every other family takes
`AlphaSeries.log` of `monodromy`.

Operators are polymorphic: exact scalars, Matrix, or FreeElement all
work, as long as one kind is used per family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import not_

from .errors import AlgebraError, DimensionMismatch, SingularOperator, UnsupportedOrder, check_order
from .matrix import SPARSE_FROM, Matrix, lax_fold, lax_log
from .ops import check_compatible, commutator, invert, is_zero, one_like, zero_like
from .rotabaxter import SiteSequence, prelie_left, prelie_right, trid_prec, trid_succ
from .series import AlphaSeries

FORWARD = "forward"
BACKWARD = "backward"


def compositions(total: int, parts: int):
    """Iterator over the tuples of `parts` positive integers summing to `total`.

    `(0, 0)` yields the one empty tuple; any other `parts < 1` yields nothing.
    A `total` or `parts` that is not a plain int (a bool included) is
    AlgebraError, raised by the call itself.
    """
    if type(total) is not int or type(parts) is not int:
        raise AlgebraError(f"compositions take ints, got {total!r} and {parts!r}")
    return _compositions(total, parts)


def _compositions(total: int, parts: int):
    if parts < 1:
        if parts == 0 == total:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class SiteOperatorFamily:
    """The local expansion data of a chain: operator L_n^{(m)} per site and degree.

    `entries` maps (site, degree) to an operator; missing pairs are zero.
    Sites are 1-based; a site, degree or `n_sites` that is not a plain int
    (a bool included) is refused, since no lookup would ever reach it.
    `direction` fixes which ordered product the family canonically builds.
    `like` is a template operator fixing the backend shape; it is inferred
    from the entries when omitted.
    """

    __slots__ = ("n_sites", "entries", "direction", "like")

    def __init__(self, n_sites, entries, direction=FORWARD, like=None):
        self._check(n_sites, [degree for _, degree in entries], direction)
        clean = {}
        for (site, degree), op in entries.items():
            if type(site) is not int or not 1 <= site <= n_sites:
                raise DimensionMismatch(f"site {site!r} is not an int in 1..{n_sites}")
            clean[(site, degree)] = op
        if like is None:
            if not clean:
                raise DimensionMismatch("empty family needs an explicit template")
            like = next(iter(clean.values()))
        for op in clean.values():
            check_compatible(op, like)
        self.n_sites = n_sites
        self.entries = clean
        self.direction = direction
        self.like = like

    @staticmethod
    def _check(n_sites, degrees, direction) -> None:
        """The constructor's checks of everything but the entries' sites and
        operators: `n_sites` an int of at least 0, each degree an int of at
        least 1 (a bool is neither) and a known direction."""
        if type(n_sites) is not int or n_sites < 0:
            raise DimensionMismatch(f"need a nonnegative int number of sites, got {n_sites!r}")
        if direction not in (FORWARD, BACKWARD):
            raise AlgebraError(f"unknown direction {direction!r}")
        for degree in degrees:
            if type(degree) is not int or degree < 1:
                raise DimensionMismatch(f"degree {degree!r} is not a positive int")

    @classmethod
    def _trusted(cls, n_sites: int, entries: dict, direction: str, like) -> "SiteOperatorFamily":
        """The family over `entries` as they are, without the constructor's
        checks, for a caller that builds them well formed: int sites in
        1..`n_sites`, positive int degrees and operators of `like`'s kind,
        shape and backend (`continuum.discretize`, and
        `SampleSource.matrix_family` after `_check` of its arguments)."""
        family = object.__new__(cls)
        family.n_sites = n_sites
        family.entries = entries
        family.direction = direction
        family.like = like
        return family

    def entry(self, site: int, degree: int):
        op = self.entries.get((site, degree))
        return zero_like(self.like) if op is None else op

    def degree_sequence(self, degree: int) -> SiteSequence:
        """All sites' operators of one degree, as a site sequence."""
        return SiteSequence([self.entry(n, degree) for n in range(1, self.n_sites + 1)])

    def lax_series(self, site: int, order: int) -> AlphaSeries:
        """The site's series 1 + sum_m alpha^m L_site^(m) through `order`.

        Each present coefficient is stored as its sum with the template's
        zero, so its type and float bits are those of the zero-padded series
        plus the unit: an int scalar over an exact template becomes a
        Fraction, and a float -0.0 entry becomes 0.0.  An order that is not
        an int of at least 0 is UnsupportedOrder.
        """
        check_order(order)
        zero = zero_like(self.like)
        coeffs = [one_like(self.like)]
        for m in range(1, order + 1):
            op = self.entries.get((site, m))
            coeffs.append(zero if op is None else op + zero)
        return AlphaSeries(coeffs)


def _folds(family: SiteOperatorFamily) -> bool:
    """Whether the family's chain products take `matrix.lax_fold`: its
    template is an exact square matrix below `SPARSE_FROM` columns (the
    family holds only matrices of that shape and backend), or it and every
    entry are exact scalars, ints or Fractions."""
    like = family.like
    if isinstance(like, Matrix):
        return like.is_exact() and like.rows == like.cols < SPARSE_FROM
    return all(type(x) in (int, Fraction) for x in (like, *family.entries.values()))


def _sites(family: SiteOperatorFamily, descending: bool) -> range:
    """The sites 1..N in the order they are multiplied in on the right:
    site N leftmost when `descending`, else site 1 leftmost."""
    return range(family.n_sites, 0, -1) if descending else range(1, family.n_sites + 1)


def _steps(family: SiteOperatorFamily, order: int, sites) -> list:
    """Each site's nonzero (degree, operator) pairs of degree 1..`order`,
    degrees ascending, in the order of `sites`: the chain as
    `matrix.lax_fold` and `matrix.lax_log` take it, from one pass over the
    family's entries."""
    # the family holds matrices alone or scalars alone
    zero = Matrix.is_zero if isinstance(family.like, Matrix) else not_
    terms = [[] for _ in range(family.n_sites + 1)]
    for (site, m), op in family.entries.items():
        if m <= order and not zero(op):
            terms[site].append((m, op))
    return [sorted(terms[site]) for site in sites]


def _products(laxes, order: int, like, left: bool) -> list:
    """[1, then the product after each series of `laxes`]: the running
    product grows from 1, multiplying each on the left (`left`) or the
    right."""
    t = AlphaSeries.one(order, like=like)
    out = [t]
    for lax in laxes:
        t = lax * t if left else t * lax
        out.append(t)
    return out


def ordered_product(family: SiteOperatorFamily, order: int, descending: bool) -> AlphaSeries:
    """The product of the sites' series 1 + sum_m alpha^m L_n^(m) through `order`,
    site N leftmost when `descending`, else site 1 leftmost.

    It grows from 1 one site at a time, multiplying on the right: by
    `matrix.lax_fold` for exact matrices below `SPARSE_FROM` and exact
    scalars, by the product with `lax_series` otherwise.  Either way it has
    the value of the plain fold of `lax_series` products.
    """
    check_order(order)
    sites = _sites(family, descending)
    if _folds(family):
        return AlphaSeries(lax_fold(family.like, _steps(family, order, sites), order))
    return _products((family.lax_series(site, order) for site in sites), order, family.like, False)[-1]


def monodromy(family: SiteOperatorFamily, order: int) -> AlphaSeries:
    """Ordered product of all local operators, per the family's direction."""
    check_order(order)
    return ordered_product(family, order, descending=family.direction == FORWARD)


def chain_walk(family: SiteOperatorFamily, order: int, direction: str):
    """Each site's series [L_1..L_N] and the prefix products [T_1..T_{N+1}]:
    T_1 = 1, T_{n+1} = L_n T_n (forward) or T_n L_n (backward), the side
    set by `direction`, not by the family's own direction; any other
    `direction` is an AlgebraError.  The prefixes are series products of
    the series returned, on every backend."""
    if direction not in (FORWARD, BACKWARD):
        raise AlgebraError(f"unknown direction {direction!r}")
    laxes = [family.lax_series(n, order) for n in range(1, family.n_sites + 1)]
    return laxes, _products(laxes, order, family.like, direction == FORWARD)


def prefix_monodromy(family: SiteOperatorFamily, upto: int, order: int) -> AlphaSeries:
    """Partial ordered product over sites 1..upto-1.

    Satisfies T_1 = 1 and T_{n+1} = L_n T_n (forward) or T_{n+1} = T_n L_n
    (backward), so `upto = n_sites + 1` reproduces the full product.  It is
    prefix `upto` of `chain_walk` in the family's direction, from the
    series of those sites alone.  An `upto` that is not a plain int (a bool
    included) in 1..n_sites+1 is DimensionMismatch.
    """
    if type(upto) is not int or not 1 <= upto <= family.n_sites + 1:
        raise DimensionMismatch(f"prefix end {upto!r} is not an int in 1..{family.n_sites + 1}")
    laxes = (family.lax_series(n, order) for n in range(1, upto))
    return _products(laxes, order, family.like, family.direction == FORWARD)[-1]


def dyson_terms(family: SiteOperatorFamily, order: int, method: str = "direct"):
    """Coefficients [T^(0)=1, T^(1), ..., T^(order)] of the ordered product.

    `method="direct"` enumerates site-ordered products per degree
    composition; `method="tridendriform"` folds the same compositions
    through the half-shuffle actions (right-nested for forward families,
    left-nested for backward ones).  Both agree with `monodromy`.  An
    order that is not an int of at least 0 is UnsupportedOrder.
    """
    check_order(order)
    if method == "direct":
        return _dyson_direct(family, order)
    if method == "tridendriform":
        return _dyson_trid(family, order)
    raise AlgebraError(f"unknown method {method!r}")


def _dyson_direct(family, order):
    terms = [one_like(family.like)]
    for m in range(1, order + 1):
        total = zero_like(family.like)
        for k in range(1, m + 1):
            for comp in compositions(m, k):
                for sites in combinations(range(1, family.n_sites + 1), k):
                    factors = [family.entry(sites[i], comp[i]) for i in range(k)]
                    if any(is_zero(f) for f in factors):
                        continue
                    if family.direction == FORWARD:
                        factors = factors[::-1]
                    total = total + reduce(lambda a, b: a * b, factors)
        terms.append(total)
    return terms


def _dyson_trid(family, order):
    seqs = {d: family.degree_sequence(d) for d in range(1, order + 1)}
    terms = [one_like(family.like)]
    for m in range(1, order + 1):
        total = zero_like(family.like)
        for k in range(1, m + 1):
            for comp in compositions(m, k):
                if family.direction == FORWARD:
                    word = seqs[comp[0]]
                    for degree in comp[1:]:
                        word = trid_prec(seqs[degree], word)
                else:
                    word = seqs[comp[0]]
                    for degree in comp[1:]:
                        word = trid_succ(word, seqs[degree])
                total = total + word.total()
        terms.append(total)
    return terms


def pi_table(dyson: list, order: int) -> dict:
    """Power table of the series tail: pi[(n, k)] = coefficient of alpha^n in (T-1)^k."""
    table = {}
    for n in range(1, order + 1):
        table[(n, 1)] = dyson[n]
    for k in range(2, order + 1):
        for n in range(k, order + 1):
            total = None
            for m in range(1, n - k + 2):
                piece = table[(m, 1)] * table[(n - m, k - 1)]
                total = piece if total is None else total + piece
            table[(n, k)] = total
    return table


def magnus_from_dyson(dyson: list, order: int) -> list:
    """Logarithm coefficients [Q^(1), ..., Q^(order)] via the power table."""
    table = pi_table(dyson, order)
    out = []
    for m in range(1, order + 1):
        total = None
        for k in range(1, m + 1):
            signed = Fraction((-1) ** (k + 1), k) * table[(m, k)]
            total = signed if total is None else total + signed
        out.append(total)
    return out


def magnus_oracle(family: SiteOperatorFamily, order: int) -> list:
    """Logarithm coefficients [Q^(1), ..., Q^(order)] of the ordered product.

    An exact family that `_folds` takes `matrix.lax_log`, the logarithm on
    the raw blocks of `matrix.lax_fold`, which builds only the coefficients
    it returns, with the values and types of `AlphaSeries.log`; any other,
    floats included, takes `monodromy(family, order).log()`.
    """
    check_order(order)
    if _folds(family):
        sites = _sites(family, descending=family.direction == FORWARD)
        return lax_log(family.like, _steps(family, order, sites), order)
    series = monodromy(family, order).log()
    return [series.coeff(m) for m in range(1, order + 1)]


def magnus_closed_form(family: SiteOperatorFamily, order: int = 3, style: str = "explicit"):
    """Closed-form logarithm coefficients [Q^(1), ..., Q^(order)], order <= 3.

    `style="explicit"` evaluates the nested-commutator formulas,
    `style="prelie"` the pre-Lie ones (left action for forward families,
    right action for backward ones); each style forms Q^(2) and Q^(3) in
    one pass and nothing above `order`.  An empty chain's product is 1, so
    each of its terms is zero, as `magnus_oracle` gives.
    """
    check_order(order, 1)
    if order > 3:
        raise UnsupportedOrder(f"closed forms cover orders 1..3, got {order}")
    if style not in _CLOSED_FORMS:
        raise AlgebraError(f"unknown style {style!r}")
    if family.n_sites == 0:
        return [zero_like(family.like)] * order
    higher = _CLOSED_FORMS[style](family, order) if order > 1 else []
    return [family.degree_sequence(1).total()] + higher


def _commutator_forms(family, order):
    """[Q^(2), ..., Q^(order)] from the nested-commutator formulas, order 2 or 3."""
    half = Fraction(1, 2)
    forward = family.direction == FORWARD
    sites = range(1, family.n_sites + 1)
    x = {n: family.entry(n, 1) for n in sites}
    y = {n: family.entry(n, 2) for n in sites}
    q2 = zero_like(family.like)
    for n in sites:
        for n1 in range(1, n):
            # a backward family swaps the two site indices of each term
            left, right = (n, n1) if forward else (n1, n)
            q2 = q2 + half * commutator(x[left], x[right])
        q2 = q2 - half * (x[n] * x[n])
        q2 = q2 + y[n]
    if order == 2:
        return [q2]
    sixth = Fraction(1, 6)
    q3 = zero_like(family.like)
    for n in sites:
        for n1 in range(1, n):
            a, c = (n, n1) if forward else (n1, n)
            for n2 in range(n1 + 1, n):
                q3 = q3 + sixth * (
                    commutator(x[a], commutator(x[n2], x[c]))
                    + commutator(commutator(x[a], x[n2]), x[c])
                )
        for m in range(1, n):
            a, b = (m, n) if forward else (n, m)
            q3 = q3 + sixth * (x[a] * commutator(x[a], x[b]) + commutator(x[a], x[b]) * x[b])
            q3 = q3 + sixth * (commutator(x[a], x[b] * x[b]) + commutator(x[a] * x[a], x[b]))
            q3 = q3 - half * (commutator(x[a], y[b]) + commutator(y[a], x[b]))
        q3 = q3 + Fraction(1, 3) * (x[n] * x[n] * x[n])
        q3 = q3 + family.entry(n, 3)
        q3 = q3 - half * (x[n] * y[n] + y[n] * x[n])
    return [q2, q3]


def _prelie_forms(family, order):
    """[Q^(2), ..., Q^(order)] from the pre-Lie formulas, order 2 or 3."""
    forward = family.direction == FORWARD
    act = prelie_left if forward else prelie_right
    s1 = family.degree_sequence(1)
    s2 = family.degree_sequence(2)
    inner = act(s1, s1)
    q2 = (Fraction(-1, 2) * inner).total() + s2.total()
    if order == 2:
        return [q2]
    if forward:
        cubic = Fraction(1, 4) * act(inner, s1) + Fraction(1, 12) * act(s1, inner)
    else:
        cubic = Fraction(1, 12) * act(inner, s1) + Fraction(1, 4) * act(s1, inner)
    mixed = Fraction(-1, 2) * (act(s2, s1) + act(s1, s2))
    return [q2, cubic.total() + mixed.total() + family.degree_sequence(3).total()]


_CLOSED_FORMS = {"explicit": _commutator_forms, "prelie": _prelie_forms}


def closed_form_defects(family: SiteOperatorFamily, order: int = 3) -> dict:
    """Difference of each style's closed-form coefficients from the series oracle.

    Returns {style: [(degree, residual), ...]} for every style that
    `magnus_closed_form` accepts, against one `magnus_oracle` call; a
    faithful closed form gives residual zero at every degree.  The closed
    forms come first, so an order they do not cover is refused before the
    oracle runs.
    """
    closed = {style: magnus_closed_form(family, order, style) for style in _CLOSED_FORMS}
    oracle = magnus_oracle(family, order)
    return {style: [(m, q - o) for m, (q, o) in enumerate(zip(qs, oracle), start=1)]
            for style, qs in closed.items()}


def factorized_generators(m_ops: list, l_ops: list):
    """Dressed one-site generators of the factorized expansion.

    With invertible frame factors M_n and perturbations L_n the product
    over sites of (M_n + alpha L_n) equals the plain frame product
    multiplied by an ordered series in the dressed generators

        P_n = (M_N ... M_{n+1}) L_n (M_N ... M_n)^{-1}.

    Returns the list [P_1, ..., P_N].  Raises SingularOperator naming the
    site whose frame factor cannot be inverted.
    """
    if len(m_ops) != len(l_ops):
        raise DimensionMismatch("need one frame factor per perturbation")
    n_sites = len(m_ops)
    inverses = []
    for site, op in enumerate(m_ops, start=1):
        try:
            inverses.append(invert(op))
        except SingularOperator:
            raise SingularOperator(f"frame factor at site {site} is not invertible")
    generators = []
    for n in range(1, n_sites + 1):
        left = None
        for k in range(n_sites, n, -1):
            left = m_ops[k - 1] if left is None else left * m_ops[k - 1]
        dressed = l_ops[n - 1] if left is None else left * l_ops[n - 1]
        for k in range(n, n_sites + 1):
            dressed = dressed * inverses[k - 1]
        generators.append(dressed)
    return generators


class FactorizedResult:
    """Outcome of the frame-dressed expansion of an ordered product.

    `generators` are the dressed one-site operators, `q_list` the
    logarithm coefficients of their linear-family expansion, `series`
    the reassembled product exp(sum alpha^m Q^(m)) times the frame
    product, and `residual` the difference from the direct product
    (zero when the dressing identity holds).
    """

    __slots__ = ("generators", "q_list", "series", "residual")

    def __init__(self, generators, q_list, series, residual):
        self.generators = generators
        self.q_list = q_list
        self.series = series
        self.residual = residual


def factorized_expansion(m_ops: list, l_ops: list, order: int) -> FactorizedResult:
    """Expand the ordered product of (M_n + alpha L_n) through dressed generators.

    The dressed generators P_n reduce the product to a purely linear chain
    (1 + alpha P_n), whose logarithm is computed and exponentiated back;
    multiplying by the frame product M_N ... M_1 must reproduce the direct
    expansion exactly.
    """
    if not m_ops:
        raise DimensionMismatch("need at least one site")
    like = l_ops[0]
    generators = factorized_generators(m_ops, l_ops)
    n_sites = len(m_ops)
    dressed = SiteOperatorFamily(
        n_sites,
        {(n, 1): generators[n - 1] for n in range(1, n_sites + 1)},
        direction=FORWARD,
        like=like,
    )
    q_list = magnus_oracle(dressed, order)
    exp_q = AlphaSeries.from_parts(
        order, dict(enumerate(q_list, start=1)), like=like
    ).exp()
    frame = None
    for op in reversed(m_ops):
        frame = op if frame is None else frame * op
    series = exp_q * AlphaSeries.from_parts(order, {0: frame}, like=like)
    residual = factorized_direct(m_ops, l_ops, order) - series
    return FactorizedResult(generators, q_list, series, residual)


def factorized_direct(m_ops: list, l_ops: list, order: int) -> AlphaSeries:
    """Ordered product of (M_n + alpha L_n), multiplied out term by term."""
    if not m_ops:
        raise DimensionMismatch("need at least one site")
    like = l_ops[0]
    result = AlphaSeries.one(order, like=like)
    for site in range(len(m_ops), 0, -1):
        lax = AlphaSeries.from_parts(
            order, {0: m_ops[site - 1], 1: l_ops[site - 1]}, like=like
        )
        result = result * lax
    return result
