"""Gauge sequences and double-row monodromies on a finite chain.

A gauge transformation intertwines two chains of local transition
operators: a sequence of invertible operators G_n relates the families
L_n and Lhat_n when

    G_{n+1} = Lhat_n G_n L_n^{-1},        n = 1..N.

Given both families and an initial value G_1, the whole sequence follows
in closed form from the two prefix products,

    G_n = That_n G_1 T_n^{-1},   T_{n+1} = L_n T_n,   That_{n+1} = Lhat_n That_n,

and `gauge_solve` builds it that way, then re-checks the difference
equation site by site and reports the residuals.

A double-row monodromy sandwiches a boundary operator K between a
forward and a backward ordered product,

    B_{n+1} = T_{n+1} K That_{n+1},   T_{n+1} = L_n ... L_1,
                                      That_{n+1} = Lhat_1 ... Lhat_n,

which solves the two-sided difference equation

    B_{n+1} = L_n B_n Lhat_n,   B_1 = K.

`double_row_monodromy` builds the sequence and reports the residuals of
that equation.  Each walks each of its chains once (`chain_walk`): every
site's series is built once and serves both the prefix products and the
residual recursion.  Both return one `ChainReport`: the sequence along the
chain and its recursion residuals.  The reflection choice Lhat(alpha) = L^{-1}(-alpha),
realized by `reflection_hat`, produces a backward family from a forward
one by series inversion at negated coupling.

Everything here is truncated power-series arithmetic over whatever
operator backend the families carry, so the residual checks are exact
for exact inputs.
"""

from __future__ import annotations

from .errors import DimensionMismatch, SingularOperator, check_order
from .expansion import BACKWARD, FORWARD, SiteOperatorFamily, chain_walk
from .freealg import FreeElement
from .ops import check_compatible, invert, is_zero, worst
from .series import AlphaSeries


def _require_invertible(op, what: str):
    """Invertibility of a value the problems store but never invert.

    A free element passes when its scalar part is nonzero: it is then a
    unit of the completed free algebra, although `invert` (units of the
    free algebra only) has no finite answer for it.
    """
    if isinstance(op, FreeElement):
        op = op.scalar_part()
    try:
        invert(op)
    except SingularOperator as exc:
        raise SingularOperator(f"{what} is not invertible") from exc


class GaugeProblem:
    """Two same-size families, an invertible initial value, and a truncation."""

    __slots__ = ("forward", "target", "initial", "order")

    def __init__(self, forward: SiteOperatorFamily, target: SiteOperatorFamily,
                 initial, order: int):
        if forward.n_sites != target.n_sites:
            raise DimensionMismatch(
                f"family sizes differ: {forward.n_sites} vs {target.n_sites}")
        check_compatible(forward.like, target.like)
        check_compatible(initial, forward.like)
        _require_invertible(initial, "gauge initial value")
        check_order(order, 1)
        self.forward = forward
        self.target = target
        self.initial = initial
        self.order = order


class BoundaryProblem:
    """Forward and backward families with a boundary operator between them.

    The boundary operator may be handed over as a coupling series or as a
    single constant operator; its constant term must be invertible.
    """

    __slots__ = ("forward", "backward", "boundary", "order")

    def __init__(self, forward: SiteOperatorFamily, backward: SiteOperatorFamily,
                 boundary, order: int):
        if forward.n_sites != backward.n_sites:
            raise DimensionMismatch(
                f"family sizes differ: {forward.n_sites} vs {backward.n_sites}")
        check_compatible(forward.like, backward.like)
        check_order(order, 1)
        if isinstance(boundary, AlphaSeries):
            boundary = boundary.truncate(order)
        else:
            boundary = AlphaSeries.from_parts(order, {0: boundary}, like=forward.like)
        check_compatible(boundary.coeff(0), forward.like)
        _require_invertible(boundary.coeff(0), "boundary operator constant term")
        self.forward = forward
        self.backward = backward
        self.boundary = boundary
        self.order = order


class ChainReport:
    """A sequence along the chain and the residuals of its recursion.

    `values[n-1]` is the n-th member (G_n or B_n, n = 1..N+1);
    `residuals[n-1]` is the recursion's residual at site n (n = 1..N).
    """

    __slots__ = ("values", "residuals")

    def __init__(self, values, residuals):
        self.values = list(values)
        self.residuals = list(residuals)

    def is_zero(self) -> bool:
        return all(r.is_zero() for r in self.residuals)

    def max_abs(self):
        return worst(self.residuals)


def gauge_solve(p: GaugeProblem) -> ChainReport:
    """Gauge sequence from the prefix products, with residuals re-checked.

    The report's values are G_1..G_{N+1}; its residuals are
    G_{n+1} - Lhat_n G_n L_n^{-1}.

    The construction G_n = That_n G_1 T_n^{-1} satisfies the difference
    equation identically, so nonzero residuals indicate a broken
    invertibility assumption rather than a bad problem.
    """
    g1 = AlphaSeries.from_parts(p.order, {0: p.initial}, like=p.forward.like)
    laxes, ts = chain_walk(p.forward, p.order, FORWARD)
    hats, t_hats = chain_walk(p.target, p.order, FORWARD)
    gauges = [t_hat * g1 * t.inverse() for t, t_hat in zip(ts, t_hats)]
    residuals = [g_next - hat * g * lax.inverse()
                 for g_next, hat, g, lax in zip(gauges[1:], hats, gauges, laxes)]
    return ChainReport(gauges, residuals)


def double_row_monodromy(p: BoundaryProblem) -> ChainReport:
    """Double-row sequence B_n = T_n K That_n with its recursion residuals.

    The report's values are B_1..B_{N+1}; its residuals are
    B_{n+1} - L_n B_n Lhat_n.

    The forward factor grows on the left, the backward factor on the
    right, so B_{n+1} = L_n B_n Lhat_n holds by associativity alone; the
    residuals are computed from independently assembled products.
    """
    laxes, ts = chain_walk(p.forward, p.order, FORWARD)
    hats, t_hats = chain_walk(p.backward, p.order, BACKWARD)
    rows = [p.boundary] + [t * p.boundary * t_hat for t, t_hat in zip(ts[1:], t_hats[1:])]
    residuals = [b_next - lax * b * hat
                 for b_next, lax, b, hat in zip(rows[1:], laxes, rows, hats)]
    return ChainReport(rows, residuals)


def reflection_hat(fam: SiteOperatorFamily, order: int) -> SiteOperatorFamily:
    """Backward family Lhat(alpha) = L^{-1}(-alpha), truncated.

    Each site's series is inverted after negating the coupling, and the
    resulting coefficients through `order` become the new family; the
    canonical direction flips.  Applying the map twice returns the
    original family up to the same truncation.
    """
    check_order(order, 1)
    entries = {}
    for site in range(1, fam.n_sites + 1):
        hat = fam.lax_series(site, order).flip().inverse()
        for m in range(1, order + 1):
            c = hat.coeff(m)
            if not is_zero(c):
                entries[(site, m)] = c
    direction = BACKWARD if fam.direction == FORWARD else FORWARD
    return SiteOperatorFamily(fam.n_sites, entries, direction=direction, like=fam.like)
