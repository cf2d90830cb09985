"""Rota-Baxter operators and the splitting structures they induce.

Two operators are provided. The strict partial sum on site sequences,
R(f)_n = f_1 + ... + f_{n-1}, satisfies the Rota-Baxter identity of weight 1:

    R(a) R(b) = R( R(a) b + a R(b) + a b ).

The integral-from-the-base-point on operator polynomials satisfies the same
identity with weight 0. Both checks are exact.

The partial sum splits the sitewise product into three tridendriform pieces

    (a < b)_n = a_n R(b)_n,   (a > b)_n = R(a)_n b_n,   (a . b)_n = a_n b_n,

whose sum is the associative sitewise product, and induces a left pre-Lie
product (a |> b)_n = [R(a)_n, b_n] + a_n b_n together with its right-handed
mirror (a <| b)_n = [a_n, R(b)_n] + a_n b_n.  Each site of either is one
`ops.prelie_site` call, which fuses the three matrix products and keeps
every float bit of the formula as written.

`matrix.stack_prelie_left` is the left product on another carrier of the
same values: a site stack, the N sites' d x d matrices on top of each other
as one (N*d) x d `Matrix`.  It lives beside `matrix.fused_prelie_site`,
since it sums the stack's blocks in the matrix store, and gives the values,
and every float bit, that `prelie_left` gives site by site, at every block
size and on both backends.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add

from .errors import BackendMismatch, DimensionMismatch
from .ops import SCALARS, is_zero, prelie_site, worst, zero_like
from .poly import Poly


class SiteSequence:
    """A finite sequence of operators indexed by sites 1..N (stored 0-based).

    A sequence is immutable. It caches its strict prefix sums, filled by the
    first `PartialSumOp()` call on it, so every splitting and pre-Lie product
    that reads R(f) sums f once; `==` compares the values only.
    """

    __slots__ = ("values", "_prefix")

    def __init__(self, values):
        values = tuple(values)
        if not values:
            raise DimensionMismatch("a site sequence needs at least one site")
        self.values = values
        self._prefix = None

    @property
    def n_sites(self) -> int:
        return len(self.values)

    def at(self, n: int):
        """1-based access, matching the indices in the formulas."""
        if not 1 <= n <= len(self.values):
            raise DimensionMismatch(f"site {n} out of 1..{len(self.values)}")
        return self.values[n - 1]

    def _check(self, other: "SiteSequence"):
        if len(self.values) != len(other.values):
            raise DimensionMismatch("site counts differ")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SiteSequence):
            return NotImplemented
        return len(self.values) == len(other.values) and all(
            a == b for a, b in zip(self.values, other.values)
        )

    def __add__(self, other) -> "SiteSequence":
        if not isinstance(other, SiteSequence):
            return NotImplemented
        self._check(other)
        return SiteSequence(a + b for a, b in zip(self.values, other.values))

    def __sub__(self, other) -> "SiteSequence":
        if not isinstance(other, SiteSequence):
            return NotImplemented
        self._check(other)
        return SiteSequence(a - b for a, b in zip(self.values, other.values))

    def __neg__(self) -> "SiteSequence":
        return SiteSequence(-a for a in self.values)

    def __mul__(self, other):
        """Sitewise product with another sequence, or scalar scaling."""
        if isinstance(other, SiteSequence):
            self._check(other)
            return SiteSequence(a * b for a, b in zip(self.values, other.values))
        if isinstance(other, SCALARS):
            return SiteSequence(a * other for a in self.values)
        return NotImplemented

    def __rmul__(self, other) -> "SiteSequence":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(is_zero(v) for v in self.values)

    def total(self):
        """f_1 + ... + f_N, summed from site 1 up."""
        return reduce(add, self.values)

    def max_abs(self):
        return worst(self.values)

    def __str__(self) -> str:
        return "[" + "; ".join(str(v) for v in self.values) + "]"

    def __repr__(self) -> str:
        return f"SiteSequence({self})"


def partial_sum(seq: SiteSequence, n: int):
    """Strict prefix sum f_1 + ... + f_{n-1}; the empty sum is the zero operator."""
    acc = zero_like(seq.values[0])
    for v in seq.values[: n - 1]:
        acc = acc + v
    return acc


class PartialSumOp:
    """Weight-1 Rota-Baxter operator: strict partial summation along sites."""

    weight = Fraction(1)

    def __call__(self, seq: SiteSequence) -> SiteSequence:
        """R(seq), summed from site 1 up on the first call and cached on `seq`."""
        if seq._prefix is None:
            acc = zero_like(seq.values[0])
            out = [acc]
            for v in seq.values[:-1]:
                acc = acc + v
                out.append(acc)
            seq._prefix = SiteSequence(out)
        return seq._prefix


class IntegralOp:
    """Weight-0 Rota-Baxter operator: integral from the base point, on polynomials."""

    weight = Fraction(0)

    def __init__(self, x0=Fraction(0)):
        self.x0 = x0

    def __call__(self, p: Poly) -> Poly:
        return p.integrate(self.x0)


def rb_residual(rb, a, b):
    """R(a)R(b) - R(R(a)b + aR(b) + weight*ab); identically zero for a true operator."""
    ra, rbv = rb(a), rb(b)
    inner = ra * b + a * rbv
    if rb.weight:
        inner = inner + (a * b) * rb.weight
    return ra * rbv - rb(inner)


def trid_prec(a: SiteSequence, b: SiteSequence) -> SiteSequence:
    """(a < b)_n = a_n (b_1 + ... + b_{n-1})."""
    r = PartialSumOp()(b)
    return SiteSequence(x * y for x, y in zip(a.values, r.values))


def trid_succ(a: SiteSequence, b: SiteSequence) -> SiteSequence:
    """(a > b)_n = (a_1 + ... + a_{n-1}) b_n."""
    r = PartialSumOp()(a)
    return SiteSequence(x * y for x, y in zip(r.values, b.values))


def trid_dot(a: SiteSequence, b: SiteSequence) -> SiteSequence:
    """(a . b)_n = a_n b_n."""
    return SiteSequence(x * y for x, y in zip(a.values, b.values))


def trid_star(a: SiteSequence, b: SiteSequence) -> SiteSequence:
    """The associative sum < + > + . of the three splitting pieces."""
    return trid_prec(a, b) + trid_succ(a, b) + trid_dot(a, b)


def trid_apply(kind: str, a: SiteSequence, b: SiteSequence, n: int | None = None):
    """One splitting piece by name ('prec', 'succ', 'dot', 'star'); site value if n given."""
    table = {"prec": trid_prec, "succ": trid_succ, "dot": trid_dot, "star": trid_star}
    if kind not in table:
        raise BackendMismatch(f"unknown tridendriform piece {kind!r}")
    seq = table[kind](a, b)
    return seq if n is None else seq.at(n)


def prelie_left(a: SiteSequence, b: SiteSequence) -> SiteSequence:
    """(a |> b)_n = [a_1+...+a_{n-1}, b_n] + a_n b_n."""
    r = PartialSumOp()(a)
    return SiteSequence(
        prelie_site(s, y, x, y) for s, x, y in zip(r.values, a.values, b.values)
    )


def prelie_right(a: SiteSequence, b: SiteSequence) -> SiteSequence:
    """(a <| b)_n = [a_n, b_1+...+b_{n-1}] + a_n b_n."""
    r = PartialSumOp()(b)
    return SiteSequence(
        prelie_site(x, s, x, y) for s, x, y in zip(r.values, a.values, b.values)
    )


def check_tridendriform(a: SiteSequence, b: SiteSequence, c: SiteSequence) -> list[SiteSequence]:
    """Residuals of the seven splitting axioms and of star associativity;
    all zero over a Rota-Baxter product.

    1. (a<b)<c = a<(b*c)        5. (a>b).c = a>(b.c)
    2. (a>b)<c = a>(b<c)        6. (a<b).c = a.(b>c)
    3. a>(b>c) = (a*b)>c        7. (a.b)<c = a.(b<c)
    4. (a.b).c = a.(b.c)        8. (a*b)*c = a*(b*c)

    The eighth follows from the seven.  The three pieces of (a, b) and of
    (b, c) are made once each, and so are (a*b)>c (axiom 3) and a<(b*c)
    (axiom 1), which the outer stars reuse; every star is summed in
    `trid_star`'s order, p + s + d.
    """
    p, s, d = trid_prec, trid_succ, trid_dot
    ab_p, ab_s, ab_d = p(a, b), s(a, b), d(a, b)
    bc_p, bc_s, bc_d = p(b, c), s(b, c), d(b, c)
    ab_star, bc_star = ab_p + ab_s + ab_d, bc_p + bc_s + bc_d
    ab_star_s, a_bc_star_p = s(ab_star, c), p(a, bc_star)
    return [
        p(ab_p, c) - a_bc_star_p,
        p(ab_s, c) - s(a, bc_p),
        s(a, bc_s) - ab_star_s,
        d(ab_d, c) - d(a, bc_d),
        d(ab_s, c) - s(a, bc_d),
        d(ab_p, c) - d(a, bc_s),
        p(ab_d, c) - d(a, bc_p),
        (p(ab_star, c) + ab_star_s + d(ab_star, c))
        - (a_bc_star_p + s(a, bc_star) + d(a, bc_star)),
    ]


def check_prelie_left(a: SiteSequence, b: SiteSequence, c: SiteSequence) -> SiteSequence:
    """Left pre-Lie residual: the associator of |> must be symmetric in a, b."""
    t = prelie_left
    return t(t(a, b), c) - t(a, t(b, c)) - (t(t(b, a), c) - t(b, t(a, c)))


def check_prelie_right(a: SiteSequence, b: SiteSequence, c: SiteSequence) -> SiteSequence:
    """Right pre-Lie residual: the associator of <| must be symmetric in b, c."""
    t = prelie_right
    return t(t(a, b), c) - t(a, t(b, c)) - (t(t(a, c), b) - t(a, t(c, b)))
