"""Pre-Lie flows, the brace product, and BCH composition.

Degree truncation makes the carrier a nilpotent pre-Lie algebra, so the
exponential flow W(a) = a + a|>a/2! + a|>(a|>a)/3! + ... is a bijection.
Its inverse Omega and the product a o b = a + e^{L_Omega(a)}(b) give a
left brace on the same underlying addition. The BCH composition C(a, b)
with W(a) o W(b) = W(C(a, b)) is read off from log(exp exp) in the free
associative algebra and reduced to nested brackets, so no BCH coefficient
is ever hand-coded.

Omega of an exact element is one pass in degree order, the pre-Lie Magnus
recursion (`_omega_pass`, which `continuum` runs on its fields too); a float
element keeps `order` fixed-point sweeps, whose rounding the float reports
follow.  Nothing else is computed twice: each brace residual computes
Omega(a) once for its left factor a, the BCH word table is built once per
truncation depth (from the free element's `named_words`, in the order it
stores them, which fixes the order of the float sum) and then only read,
and `bch` brackets each left-nested word prefix once, so a word xyx reuses
[x, y].  The pre-Lie product itself is the callable the elements carry, and
a component value may be anything with addition, subtraction, negation,
scalar multiples and a zero test; the brace suite's are site stacks under
one cached `matrix.stack_prelie_left` per case, with each left operand's
prefix sums cached beside it (see `suites.brace_suite`).
A difference subtracts component by component, and a degree only the
subtrahend has enters as its negation, so no intermediate negated element
is built; in IEEE arithmetic x - y is x + (-y), so it rounds as adding the
negation does.
"""

from fractions import Fraction
from functools import cache
from math import factorial

from .errors import BackendMismatch, DimensionMismatch, check_order
from .freealg import FreeElement
from .ops import check_compatible, max_abs, worst
from .series import AlphaSeries


class GradedPreLieElement:
    """Element of a pre-Lie algebra graded by degrees 1..order.

    Components beyond the truncation order are discarded. The pre-Lie
    product is a bilinear callable on component values; component values
    only need addition, subtraction, negation, scalar multiples, and is_zero.
    `like` is a template component value (the first component when
    omitted); its multiple by zero stands in for missing degrees, so it
    must live where the components do: another kind, shape or backend is
    refused (BackendMismatch, or DimensionMismatch for a shape).  Results
    of arithmetic on elements are built by `_with`, unchecked.
    """

    __slots__ = ("order", "product", "components", "like")

    def __init__(self, order, components, product, like=None):
        check_order(order, 1, error=DimensionMismatch)
        clean = {}
        for d, v in components.items():
            if d < 1:
                raise DimensionMismatch("pre-Lie components start at degree 1")
            if not hasattr(v, "is_zero"):
                raise BackendMismatch(f"a component value needs is_zero, got {type(v).__name__}")
            if d <= order and not v.is_zero():
                clean[d] = v
        if like is None:
            if not clean:
                raise DimensionMismatch("an all-zero element needs a like value")
            like = next(iter(clean.values()))
        floated = isinstance(max_abs(like), float)
        for v in clean.values():
            check_compatible(like, v)
            if isinstance(max_abs(v), float) != floated:
                raise BackendMismatch("the like value and the components are of two backends")
        self.order = order
        self.product = product
        self.components = clean
        self.like = like

    def _with(self, components: dict) -> "GradedPreLieElement":
        """The element of this one's order, product and `like` with the nonzero
        values of `components`: a result of arithmetic on checked elements,
        whose degrees lie in 1..order, so it is not checked again."""
        e = object.__new__(GradedPreLieElement)
        e.order, e.product, e.like = self.order, self.product, self.like
        e.components = {d: v for d, v in components.items() if not v.is_zero()}
        return e

    def zero(self) -> "GradedPreLieElement":
        return self._with({})

    def component(self, degree: int):
        value = self.components.get(degree)
        return self.like * Fraction(0) if value is None else value

    def is_zero(self) -> bool:
        return not self.components

    def max_abs(self):
        # an all-zero element keeps the backend of its like value
        return worst(self.components.values() or [self.like * Fraction(0)])

    def _check(self, other: "GradedPreLieElement"):
        if not isinstance(other, GradedPreLieElement):
            raise BackendMismatch(f"expected a graded element, got {type(other).__name__}")
        if self.order != other.order:
            raise BackendMismatch(f"truncation {self.order} vs {other.order}")
        if self.product is not other.product:
            raise BackendMismatch("elements carry different pre-Lie products")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPreLieElement):
            return NotImplemented
        return self.order == other.order and self.components == other.components

    __hash__ = None

    def __add__(self, other) -> "GradedPreLieElement":
        self._check(other)
        out = dict(self.components)
        for d, v in other.components.items():
            out[d] = out[d] + v if d in out else v
        return self._with(out)

    def __sub__(self, other) -> "GradedPreLieElement":
        self._check(other)
        out = dict(self.components)
        for d, v in other.components.items():
            out[d] = out[d] - v if d in out else -v
        return self._with(out)

    def __neg__(self) -> "GradedPreLieElement":
        return self._with({d: -v for d, v in self.components.items()})

    def scale(self, s) -> "GradedPreLieElement":
        return self._with({d: v * s for d, v in self.components.items()})

    def prod(self, other) -> "GradedPreLieElement":
        """Bilinear extension of the pre-Lie product; degrees add."""
        self._check(other)
        out = {}
        for d1, v1 in self.components.items():
            for d2, v2 in other.components.items():
                d = d1 + d2
                if d > self.order:
                    continue
                w = self.product(v1, v2)
                out[d] = out[d] + w if d in out else w
        return self._with(out)

    def bracket(self, other) -> "GradedPreLieElement":
        """[a, b] = a|>b - b|>a, the Lie bracket induced on the carrier."""
        return self.prod(other) - other.prod(self)

    def __repr__(self) -> str:
        degs = ",".join(str(d) for d in sorted(self.components))
        return f"GradedPreLieElement(order={self.order}, degrees=[{degs}])"


def _omega_pass(b: dict, product, order: int) -> dict:
    """Omega(b), degree by degree, in one pass: with P_0 = x and
    [P_k]_d = sum over d1 of x_d1 |> [P_(k-1)]_(d-d1), the pre-Lie Magnus
    recursion x_d = b_d - sum_{k=1}^{d-1} [P_k]_d / (k+1)! reads W's series
    backwards, and degree d needs only lower ones.  Only nonzero parts are
    kept, so only products of nonzero parts are made."""
    power = {}  # power[k, d] = [P_k]_d; P_0 = x
    for d in range(1, order + 1):
        parts = [b[d]] if d in b else []
        for k in range(1, d):
            terms = [product(power[0, d1], power[k - 1, d - d1]) for d1 in range(1, d)
                     if (0, d1) in power and (k - 1, d - d1) in power]
            if terms and not (p := sum(terms[1:], terms[0])).is_zero():
                power[k, d] = p
                parts.append(p * Fraction(-1, factorial(k + 1)))
        if parts and not (x := sum(parts[1:], parts[0])).is_zero():
            power[0, d] = x
    return {d: v for (k, d), v in power.items() if not k}


def _flow(a: GradedPreLieElement, start: GradedPreLieElement, first: int) -> GradedPreLieElement:
    """start + t_first + t_{first+1} + ..., where t_{first-1} = start and
    t_k = a|>t_{k-1} / k; stops at the first zero term or at the order."""
    out = term = start
    for k in range(first, a.order + 1):
        term = a.prod(term).scale(Fraction(1, k))
        if term.is_zero():
            break
        out = out + term
    return out


def exp_flow(a: GradedPreLieElement, b: GradedPreLieElement) -> GradedPreLieElement:
    """e^{L_a}(b) = b + a|>b + a|>(a|>b)/2! + ...; finite by truncation."""
    a._check(b)
    return _flow(a, b, 1)


def w_map(a: GradedPreLieElement) -> GradedPreLieElement:
    """The flow W(a) = a + a|>a/2! + a|>(a|>a)/3! + ..., right-nested."""
    return _flow(a, a, 2)


def omega_map(b: GradedPreLieElement) -> GradedPreLieElement:
    """The compositional inverse of w_map, solved degree by degree: by
    `_omega_pass` when `b`'s components are exact (its `max_abs` is no float),
    else by the reference sweeps x <- b - (W(x) - x), each settling one more
    degree, whose rounding the float reports' bits follow."""
    if not isinstance(b.max_abs(), float):
        return b._with(_omega_pass(b.components, b.product, b.order))
    x = b
    for _ in range(b.order):
        x = b - (w_map(x) - x)
    return x


@cache
def _bch_words(depth: int) -> tuple:
    """log(exp(x)exp(y)) through degree `depth`, as its Lie-series terms.

    One (letter names, coefficient / word length) pair per word, in the
    order the free algebra lists them, degree by degree.
    """
    one = FreeElement.one()
    ex = AlphaSeries.from_parts(depth, {1: FreeElement.gen("x")}, like=one).exp()
    ey = AlphaSeries.from_parts(depth, {1: FreeElement.gen("y")}, like=one).exp()
    logs = (ex * ey).log()
    return tuple(
        (names, coeff * Fraction(1, len(names)))
        for k in range(1, depth + 1)
        for names, coeff in logs.coeff(k).named_words()
    )


def bch(a: GradedPreLieElement, b: GradedPreLieElement) -> GradedPreLieElement:
    """BCH composition C(a, b) in the Lie algebra induced by the carrier.

    log(exp(x)exp(y)) is expanded in the free associative algebra; each
    word is a Lie-series term, so the left-nested bracketing scaled by
    1/length projects it to brackets, which are then evaluated on a, b.
    """
    a._check(b)
    letters = {"x": a, "y": b}
    # Left-nested brackets keyed by their letter names, so words that share a
    # prefix (xyx and xyy both start [x, y]) bracket it once.
    brackets = {}
    out = a.zero()
    for names, scale in _bch_words(a.order):
        acc = letters[names[0]]
        for end in range(2, len(names) + 1):
            prefix = names[:end]
            nested = brackets.get(prefix)
            if nested is None:
                nested = brackets[prefix] = acc.bracket(letters[names[end - 1]])
            acc = nested
        out = out + acc.scale(scale)
    return out


def _brace_with(a, omega_a, b) -> GradedPreLieElement:
    """a o b given omega_a = Omega(a), so one left factor's flow serves many products."""
    a._check(b)
    return a + exp_flow(omega_a, b)


def brace_mul(a: GradedPreLieElement, b: GradedPreLieElement) -> GradedPreLieElement:
    """The brace product a o b = a + e^{L_Omega(a)}(b)."""
    return _brace_with(a, omega_map(a), b)


def left_brace_residual(a, b, c) -> GradedPreLieElement:
    """a o (b+c) + a - a o b - a o c; zero in a left brace."""
    oa = omega_map(a)
    return _brace_with(a, oa, b + c) + a - _brace_with(a, oa, b) - _brace_with(a, oa, c)


def circle_assoc_residual(a, b, c) -> GradedPreLieElement:
    """(a o b) o c - a o (b o c); zero since the flows form a group."""
    oa = omega_map(a)
    return brace_mul(_brace_with(a, oa, b), c) - _brace_with(a, oa, brace_mul(b, c))


def flow_composition_residual(a, b) -> GradedPreLieElement:
    """W(a) o W(b) - W(C(a, b)); zero by the BCH composition law."""
    return brace_mul(w_map(a), w_map(b)) - w_map(bch(a, b))
