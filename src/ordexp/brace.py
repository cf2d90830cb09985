"""Pre-Lie flows, the brace product, and BCH composition.

Degree truncation makes the carrier a nilpotent pre-Lie algebra, so the
exponential flow W(a) = a + a|>a/2! + a|>(a|>a)/3! + ... is a bijection.
Its inverse Omega and the product a o b = a + e^{L_Omega(a)}(b) give a
left brace on the same underlying addition. The BCH composition C(a, b)
with W(a) o W(b) = W(C(a, b)) is read off from log(exp exp) in the free
associative algebra and reduced to nested brackets, so no BCH coefficient
is ever hand-coded.

Nothing is computed twice: each brace residual computes Omega(a) once for
its left factor a, the BCH word table is built once per truncation depth
and then only read, and `bch` brackets each left-nested word prefix once,
so a word xyx reuses [x, y].  The pre-Lie product itself is the callable
the elements carry, and a component value may be anything with addition,
subtraction, negation, scalar multiples and a zero test.  The brace suite
stores each degree as one site stack (the sites' matrices on top of each
other, one `Matrix`), so each of those is one matrix operation, and its
product is `rotabaxter.stack_prelie_left`, one fused kernel call over all
sites.  It gives the elements of one case (one flow-inverse element, one
left-law triple, one flow-composition draw) one product memoized on its
operands' values, so each distinct product is made once per case, and the
memo is freed with the case's elements.  A difference subtracts component
by component, and a degree only the subtrahend has enters as its negation,
so no intermediate negated element is built; in IEEE arithmetic x - y is
x + (-y), so it rounds as adding the negation does.
"""

from fractions import Fraction
from functools import cache

from .errors import BackendMismatch, DimensionMismatch
from .freealg import FreeElement
from .ops import worst
from .series import AlphaSeries


class GradedPreLieElement:
    """Element of a pre-Lie algebra graded by degrees 1..order.

    Components beyond the truncation order are discarded. The pre-Lie
    product is a bilinear callable on component values; component values
    only need addition, subtraction, negation, scalar multiples, and is_zero.
    `like` is a template component value (the first component when
    omitted); its multiple by zero stands in for missing degrees.
    """

    __slots__ = ("order", "product", "components", "like")

    def __init__(self, order, components, product, like=None):
        if order < 1:
            raise DimensionMismatch("truncation order must be at least 1")
        clean = {}
        for d, v in components.items():
            if d < 1:
                raise DimensionMismatch("pre-Lie components start at degree 1")
            if d <= order and not v.is_zero():
                clean[d] = v
        if like is None:
            if not clean:
                raise DimensionMismatch("an all-zero element needs a like value")
            like = next(iter(clean.values()))
        self.order = order
        self.product = product
        self.components = clean
        self.like = like

    def zero(self) -> "GradedPreLieElement":
        return GradedPreLieElement(self.order, {}, self.product, like=self.like)

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
        return GradedPreLieElement(self.order, out, self.product, like=self.like)

    def __sub__(self, other) -> "GradedPreLieElement":
        self._check(other)
        out = dict(self.components)
        for d, v in other.components.items():
            out[d] = out[d] - v if d in out else -v
        return GradedPreLieElement(self.order, out, self.product, like=self.like)

    def __neg__(self) -> "GradedPreLieElement":
        return GradedPreLieElement(
            self.order, {d: -v for d, v in self.components.items()}, self.product, like=self.like
        )

    def scale(self, s) -> "GradedPreLieElement":
        return GradedPreLieElement(
            self.order,
            {d: v * s for d, v in self.components.items()},
            self.product,
            like=self.like,
        )

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
        return GradedPreLieElement(self.order, out, self.product, like=self.like)

    def bracket(self, other) -> "GradedPreLieElement":
        """[a, b] = a|>b - b|>a, the Lie bracket induced on the carrier."""
        return self.prod(other) - other.prod(self)

    def __repr__(self) -> str:
        degs = ",".join(str(d) for d in sorted(self.components))
        return f"GradedPreLieElement(order={self.order}, degrees=[{degs}])"


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
    """The compositional inverse of w_map, solved degree by degree.

    Each fixed-point sweep x <- b - (W(x) - x) settles one more degree,
    since the degree-d part of W(x) - x only involves lower degrees of x.
    """
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
        (tuple(letter.name for letter in word), coeff * Fraction(1, len(word)))
        for k in range(1, depth + 1)
        for word, coeff in logs.coeff(k).terms.items()
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
