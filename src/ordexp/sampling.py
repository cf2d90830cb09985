"""Deterministic case generation for the verification suites.

All pseudo-randomness flows through one fixed, documented algorithm:
CPython's Mersenne Twister as exposed by `random.Random`.  Every draw is
exactly the integers `randint` would return, leaving the stream in the state
`randint` would leave it: `SampleSource._ints` draws many at once with
`randint`'s own rule (k-bit words from `getrandbits`, k the bit length of the
range's width, a word at or above the width rejected), and
`tests/test_sampling.py` pins it to a per-entry `randint` reference.  A 64-bit
seed therefore reproduces every sampled case bit-for-bit on any platform.

Streams are hierarchical: `split(label)` derives an independent child
stream whose seed is a SHA-256 digest of the parent seed and the label.
Suites draw each check from its own labeled stream, so adding or
reordering one check never shifts the samples of another.

A source also carries the suite's backend, and this is the one place that
decides it: on the float backend `matrix`, `invertible_matrix`, `sequence`,
`site_stack`, `matrix_family` and `poly` draw the exact value from the same
stream and return it converted to float (a family's template `like` too),
and `cast` converts the few operators a suite builds instead of draws.  An
exact matrix is its draws row by row, built by `Matrix.from_ints`; a
sequence, a site stack or a family is drawn in one `_ints` call and cut
into its matrices in draw order.  Scalars
drawn as parameters (`integer`, `fraction`, `nonzero_fraction`) and
free-letter coefficients stay exact.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import repeat

from .errors import AlgebraError, SingularOperator
from .expansion import FORWARD, SiteOperatorFamily
from .freealg import FreeElement
from .matrix import Matrix
from .ops import to_float
from .poly import Poly
from .report import EXACT, FLOAT
from .rotabaxter import SiteSequence


def _bound(bound) -> int:
    """`bound` itself when it is a plain int, a bool not included; otherwise
    AlgebraError.  Every bound a draw takes is checked here, before a word
    is drawn."""
    if type(bound) is not int:
        raise AlgebraError(f"a draw bound is a plain int, got {bound!r}")
    return bound


class SampleSource:
    """Seeded draw stream with labeled, order-independent substreams.

    The seed is an int in 0..2**64-1 and `backend` exact or float; anything
    else raises AlgebraError, as does a draw bound that is not a plain int
    (`_bound`).  The backend is passed on to every child stream.
    """

    __slots__ = ("seed", "backend", "_rng")

    def __init__(self, seed: int, backend: str = EXACT):
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise AlgebraError(f"seed must be an integer in 0..2**64-1, got {seed!r}")
        if backend not in (EXACT, FLOAT):
            raise AlgebraError(f"backend must be {EXACT} or {FLOAT}, got {backend!r}")
        self.seed = seed
        self.backend = backend
        self._rng = random.Random(self.seed)

    def split(self, label: str) -> "SampleSource":
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return SampleSource(int.from_bytes(digest[:8], "big"), self.backend)

    def cast(self, x):
        """`x` in this source's backend: converted to float on the float backend."""
        return to_float(x) if self.backend == FLOAT else x

    def _ints(self, count: int, low: int, high: int) -> list:
        """`[randint(low, high) for _ in range(count)]`, with the stream left
        as those calls leave it.  `randint` draws k-bit words, k the bit
        length of the width n, until one is below n; so draw as many words as
        entries are still missing, keep those below n in order, and repeat
        for the shortfall: never a word `randint` would not draw."""
        n = high - low + 1
        if n <= 0 < count:
            raise ValueError(f"empty range for randrange() ({low}, {high + 1}, {n})")
        k = n.bit_length()
        bits = self._rng.getrandbits
        out = []
        while len(out) < count:
            out += [w + low for w in map(bits, repeat(k, count - len(out))) if w < n]
        return out

    def _signed(self, count: int, bound: int) -> list:
        """`_ints(count, -bound, bound)`, the bound checked before it is negated."""
        bound = _bound(bound)
        return self._ints(count, -bound, bound)

    def _matrices(self, count: int, size: int, bound: int) -> list:
        """`count` exact `size` x `size` matrices of entries in -bound..bound,
        drawn in one call and cut in draw order, each row by row."""
        step = size * size
        values = self._signed(count * step, bound)
        return [Matrix.from_ints(values[i * step:(i + 1) * step], size, size)
                for i in range(count)]

    def integer(self, low: int, high: int) -> int:
        return self._ints(1, _bound(low), _bound(high))[0]

    def fraction(self, bound: int = 3) -> Fraction:
        return Fraction(self._signed(1, bound)[0])

    def nonzero_fraction(self, bound: int = 3) -> Fraction:
        """A nonzero draw of `fraction(bound)`, for a `bound` of at least 1."""
        if _bound(bound) < 1:
            raise AlgebraError(f"a nonzero draw needs a bound of at least 1, got {bound!r}")
        while True:
            f = self.fraction(bound)
            if f:
                return f

    def _exact_matrix(self, rows: int, cols: int, bound: int) -> Matrix:
        # The draws of `fraction(bound)` row by row, kept as ints over den = 1.
        return Matrix.from_ints(self._signed(rows * cols, bound), rows, cols)

    def matrix(self, size: int = 2, bound: int = 3) -> Matrix:
        return self.cast(self._exact_matrix(size, size, bound))

    def invertible_matrix(self, size: int = 2, bound: int = 3) -> Matrix:
        # Rejection sampling; random integer matrices are rarely singular.
        # The test runs on the exact draw, so both backends reject alike.
        while True:
            m = self._exact_matrix(size, size, bound)
            try:
                m.inverse()
            except SingularOperator:
                continue
            return self.cast(m)

    def sequence(self, n_sites: int, size: int = 2) -> SiteSequence:
        """`n_sites` draws of `matrix(size)`, in one call."""
        return SiteSequence([self.cast(m) for m in self._matrices(n_sites, size, 3)])

    def site_stack(self, n_sites: int, size: int = 2) -> Matrix:
        """`sequence(n_sites, size)` as one site stack, the sites' matrices on
        top of each other: the same draws in the same order, since both are
        row by row."""
        return self.cast(self._exact_matrix(n_sites * size, size, 3))

    def free_sequence(self, n_sites: int, tag: str) -> SiteSequence:
        """Per site, a random combination of two letters named after the tag.

        Exact on both backends: free letters take only rational coefficients.
        """
        coeffs = self._ints(2 * n_sites, -3, 3)
        values = []
        for n in range(1, n_sites + 1):
            v = FreeElement.gen(f"{tag}1", site=n) * Fraction(coeffs[2 * n - 2])
            v = v + FreeElement.gen(f"{tag}2", site=n) * Fraction(coeffs[2 * n - 1])
            values.append(v)
        return SiteSequence(values)

    def matrix_family(self, n_sites: int, degrees=(1,), size: int = 2,
                      bound: int = 3, direction=FORWARD) -> SiteOperatorFamily:
        """Per site and degree, site-major, a draw of `matrix(size, bound)`;
        a repeated degree keeps its last draw.  The arguments are refused
        as `SiteOperatorFamily` and `Matrix.identity` refuse them."""
        SiteOperatorFamily._check(n_sites, degrees, direction)
        like = self.cast(Matrix.identity(size))
        keys = [(n, d) for n in range(1, n_sites + 1) for d in degrees]
        entries = dict(zip(keys, map(self.cast, self._matrices(len(keys), size, bound))))
        return SiteOperatorFamily._trusted(n_sites, entries, direction, like)

    def poly(self, degree: int) -> Poly:
        return Poly({(d,): self.cast(Fraction(v)) for d, v in enumerate(self._ints(degree + 1, -3, 3))})

    def subset(self, items) -> tuple:
        """Nonempty subset of `items`, which hold at least one, drawn element by element."""
        items = tuple(items)
        if not items:
            raise AlgebraError("a nonempty subset needs at least one item")
        while True:
            chosen = tuple(x for x, keep in zip(items, self._ints(len(items), 0, 1)) if keep)
            if chosen:
                return chosen
