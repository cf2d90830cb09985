"""Deterministic case generation for the verification suites.

All pseudo-randomness flows through one fixed, documented algorithm:
CPython's Mersenne Twister as exposed by `random.Random`, drawn only
through `randint`.  A 64-bit seed therefore reproduces every sampled
case bit-for-bit on any platform.

Streams are hierarchical: `split(label)` derives an independent child
stream whose seed is a SHA-256 digest of the parent seed and the label.
Suites draw each check from its own labeled stream, so adding or
reordering one check never shifts the samples of another.

A source also carries the suite's backend, and this is the one place that
decides it: on the float backend `matrix`, `invertible_matrix`, `sequence`,
`site_stack`, `matrix_family` and `poly` draw the exact value from the same
stream and return it converted to float (a family's template `like` too),
and `cast` converts the few operators a suite builds instead of draws.  An
exact matrix is its draws row by row, built by `Matrix.from_ints`.  Scalars
drawn as parameters (`integer`, `fraction`, `nonzero_fraction`) and
free-letter coefficients stay exact.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .errors import AlgebraError, SingularOperator
from .expansion import FORWARD, SiteOperatorFamily
from .freealg import FreeElement
from .matrix import Matrix
from .ops import to_float
from .poly import Poly
from .report import EXACT, FLOAT
from .rotabaxter import SiteSequence


class SampleSource:
    """Seeded draw stream with labeled, order-independent substreams.

    The seed is an int in 0..2**64-1 and `backend` exact or float; anything
    else raises AlgebraError.  The backend is passed on to every child stream.
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

    def integer(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def fraction(self, bound: int = 3) -> Fraction:
        return Fraction(self.integer(-bound, bound))

    def nonzero_fraction(self, bound: int = 3) -> Fraction:
        while True:
            f = self.fraction(bound)
            if f:
                return f

    def _exact_matrix(self, rows: int, cols: int, bound: int) -> Matrix:
        # The draws of `fraction(bound)` row by row, kept as ints over den = 1;
        # `randint` is bound once per matrix, a Python frame less per entry.
        draw = self._rng.randint
        return Matrix.from_ints([draw(-bound, bound) for _ in range(rows * cols)], rows, cols)

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
        return SiteSequence([self.matrix(size) for _ in range(n_sites)])

    def site_stack(self, n_sites: int, size: int = 2) -> Matrix:
        """`sequence(n_sites, size)` as one site stack, the sites' matrices on
        top of each other: the same draws in the same order, since both are
        row by row."""
        return self.cast(self._exact_matrix(n_sites * size, size, 3))

    def free_sequence(self, n_sites: int, tag: str) -> SiteSequence:
        """Per site, a random combination of two letters named after the tag.

        Exact on both backends: free letters take only rational coefficients.
        """
        values = []
        for n in range(1, n_sites + 1):
            v = FreeElement.gen(f"{tag}1", site=n) * self.fraction()
            v = v + FreeElement.gen(f"{tag}2", site=n) * self.fraction()
            values.append(v)
        return SiteSequence(values)

    def matrix_family(self, n_sites: int, degrees=(1,), size: int = 2,
                      bound: int = 3, direction=FORWARD) -> SiteOperatorFamily:
        entries = {(n, d): self.matrix(size, bound) for n in range(1, n_sites + 1) for d in degrees}
        like = self.cast(Matrix.identity(size))
        return SiteOperatorFamily(n_sites, entries, direction=direction, like=like)

    def poly(self, degree: int) -> Poly:
        return Poly({(d,): self.cast(self.fraction()) for d in range(degree + 1)})

    def subset(self, items) -> tuple:
        """Nonempty subset, drawn element by element."""
        items = tuple(items)
        while True:
            chosen = tuple(x for x in items if self.integer(0, 1))
            if chosen:
                return chosen
