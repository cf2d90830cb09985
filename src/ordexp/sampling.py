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
`matrix_family` and `poly` draw the exact value from the same stream and
return it converted to float, and `cast` converts the few operators a suite
builds instead of draws.  Scalars drawn as parameters (`integer`,
`fraction`, `nonzero_fraction`) and free-letter coefficients stay exact.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .errors import SingularOperator
from .expansion import FORWARD, SiteOperatorFamily
from .freealg import FreeElement
from .matrix import Matrix
from .ops import to_float
from .poly import Poly
from .report import EXACT, FLOAT
from .rotabaxter import SiteSequence

MASK64 = 2**64 - 1


class SampleSource:
    """Seeded draw stream with labeled, order-independent substreams.

    `backend` (exact or float) is passed on to every child stream.
    """

    __slots__ = ("seed", "backend", "_rng")

    def __init__(self, seed: int, backend: str = EXACT):
        self.seed = int(seed) & MASK64
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

    def _exact_matrix(self, size: int, bound: int) -> Matrix:
        return Matrix(
            [
                [self.fraction(bound) for _ in range(size)]
                for _ in range(size)
            ]
        )

    def matrix(self, size: int = 2, bound: int = 3) -> Matrix:
        return self.cast(self._exact_matrix(size, bound))

    def invertible_matrix(self, size: int = 2, bound: int = 3) -> Matrix:
        # Rejection sampling; random integer matrices are rarely singular.
        # The test runs on the exact draw, so both backends reject alike.
        while True:
            m = self._exact_matrix(size, bound)
            try:
                m.inverse()
            except SingularOperator:
                continue
            return self.cast(m)

    def sequence(self, n_sites: int, size: int = 2, bound: int = 3) -> SiteSequence:
        return SiteSequence([self.matrix(size, bound) for _ in range(n_sites)])

    def free_sequence(self, n_sites: int, tag: str, bound: int = 3) -> SiteSequence:
        """Per site, a random combination of two letters named after the tag.

        Exact on both backends: free letters take only rational coefficients.
        """
        values = []
        for n in range(1, n_sites + 1):
            v = FreeElement.gen(f"{tag}1", site=n) * self.fraction(bound)
            v = v + FreeElement.gen(f"{tag}2", site=n) * self.fraction(bound)
            values.append(v)
        return SiteSequence(values)

    def matrix_family(self, n_sites: int, degrees=(1,), size: int = 2,
                      bound: int = 3, direction=FORWARD) -> SiteOperatorFamily:
        entries = {
            (n, d): self.matrix(size, bound)
            for n in range(1, n_sites + 1)
            for d in degrees
        }
        return SiteOperatorFamily(
            n_sites, entries, direction=direction, like=Matrix.identity(size)
        )

    def poly(self, degree: int = 3, bound: int = 3) -> Poly:
        return Poly({(d,): self.cast(self.fraction(bound)) for d in range(degree + 1)})

    def subset(self, items) -> tuple:
        """Nonempty subset, drawn element by element."""
        items = tuple(items)
        while True:
            chosen = tuple(x for x in items if self.integer(0, 1))
            if chosen:
                return chosen
