"""Dense matrices over exact rationals (or floats) plus tensor-leg utilities.

A matrix is stored as rows `num` over one denominator `den`.  An exact
matrix (every entry an int or a Fraction) holds integer numerators over a
positive `den`, reduced so that `gcd(den, *num) == 1`; that form is unique,
so equality is a comparison of integers, and every operation runs on plain
ints with one gcd reduction per result.  `data` gives the entries back: ints
when `den == 1`, otherwise a Fraction each.  A float matrix holds Python
floats only and has `den = None`.  An exact operand (a matrix, or an int or
Fraction scalar) that meets a float one is rounded once, entry by entry,
with `x / den`, which rounds correctly as `float(Fraction)` does.  So every
operation has one body for both backends; `den` only decides whether the
result is reduced.  Products skip zero entries, which keeps the many
permutation-shaped operators in the tensor-product checks cheap without a
sparse type.

Tensor convention used everywhere: a state of `total` factors, each of local
dimension `dim`, is indexed lexicographically with slot 0 slowest. Slot 0 is
the auxiliary space wherever one exists, so auxiliary blocks of a matrix are
literal row/column blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import gcd, lcm

from .errors import DimensionMismatch, SingularOperator

# The scalar operator types; `ops` re-exports this tuple for the rest of the package.
SCALARS = (int, Fraction, float)


class Matrix:
    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data):
        data = tuple(tuple(row) for row in data)
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise DimensionMismatch("ragged rows")
        self.rows = len(data)
        self.cols = w
        try:
            if any(isinstance(x, float) for row in data for x in row):
                self.num = [[x if isinstance(x, float) else x.numerator / x.denominator for x in row]
                            for row in data]
                self.den = None
                return
            den = lcm(*(x.denominator for row in data for x in row))
        except AttributeError:
            raise TypeError("matrix entries must be int, Fraction or float") from None
        # Reduced fractions over the lcm of their denominators share no factor with it.
        self.num = [[x.numerator * (den // x.denominator) for x in row] for row in data]
        self.den = den

    @property
    def data(self) -> tuple:
        """The entries, row by row: floats, ints when `den == 1`, otherwise Fractions."""
        den = self.den
        if den is None or den == 1:
            return tuple(map(tuple, self.num))
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _wrap([[1 if i == j else 0 for j in range(n)] for i in range(n)], 1)

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return _wrap([[0] * cols for _ in range(rows)], 1)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_exact(self) -> bool:
        return self.den is not None

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.den is None) == (other.den is None):
            return self.den == other.den and self.num == other.num
        # An exact and a float matrix compare by value, as Fraction and float do.
        return self.data == other.data

    def __hash__(self):
        # Hashing the entries keeps equal exact and float matrices hashing alike.
        return hash((self.rows, self.cols, self.data))

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        na, nb, den = _common(self, other)
        return _reduced([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(na, nb)], den)

    def __sub__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        na, nb, den = _common(self, other)
        return _reduced([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(na, nb)], den)

    def __neg__(self) -> "Matrix":
        return _wrap([[-a for a in row] for row in self.num], self.den)

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, SCALARS):
            den = self.den
            if den is None or isinstance(other, float):
                s = float(other)
                return _wrap([[a * s for a in row] for row in self.to_float().num], None)
            if isinstance(other, int):
                # gcd(den, *num) == 1, so gcd(den, other) is all that cancels.
                g = gcd(den, other)
                f = other // g
                return _wrap([[a * f for a in row] for row in self.num], den // g)
            p = other.numerator
            return _reduced([[a * p for a in row] for row in self.num], den * other.denominator)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        if self.den is None or other.den is None:
            adata, bdata, den, zero = self.to_float().num, other.to_float().num, None, 0.0
        else:
            adata, bdata, den, zero = self.num, other.num, self.den * other.den, 0
        cols = other.cols
        out = []
        for arow in adata:
            orow = [zero] * cols
            for aik, brow in zip(arow, bdata):
                if aik:
                    for j, bkj in enumerate(brow):
                        if bkj:
                            orow[j] += aik * bkj
            out.append(orow)
        return _reduced(out, den)

    def __rmul__(self, other) -> "Matrix":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def kron(self, other: "Matrix") -> "Matrix":
        if self.den is None or other.den is None:
            adata, bdata, den = self.to_float().num, other.to_float().num, None
        else:
            adata, bdata, den = self.num, other.num, self.den * other.den
        return _reduced([[a * b for a in ra for b in rb] for ra in adata for rb in bdata], den)

    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse with a largest-magnitude pivot; exact when the
        matrix is (the exact inverse is unique, so the pivot cannot change it)."""
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        entry = float if self.den is None else Fraction
        aug = [[entry(x) for x in row] + [entry(i == j) for j in range(n)]
               for i, row in enumerate(self.data)]
        for col in range(n):
            pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
            if not aug[pivot][col]:
                raise SingularOperator("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            pv = aug[col][col]
            aug[col] = [x / pv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Matrix([row[n:] for row in aug])

    def max_abs(self):
        """Largest absolute entry; a Fraction whenever the matrix is exact."""
        m = max(abs(x) for row in self.num for x in row)
        return m if self.den is None else Fraction(m, self.den)

    def to_float(self) -> "Matrix":
        den = self.den
        if den is None:
            return self
        # int true division rounds correctly, as float(Fraction) does.
        return _wrap([[x / den for x in row] for row in self.num], None)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self})"


def _wrap(num: list, den) -> Matrix:
    """A matrix over rows it takes as they are: reduced integer numerators
    over `den`, or, when `den` is None, floats."""
    m = object.__new__(Matrix)
    m.rows = len(num)
    m.cols = len(num[0])
    m.num = num
    m.den = den
    return m


def _reduced(num: list, den) -> Matrix:
    """A matrix from integer rows over a positive denominator, reduced by
    their gcd, or from float rows when `den` is None."""
    if den is not None and den != 1:
        g = den
        for row in num:
            g = gcd(g, *row)
            if g == 1:
                break
        if g != 1:
            num = [[x // g for x in row] for row in num]
            den //= g
    return _wrap(num, den)


def _common(a: Matrix, b: Matrix) -> tuple:
    """The rows of two matrices over one denominator: integer numerators over
    their least common denominator, or floats over None when either is float."""
    da, db = a.den, b.den
    if da is None or db is None:
        return a.to_float().num, b.to_float().num, None
    if da == db:
        return a.num, b.num, da
    g = gcd(da, db)
    fa, fb = db // g, da // g
    na = a.num if fa == 1 else [[x * fa for x in row] for row in a.num]
    nb = b.num if fb == 1 else [[x * fb for x in row] for row in b.num]
    return na, nb, da * fa


def commutator(a, b):
    """[a, b] = ab - ba, for operators of any backend."""
    return a * b - b * a


def kron_embed(op: Matrix, slots: tuple[int, ...], total: int, dim: int) -> Matrix:
    """Embed `op` (acting on the listed slots, in that order) into `total` factors.

    Slots are 0-based and distinct; the returned matrix acts on dim**total with
    slot 0 slowest. Factors outside `slots` carry the identity.
    """
    slots = tuple(slots)
    k = len(slots)
    if len(set(slots)) != k or any(s < 0 or s >= total for s in slots):
        raise DimensionMismatch(f"bad slot list {slots} for {total} factors")
    if op.rows != dim ** k or op.cols != dim ** k:
        raise DimensionMismatch(f"operator is {op.rows}x{op.cols}, expected {dim ** k} for {k} slots")
    size = dim ** total
    others = [s for s in range(total) if s not in slots]
    # weight of each slot position in the global index
    weight = [dim ** (total - 1 - s) for s in range(total)]

    def local_digits(idx: int) -> list[int]:
        out = []
        for t in range(k - 1, -1, -1):
            out.append((idx // dim ** t) % dim)
        return out  # slowest first, aligned with `slots`

    zero = 0.0 if op.den is None else 0
    out = [[zero] * size for _ in range(size)]
    rest_count = len(others)
    for i in range(op.rows):
        idig = local_digits(i)
        row = op.num[i]
        for j in range(op.cols):
            v = row[j]
            if not v:
                continue
            jdig = local_digits(j)
            base_r = sum(d * weight[s] for d, s in zip(idig, slots))
            base_c = sum(d * weight[s] for d, s in zip(jdig, slots))
            for rest in iproduct(range(dim), repeat=rest_count):
                off = sum(d * weight[s] for d, s in zip(rest, others))
                out[base_r + off][base_c + off] = v
    # The same nonzero numerators over the same denominator: still reduced.
    return _wrap(out, op.den)


def permutation_op(dim: int) -> Matrix:
    """The flip on C^dim tensor C^dim: P(u x v) = v x u."""
    n = dim * dim
    out = [[0] * n for _ in range(n)]
    for a in range(dim):
        for b in range(dim):
            out[a * dim + b][b * dim + a] = 1
    return _wrap(out, 1)


def partial_trace_first(m: Matrix, dim: int) -> Matrix:
    """Trace out the slowest (slot-0) factor of size `dim`."""
    if m.rows != m.cols or m.rows % dim:
        raise DimensionMismatch("matrix size not divisible by the traced dimension")
    b = m.rows // dim
    zero = 0.0 if m.den is None else 0
    out = [[zero] * b for _ in range(b)]
    for i in range(dim):
        for r in range(b):
            mr = m.num[i * b + r]
            orow = out[r]
            for c in range(b):
                v = mr[i * b + c]
                if v:
                    orow[c] = orow[c] + v
    return _reduced(out, m.den)


def aux_block(m: Matrix, a: int, b: int, dim: int) -> Matrix:
    """The (a, b) block with respect to the slot-0 factor of size `dim`."""
    if m.rows != m.cols or m.rows % dim:
        raise DimensionMismatch("matrix size not divisible by the block dimension")
    s = m.rows // dim
    return _reduced([row[b * s:(b + 1) * s] for row in m.num[a * s:(a + 1) * s]], m.den)
