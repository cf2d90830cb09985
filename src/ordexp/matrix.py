"""Dense matrices over exact rationals (or floats) plus tensor-leg utilities.

Entries stay whatever numeric type they were given (int, Fraction, float); int
and Fraction mix exactly, and any float entry marks the matrix as inexact.
Products skip zero entries, which keeps the many permutation-shaped operators
in the tensor-product checks cheap without a sparse type.

Tensor convention used everywhere: a state of `total` factors, each of local
dimension `dim`, is indexed lexicographically with slot 0 slowest. Slot 0 is
the auxiliary space wherever one exists, so auxiliary blocks of a matrix are
literal row/column blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from .errors import DimensionMismatch, SingularOperator

# The scalar operator types; `ops` re-exports this tuple for the rest of the package.
SCALARS = (int, Fraction, float)


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(row) for row in data)
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise DimensionMismatch("ragged rows")
        self.rows = len(data)
        self.cols = w
        self.data = data

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return Matrix([[0] * cols for _ in range(rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_exact(self) -> bool:
        return not any(isinstance(x, float) for row in self.data for x in row)

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and all(
            a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.data])

    def __mul__(self, other) -> "Matrix":
        if isinstance(other, SCALARS):
            return Matrix([[a * other for a in row] for row in self.data])
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        bdata = other.data
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, aik in enumerate(arow):
                if not aik:
                    continue
                brow = bdata[k]
                for j, bkj in enumerate(brow):
                    if bkj:
                        orow[j] = orow[j] + aik * bkj
        return Matrix(out)

    def __rmul__(self, other) -> "Matrix":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def trace(self):
        if not self.is_square():
            raise DimensionMismatch("trace of a non-square matrix")
        t = 0
        for i in range(self.rows):
            t = t + self.data[i][i]
        return t

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.data)))

    def kron(self, other: "Matrix") -> "Matrix":
        out = []
        for ra in self.data:
            for rb in other.data:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out)

    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse; exact when the entries are exact."""
        if not self.is_square():
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        exact = self.is_exact()
        one = Fraction(1) if exact else 1.0
        zero = Fraction(0) if exact else 0.0
        aug = [[Fraction(x) if exact and not isinstance(x, Fraction) else x for x in row]
               + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.data)]
        for col in range(n):
            pivot = None
            if exact:
                for r in range(col, n):
                    if aug[r][col]:
                        pivot = r
                        break
            else:
                best, bestval = None, 0.0
                for r in range(col, n):
                    v = abs(aug[r][col])
                    if v > bestval:
                        best, bestval = r, v
                pivot = best if bestval > 0.0 else None
            if pivot is None:
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
        return max(abs(x) for row in self.data for x in row)

    def to_float(self) -> "Matrix":
        return Matrix([[float(x) for x in row] for row in self.data])

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self})"


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

    out = [[0] * size for _ in range(size)]
    rest_count = len(others)
    for i in range(op.rows):
        idig = local_digits(i)
        row = op.data[i]
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
    return Matrix(out)


def permutation_op(dim: int) -> Matrix:
    """The flip on C^dim tensor C^dim: P(u x v) = v x u."""
    n = dim * dim
    out = [[0] * n for _ in range(n)]
    for a in range(dim):
        for b in range(dim):
            out[a * dim + b][b * dim + a] = 1
    return Matrix(out)


def partial_trace_first(m: Matrix, dim: int) -> Matrix:
    """Trace out the slowest (slot-0) factor of size `dim`."""
    if m.rows != m.cols or m.rows % dim:
        raise DimensionMismatch("matrix size not divisible by the traced dimension")
    b = m.rows // dim
    out = [[0] * b for _ in range(b)]
    for i in range(dim):
        for r in range(b):
            mr = m.data[i * b + r]
            orow = out[r]
            for c in range(b):
                v = mr[i * b + c]
                if v:
                    orow[c] = orow[c] + v
    return Matrix(out)


def aux_block(m: Matrix, a: int, b: int, dim: int) -> Matrix:
    """The (a, b) block with respect to the slot-0 factor of size `dim`."""
    if m.rows != m.cols or m.rows % dim:
        raise DimensionMismatch("matrix size not divisible by the block dimension")
    s = m.rows // dim
    return Matrix([row[b * s:(b + 1) * s] for row in m.data[a * s:(a + 1) * s]])
