"""Dense matrices over exact rationals or floats, plus tensor-leg utilities.

A matrix is stored as one flat row-major list `num`, with its shape in
`rows`/`cols`, over one denominator `den`.  An exact matrix (every entry an
int or a Fraction) holds integer numerators over a positive `den`, reduced so
that `gcd(den, *num) == 1`; that form is unique, so equality is a comparison
of shapes and integers, and every operation runs on plain ints with one gcd
reduction per result.  `data` gives the entries back row by row: ints when
`den == 1`, otherwise a Fraction each.  A float matrix holds Python floats
only and has `den = None`.  An exact and a float matrix are never equal, and
`+`, `-`, `*`, `kron` and `fused_prelie_site` refuse them with BackendMismatch,
as an exact matrix refuses a float scalar.  So every operation has one body
for both backends; `den` only decides whether the result is reduced.
Products skip zero entries.  A product with a dimension of at least
`SPARSE_FROM` walks both operands by their nonzero entries, row by row,
from a list each matrix makes on first use and keeps (a matrix is
never changed once built); that keeps the many permutation-shaped operators
of the tensor-product checks cheap, and small dense products keep a plain
loop.  `fused_prelie_site` forms (p*q - q*p) + x*y in one pass, without the
intermediate matrices, for one square matrix or for each block of a site
stack: N sites' d x d values on top of each other as one (N*d) x d matrix,
the carrier of the brace suite's elements, on which every sum, scaling and
zero test is one operation for all sites.  The size rule reads one block's
shape.  None of this changes a float result: each product entry still
starts from its backend's zero and adds its nonzero terms in order of the
inner index, and each sum or scaling is still one operation per entry.

Tensor convention used everywhere: a state of `total` factors, each of local
dimension `dim`, is indexed lexicographically with slot 0 slowest. Slot 0 is
the auxiliary space wherever one exists, so auxiliary blocks of a matrix are
literal row/column blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product as iproduct
from math import gcd, lcm
from operator import add, neg, sub

from .errors import BackendMismatch, DimensionMismatch, SingularOperator

# The scalar operator types; `ops` re-exports this tuple for the rest of the package.
SCALARS = (int, Fraction, float)


class Matrix:
    __slots__ = ("rows", "cols", "num", "den", "_nonzeros")

    def __init__(self, data):
        self._nonzeros = None
        data = tuple(tuple(row) for row in data)
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        w = len(data[0])
        if any(len(r) != w for r in data):
            raise DimensionMismatch("ragged rows")
        self.rows = len(data)
        self.cols = w
        flat = [x for row in data for x in row]
        try:
            if any(isinstance(x, float) for x in flat):
                self.num = [x if isinstance(x, float) else x.numerator / x.denominator for x in flat]
                self.den = None
                return
            den = lcm(*(x.denominator for x in flat))
        except AttributeError:
            raise TypeError("matrix entries must be int, Fraction or float") from None
        # Reduced fractions over the lcm of their denominators share no factor with it.
        self.num = [x.numerator * (den // x.denominator) for x in flat]
        self.den = den

    @property
    def data(self) -> tuple:
        """The entries, row by row: floats, ints when `den == 1`, otherwise Fractions."""
        num, den, c = self.num, self.den, self.cols
        if den is not None and den != 1:
            num = [Fraction(x, den) for x in num]
        return tuple(tuple(num[i:i + c]) for i in range(0, len(num), c))

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix.zeros(n)
        m.num[::n + 1] = [1] * n
        return m

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrix needs at least one row and column")
        return _wrap([0] * (rows * cols), rows, cols, 1)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_exact(self) -> bool:
        return self.den is not None

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash(value_key(self))

    def __add__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        na, nb, den = _common(self, other)
        return _reduced(list(map(add, na, nb)), self.rows, self.cols, den)

    def __sub__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        na, nb, den = _common(self, other)
        return _reduced(list(map(sub, na, nb)), self.rows, self.cols, den)

    def __neg__(self) -> "Matrix":
        return _wrap(list(map(neg, self.num)), self.rows, self.cols, self.den)

    def __mul__(self, other) -> "Matrix":
        # Matrix first: `isinstance(x, Fraction)` on anything else is an ABC check.
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
            if (self.den is None) != (other.den is None):
                raise BackendMismatch("an exact and a float matrix")
            if self.den is None:
                return _wrap(_product(self, other, 0.0), self.rows, other.cols, None)
            return _reduced(_product(self, other, 0), self.rows, other.cols, self.den * other.den)
        if not isinstance(other, SCALARS):
            return NotImplemented
        den = self.den
        if den is None:
            s = float(other)
            return _wrap([a * s for a in self.num], self.rows, self.cols, None)
        if isinstance(other, float):
            raise BackendMismatch("an exact matrix times a float")
        if isinstance(other, int):
            # gcd(den, *num) == 1, so gcd(den, other) is all that cancels.
            g = gcd(den, other)
            f = other // g
            return _wrap([a * f for a in self.num], self.rows, self.cols, den // g)
        p = other.numerator
        return _reduced([a * p for a in self.num], self.rows, self.cols, den * other.denominator)

    def __rmul__(self, other) -> "Matrix":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def kron(self, other: "Matrix") -> "Matrix":
        if (self.den is None) != (other.den is None):
            raise BackendMismatch("an exact and a float matrix")
        adata, bdata, ac, bc = self.num, other.num, self.cols, other.cols
        den = None if self.den is None else self.den * other.den
        out = [a * b for i in range(0, len(adata), ac) for k in range(0, len(bdata), bc)
               for a in adata[i:i + ac] for b in bdata[k:k + bc]]
        return _reduced(out, self.rows * other.rows, ac * bc, den)

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
        m = max(map(abs, self.num))
        return m if self.den is None else Fraction(m, self.den)

    def to_float(self) -> "Matrix":
        den = self.den
        if den is None:
            return self
        # int true division rounds correctly, as float(Fraction) does.
        return _wrap([x / den for x in self.num], self.rows, self.cols, None)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self})"


def value_key(m: Matrix) -> tuple:
    """A hashable key of the value `m` stores: its shape, `den` and flat entries.

    Matrices with equal keys are `==`, so a memo keyed by them never merges two
    values (an exact and a float matrix never share one).  Unlike `hash(m)` it
    builds no Fraction.  Float keys compare by `==`, so 0.0 and -0.0 match.
    """
    return (m.rows, m.cols, m.den, *m.num)


def _wrap(num: list, rows: int, cols: int, den) -> Matrix:
    """A `rows` x `cols` matrix over the flat row-major list it takes as it is:
    reduced integer numerators over `den`, or, when `den` is None, floats."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m.num = num
    m.den = den
    m._nonzeros = None
    return m


def _reduced(num: list, rows: int, cols: int, den) -> Matrix:
    """A matrix from flat integer numerators over a positive denominator,
    reduced by their gcd, or from flat floats when `den` is None."""
    if den is not None and den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _wrap(num, rows, cols, den)


def _common(a: Matrix, b: Matrix) -> tuple:
    """The flat entries of two same-shape matrices of one backend over one
    denominator: integer numerators over their least common denominator, or
    floats over None."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(f"{a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    da, db = a.den, b.den
    if (da is None) != (db is None):
        raise BackendMismatch("an exact and a float matrix")
    if da == db:
        return a.num, b.num, da
    g = gcd(da, db)
    fa, fb = db // g, da // g
    na = a.num if fa == 1 else [x * fa for x in a.num]
    nb = b.num if fb == 1 else [x * fb for x in b.num]
    return na, nb, da * fa


# A product with a dimension of at least this walks both operands by their
# nonzero rows; smaller ones, such as the dense 2x2-4x4 chains of `expand`,
# keep the plain loop.  On random operands at 10-100 % fill whose rows were
# built for their one product, on a 2-vCPU x86-64 machine, the row walk took
# 0.80-1.01 of the plain loop's time at 8x8 but up to 1.19 at 6x6 and 1.51 at
# 4x4; rows reused by later products make it cheaper still.
SPARSE_FROM = 8


def _nonzero_rows(m: Matrix) -> list:
    """The `(column, value)` pairs of each row's nonzero entries, made on the
    first call and kept on `m`: a matrix is never changed once built."""
    rows = m._nonzeros
    if rows is None:
        c, num = m.cols, m.num
        rows = m._nonzeros = [[] for _ in range(m.rows)]
        # `compress` finds the nonzero entries (0.0 and -0.0 are zero) in C.
        for idx in compress(range(len(num)), num):
            i, j = divmod(idx, c)
            rows[i].append((j, num[idx]))
    return rows


def _product(a: Matrix, b: Matrix, zero) -> list:
    """The flat entries of `a * b` before any reduction, for two matrices of
    one backend: integer numerators over `a.den * b.den`, or floats.

    `b` is read as N = `b.rows // a.cols` blocks of `a.cols` rows stacked on
    top of each other, and `a` as N blocks of `a.rows // N` rows; block n of
    the result is a_n b_n.  N = 1, the ordinary product, is every call but
    `fused_prelie_site` on a stack.  Each entry starts from `zero` and adds
    the products of its nonzero terms in order of the inner index.  The size
    rule reads one block's shape, so a stack of small blocks keeps the plain
    loop however many sites it stacks.
    """
    n, cols = a.cols, b.cols
    m = a.rows * n // b.rows  # rows of one block of `a`
    out = [zero] * (a.rows * cols)
    o = 0  # flat offset of output row i
    if n >= SPARSE_FROM or cols >= SPARSE_FROM or m >= SPARSE_FROM:
        arows, brows = _nonzero_rows(a), _nonzero_rows(b)
        r = 0  # first row of the block of `a`
        for t in range(0, b.rows, n):  # first row of its block of `b`
            bblock = brows[t:t + n]
            for arow in arows[r:r + m]:
                for k, aik in arow:
                    for j, bkj in bblock[k]:
                        out[o + j] += aik * bkj
                o += cols
            r += m
        return out
    adata, bdata = a.num, b.num
    base = 0  # flat offset of the block of `b` that row i of `a` meets
    end = step = m * n  # flat end of the block of `a` that holds row i; its size
    for i in range(0, len(adata), n):
        if i == end:
            base += n * cols
            end += step
        k = base  # flat offset of row k of that block of `b`
        for aik in adata[i:i + n]:
            if aik:
                for j, bkj in enumerate(bdata[k:k + cols], o):
                    if bkj:
                        out[j] += aik * bkj
            k += cols
        o += cols
    return out


def fused_prelie_site(p: Matrix, q: Matrix, x: Matrix, y: Matrix) -> Matrix:
    """(p_n q_n - q_n p_n) + x_n y_n for each block n of four site stacks.

    A stack holds the d x d values of N sites on top of each other, as one
    (N*d) x d matrix, with N = `rows // cols`; the four stacks share their
    shape and their backend, and N = 1 is one square matrix.  Each block
    product keeps its own sum, formed as `p_n * q_n` forms it, and the
    entries combine as the composed formula does, so float results are bit
    for bit those of `p_n * q_n - q_n * p_n + x_n * y_n`; the exact result
    is reduced once for the whole stack, over the common denominator of the
    two product denominators.
    """
    if not (p.den is None) == (q.den is None) == (x.den is None) == (y.den is None):
        raise BackendMismatch("an exact and a float matrix")
    rows, cols = p.rows, p.cols
    if p.den is None:
        pq, qp, xy = _product(p, q, 0.0), _product(q, p, 0.0), _product(x, y, 0.0)
        return _wrap([(a - b) + c for a, b, c in zip(pq, qp, xy)], rows, cols, None)
    pq, qp, xy = _product(p, q, 0), _product(q, p, 0), _product(x, y, 0)
    dpq, dxy = p.den * q.den, x.den * y.den
    g = gcd(dpq, dxy)
    f, h = dxy // g, dpq // g
    return _reduced([(a - b) * f + c * h for a, b, c in zip(pq, qp, xy)], rows, cols, dpq * f)


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
    # global offset of each local index (its digits slowest first, aligned with
    # `slots`), and of each assignment of the factors outside `slots`
    base = [sum(d * weight[s] for d, s in zip(digits, slots)) for digits in iproduct(range(dim), repeat=k)]
    offs = [sum(d * weight[s] for d, s in zip(rest, others)) for rest in iproduct(range(dim), repeat=len(others))]
    out = [0.0 if op.den is None else 0] * (size * size)
    for idx, v in enumerate(op.num):
        if v:
            i, j = divmod(idx, op.cols)
            start = base[i] * size + base[j]
            for off in offs:
                out[start + off * (size + 1)] = v
    # The same nonzero numerators over the same denominator: still reduced.
    return _wrap(out, size, size, op.den)


def permutation_op(dim: int) -> Matrix:
    """The flip on C^dim tensor C^dim: P(u x v) = v x u."""
    n = dim * dim
    out = [0] * (n * n)
    for a in range(dim):
        for b in range(dim):
            out[(a * dim + b) * n + b * dim + a] = 1
    return _wrap(out, n, n, 1)


def partial_trace_first(m: Matrix, dim: int) -> Matrix:
    """Trace out the slowest (slot-0) factor of size `dim`."""
    n = m.rows
    if n != m.cols or n % dim:
        raise DimensionMismatch("matrix size not divisible by the traced dimension")
    b = n // dim
    out = [0.0 if m.den is None else 0] * (b * b)
    for i in range(dim):
        for r in range(b):
            start = (i * b + r) * n + i * b
            for c, v in enumerate(m.num[start:start + b], r * b):
                if v:
                    out[c] += v
    return _reduced(out, b, b, m.den)


def aux_block(m: Matrix, a: int, b: int, dim: int) -> Matrix:
    """The (a, b) block with respect to the slot-0 factor of size `dim`."""
    n = m.rows
    if n != m.cols or n % dim:
        raise DimensionMismatch("matrix size not divisible by the block dimension")
    s = n // dim
    start = a * s * n + b * s
    return _reduced([x for r in range(start, start + s * n, n) for x in m.num[r:r + s]], s, s, m.den)
