"""Dense matrices over exact rationals or floats, plus tensor-leg utilities.

A matrix is stored as one flat row-major list `num`, with its shape in
`rows`/`cols`, over one denominator `den`.  An exact matrix (every entry an
int or a Fraction) holds integer numerators over a positive `den`, reduced so
that `gcd(den, *num) == 1`; that form is unique, so equality is a comparison
of shapes and integers, and every operation runs on plain ints with one gcd
reduction per result.  `data` gives the entries back row by row: ints when
`den == 1`, otherwise a Fraction each.  A float matrix holds Python floats
only and has `den = None`.  Only this module reads or writes that store,
so each operation that needs it is here: the arithmetic, `from_ints` for
the sampled draws, `unit_product` for the products by the unit, and the
pre-Lie products on site stacks below.  An exact and a float matrix are
never equal, and `+`, `-`, `*`, `kron` and `fused_prelie_site` refuse them
with BackendMismatch, as an exact matrix refuses a float scalar.  So every
operation has one body for both backends; `den` only decides whether the
result is reduced.
A product with a dimension of at least `SPARSE_FROM` walks both operands
by their nonzero entries, row by row, from a list each matrix makes on
first use and keeps (a matrix is never changed once built); that keeps the
many permutation-shaped operators of the tensor-product checks cheap.  A
smaller product, such as the dense 2x2-4x4 blocks of the expansions, is one
straight-line function compiled on first use for its shape and backend,
which forms every output entry as one expression.  `fused_prelie_site`
forms (p*q - q*p) + x*y in one pass, without the intermediate matrices, for
one square matrix or for each block of a site stack: N sites' d x d values
on top of each other as one (N*d) x d matrix, the carrier of the brace
suite's elements, on which every sum, scaling and zero test is one
operation for all sites.  It is the only product that reads a stack, with
one body for both backends; its size rule reads one block's shape.
`stack_prelie_left` forms the left pre-Lie product of two stacks with it,
after summing one stack's blocks into its strict prefix sums.  None
of this changes a float result: each product entry starts from its
backend's zero and adds the products of its nonzero terms in order of the
inner index (a float term with a zero factor is skipped, so a zero never
meets an inf or a nan), and each sum or scaling is one operation per entry.

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

# The scalar operator types, read by `freealg` and re-exported by `ops`.
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
    def from_ints(values: list, rows: int, cols: int) -> "Matrix":
        """The exact matrix of the ints `values`, row by row; the list becomes its store."""
        if rows < 1 or cols < 1:
            raise DimensionMismatch("matrix needs at least one row and column")
        if len(values) != rows * cols:
            raise DimensionMismatch(f"{len(values)} entries for a {rows}x{cols} matrix")
        return _wrap(values, rows, cols, 1)

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        cols = rows if cols is None else cols
        return Matrix.from_ints([0] * (rows * cols), rows, cols)

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
        return hash((self.rows, self.cols, self.den, *self.num))

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
                return _wrap(_product(self, other), self.rows, other.cols, None)
            return _reduced(_product(self, other), self.rows, other.cols, self.den * other.den)
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
# nonzero rows; smaller ones take the kernel compiled for their shape.  In a
# replay of the exact products of seed-1 runs on a 2-vCPU x86-64 machine,
# each operand's rows built once per replay, the row walk took 3.8-7.2 times
# the kernel's time on the dense 2x2-4x4 operands of `expand` (over 92 %
# fill), and on the yangian suite's sparse ones 0.65-0.72 of it at 3x3 and
# 4x4 (11-17 % fill), 0.29 at 8x8 (14 %) and 0.11 at 9x9 (5 %).
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


def _product(a: Matrix, b: Matrix) -> list:
    """The flat entries of `a * b` before any reduction, for two matrices of
    one backend: integer numerators over `a.den * b.den`, or floats.

    Each entry starts from the backend's zero and adds the products of its
    nonzero terms in order of the inner index.  Below the size rule that is
    the compiled kernel of the shape (`_product_kernel`); at or above it, a
    walk over both operands' nonzero rows.
    """
    m, n, cols = a.rows, a.cols, b.cols
    if m < SPARSE_FROM and n < SPARSE_FROM and cols < SPARSE_FROM:
        return _product_kernel(m, n, cols, a.den is not None)(a.num, b.num)
    out = [0.0 if a.den is None else 0] * (m * cols)
    o = 0  # flat offset of output row i
    brows = _nonzero_rows(b)
    for arow in _nonzero_rows(a):
        for k, aik in arow:
            for j, bkj in brows[k]:
                out[o + j] += aik * bkj
        o += cols
    return out


# The compiled kernels of the shapes below SPARSE_FROM, one per shape and
# backend, each made on first use; their source is built from the shape alone.
_KERNELS = {}


def _names(letter: str, count: int) -> str:
    return "".join(f"{letter}{i}, " for i in range(count))


def _entry(a: str, b: str, i: int, j: int, n: int, cols: int, exact: bool) -> str:
    """Source of entry (i, j) of the product of the row-major blocks whose
    entries are the locals `a0, a1, ...` (n columns) and `b0, ...` (`cols`
    columns), inner index in order.  A float entry starts from 0.0 and skips
    a term with a zero factor, 0.0 and -0.0 alike, so a zero never meets an
    inf or a nan; an exact one is the plain sum of integer products."""
    terms = [(f"{a}{i * n + k}", f"{b}{k * cols + j}") for k in range(n)]
    if exact:
        return "(" + " + ".join(f"{x}*{y}" for x, y in terms) + ")"
    return "(0.0" + "".join(f" + ({x}*{y} if {x} and {y} else 0.0)" for x, y in terms) + ")"


def _compiled(key: tuple, source: str):
    namespace = {}
    # a file name per key keeps the kernels apart in a profile
    exec(compile(source, f"<matrix kernel {key}>", "exec"), namespace)
    kernel = _KERNELS[key] = namespace["kernel"]
    return kernel


def _product_kernel(m: int, n: int, cols: int, exact: bool):
    """`kernel(A, B)`: the flat product of a flat m x n block and a flat
    n x `cols` block, as one straight-line expression per entry."""
    key = ("product", m, n, cols, exact)
    kernel = _KERNELS.get(key)
    if kernel is None:
        entries = ", ".join(_entry("a", "b", i, j, n, cols, exact) for i in range(m) for j in range(cols))
        kernel = _compiled(key, f"def kernel(A, B):\n"
                                f"    {_names('a', m * n)}= A\n"
                                f"    {_names('b', n * cols)}= B\n"
                                f"    return [{entries}]\n")
    return kernel


def _prelie_kernel(d: int, exact: bool):
    """`kernel(P, Q, X, Y, f, h)`: for each d x d block of four flat stacks,
    every entry as (pq - qp)*f + xy*h, each product entry formed as
    `_product_kernel` forms it."""
    key = ("prelie", d, exact)
    kernel = _KERNELS.get(key)
    if kernel is None:
        size = d * d
        entries = []
        for i in range(d):
            for j in range(d):
                pq, qp, xy = (_entry(a, b, i, j, d, d, exact) for a, b in ("pq", "qp", "xy"))
                entries.append(f"({pq} - {qp})*f + {xy}*h")
        unpack = "".join(f"        {_names(letter, size)}= {letter.upper()}[t:t + {size}]\n"
                         for letter in "pqxy")
        kernel = _compiled(key, f"def kernel(P, Q, X, Y, f, h):\n"
                                f"    out = []\n"
                                f"    for t in range(0, len(P), {size}):\n"
                                f"{unpack}"
                                f"        out += [{', '.join(entries)}]\n"
                                f"    return out\n")
    return kernel


def fused_prelie_site(p: Matrix, q: Matrix, x: Matrix, y: Matrix) -> Matrix:
    """(p_n q_n - q_n p_n) + x_n y_n for each block n of four site stacks.

    A stack holds the d x d values of N sites on top of each other, as one
    (N*d) x d matrix, with N = `rows // cols`; the four stacks share their
    shape and their backend, and N = 1 is one square matrix.  Each block
    product keeps its own sum, formed as `p_n * q_n` forms it, and each
    entry is (pq - qp)*f + xy*h: exact numerators take the f and h that put
    both parts over one denominator, and the stack is reduced once; floats
    take f = h = 1.0 (v*1.0 is v in IEEE arithmetic), so their bits are
    those of `p_n * q_n - q_n * p_n + x_n * y_n`.  Blocks below
    `SPARSE_FROM` take the compiled kernel of their size (`_prelie_kernel`);
    larger ones are three `_product` calls each.
    """
    if not (p.den is None) == (q.den is None) == (x.den is None) == (y.den is None):
        raise BackendMismatch("an exact and a float matrix")
    d, den, f, h = p.cols, p.den, 1.0, 1.0
    if den is not None:
        dpq, dxy = den * q.den, x.den * y.den
        g = gcd(dpq, dxy)
        f, h, den = dxy // g, dpq // g, dpq * dxy // g
    if d < SPARSE_FROM:
        out = _prelie_kernel(d, den is not None)(p.num, q.num, x.num, y.num, f, h)
    else:
        out = []
        for t in range(0, len(p.num), d * d):
            pn, qn, xn, yn = (_wrap(m.num[t:t + d * d], d, d, m.den) for m in (p, q, x, y))
            pq, qp, xy = _product(pn, qn), _product(qn, pn), _product(xn, yn)
            out += [(a - b) * f + c * h for a, b, c in zip(pq, qp, xy)]
    return _reduced(out, p.rows, d, den)


def stack_prelie_left(a: Matrix, b: Matrix) -> Matrix:
    """(a |> b)_n = [a_1+...+a_{n-1}, b_n] + a_n b_n on two site stacks.

    `a` and `b` stack N sites' d x d values as (N*d) x d matrices of one
    backend.  Block n of R(a) is the strict prefix sum, added from site 1
    up as `rotabaxter.PartialSumOp` adds it from the zero of the backend
    (a float -0.0 becomes 0.0), and block 1 is that zero; then one
    `fused_prelie_site(R(a), b, a, b)` call forms every site.
    """
    rows, d = a.rows, a.cols
    if b.rows != rows or b.cols != d or rows % d:
        raise DimensionMismatch(f"site stacks {a.rows}x{a.cols} and {b.rows}x{b.cols}")
    num, size = a.num, d * d
    acc = [0.0 if a.den is None else 0] * size
    prefix = acc[:]
    for i in range(0, len(num) - size, size):
        acc = list(map(add, acc, num[i:i + size]))
        prefix += acc
    return fused_prelie_site(_reduced(prefix, rows, d, a.den), b, a, b)


def commutator(a, b):
    """[a, b] = ab - ba, for operators of any backend."""
    return a * b - b * a


def unit_product(unit, x):
    """`unit * x`, equally `x * unit`, for the unit `ops.one_like(x)` of a
    nonzero `x`, formed without the product and with the same value.

    An exact matrix gives `x` itself, a float one its entries as `0.0 + v`:
    the zero-skipping product starts each entry at 0.0 and adds `1.0 * v`
    for each nonzero `v`, so -0.0 becomes 0.0.  Any other `x` is itself
    when its type is the unit's (a free element, or a scalar of the unit's
    type), otherwise `unit * x` (an int or a float meeting `Fraction(1)`, a
    rational meeting 1.0).
    """
    if isinstance(x, Matrix):
        if (x.den is None) != (unit.den is None):
            raise BackendMismatch("an exact and a float matrix")
        return x if x.den is not None else _wrap([0.0 + v for v in x.num], x.rows, x.cols, None)
    return x if type(x) is type(unit) else unit * x


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
    if dim < 1:
        raise DimensionMismatch(f"the flip needs a dimension of at least 1, got {dim}")
    n = dim * dim
    out = [0] * (n * n)
    for a in range(dim):
        for b in range(dim):
            out[(a * dim + b) * n + b * dim + a] = 1
    return _wrap(out, n, n, 1)


def partial_trace_first(m: Matrix, dim: int) -> Matrix:
    """Trace out the slowest (slot-0) factor of size `dim`."""
    n = m.rows
    if dim < 1 or n != m.cols or n % dim:
        raise DimensionMismatch(f"a {n}x{m.cols} matrix has no blocks for a factor of size {dim}")
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
    if dim < 1 or n != m.cols or n % dim:
        raise DimensionMismatch(f"a {n}x{m.cols} matrix has no blocks for a factor of size {dim}")
    if not (0 <= a < dim and 0 <= b < dim):
        raise DimensionMismatch(f"block ({a}, {b}) outside a slot-0 factor of size {dim}")
    s = n // dim
    start = a * s * n + b * s
    return _reduced([x for r in range(start, start + s * n, n) for x in m.num[r:r + s]], s, s, m.den)
