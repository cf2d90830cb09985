"""Matrices over exact rationals or floats, plus tensor-leg utilities.

A matrix keeps its shape in `rows`/`cols` and its entries in `num`, over
one denominator `den`.  `num` is one of two stores, chosen by the number
of columns alone, so two matrices of one shape always share a store:
below `SPARSE_FROM` columns it is one flat row-major list of every entry;
from `SPARSE_FROM` on it holds only the nonzero entries, one dict per row
from column to entry, and never a stored zero.  An exact matrix (every
entry an int or a Fraction) holds integer numerators over a positive
`den`, reduced so that `gcd(den, *numerators) == 1`, and the zero matrix
has `den == 1`; that form is unique, so equality is a comparison of
shapes and integers, and every operation runs on plain ints with one gcd
reduction per result.  `data` gives the entries back row by row: ints when
`den == 1`, otherwise a Fraction each.  A float matrix holds Python floats
only and has `den = None`; the row store drops zeros of both signs, so a
-0.0 entry of a matrix with `SPARSE_FROM` or more columns reads 0.0 (no
report prints a float entry: they print `max_abs`).  Only this module reads
or writes either store, so each operation that needs it is here: the
arithmetic, `from_ints` for the sampled draws, the pre-Lie products on
site stacks, the chain fold `lax_fold` and its logarithm `lax_log`,
`poly_grid` for the values of a matrix polynomial on a grid of points,
and the tensor legs below.  Each operation has one body per store but
`poly_grid` (flat numerators) and the tensor legs (nonzero rows), and on
the row store costs only the nonzero entries.  An exact and
a float matrix are never equal, and `+`, `-`, `*`, `kron` and
`fused_prelie_site` refuse them with BackendMismatch, as an exact matrix
refuses a float scalar.  So every
operation has one body for both backends; `den` only decides whether the
result is reduced.
A product with a dimension of at least `SPARSE_FROM` walks both operands
by their nonzero rows, the row store itself or rows made from a flat
list; that keeps the many permutation-shaped operators of the
tensor-product checks cheap.  A smaller product, such as the dense 2x2-4x4
blocks of the expansions, is one straight-line function compiled on first
use for its shape and backend, which forms every output entry as one
expression.  `fused_prelie_site` forms (p*q - q*p) + x*y in one pass,
without the intermediate matrices, for one square matrix or for each block
of a site stack: N sites' d x d values on top of each other as one
(N*d) x d matrix, the carrier of the brace suite's elements, on which
every sum, scaling and zero test is one operation for all sites.  It is
the only product that reads a stack, with one body for both backends; its
size rule, like the store's, reads one block's shape.
`stack_prelie_left` forms the left pre-Lie product of two stacks with it,
after summing one stack's blocks into its strict prefix sums
(`stack_prefix_sum`, which a caller may hold and pass back in).
`lax_fold` multiplies out a whole chain's site series 1 + sum_m alpha^m
L^(m), each on the right, for exact square matrices below `SPARSE_FROM`
and for exact scalars taken as 1 x 1 blocks: the running series stays
integer numerators over one shared denominator from site to site, and
only the product it returns is matrices (Fractions for scalars).  Each
run of consecutive sites with one degree tuple, nearly always the whole
chain, is one call of a fold kernel compiled on first use for its block
size, its degrees and its kind (matrix or scalar), never its order, whose
loop walks the run's sites, each step reduced once by `_reduced_blocks`.
Integer sums do not depend on the order of their terms, so its values are
those of the plain fold of series products.  It never forms a chain's
prefix products: `expansion` grows those by the series product.
`lax_log` takes the logarithm of that product on the same raw blocks,
log(1 + U) = sum_k (-1)^(k+1) U^k / k with each power's products by the
kernels, and builds only the coefficients it returns, with the values
and types of `AlphaSeries.log`.
Neither takes floats: a float chain grows by the product of `AlphaSeries`
and takes `AlphaSeries.log`, whose float bits are the reference.  `poly_grid`
evaluates an exact matrix polynomial, times the step, at evenly spaced
rational points, as `continuum.discretize` samples a field: integer
weights and sums, and one gcd reduction per point.
None of this changes a float result but the sign of a zero in the row
store:
each product entry starts from its backend's zero and adds the products
of its nonzero terms in order of the inner index (a float term with a
zero factor is skipped, so a zero never meets an inf or a nan), and each
sum or scaling is one operation per stored entry (an entry the row store
does not hold stays zero where the flat list would form 0.0 * inf).

Tensor convention used everywhere: a state of `total` factors, each of local
dimension `dim`, is indexed lexicographically with slot 0 slowest. Slot 0 is
the auxiliary space wherever one exists, so auxiliary blocks of a matrix are
literal row/column blocks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, product as iproduct
from math import gcd, lcm
from operator import add, mul, neg, sub

from .errors import AlgebraError, BackendMismatch, DimensionMismatch, SingularOperator

# The scalar operator types, read by `freealg` and re-exported by `ops`.
SCALARS = (int, Fraction, float)

# A matrix with at least this many columns keeps its nonzero rows, and a
# product with a dimension of at least this walks both operands by their
# nonzero rows; smaller ones keep the flat list and take the kernel
# compiled for their shape.  The rule reads the shape alone, so a site
# stack, (N*d) x d, keeps the flat list while its block d is below it.  In
# a replay of the exact products of seed-1 runs on a 2-vCPU x86-64
# machine, each operand's rows built once per replay, the row walk took
# 3.8-7.2 times the kernel's time on the dense 2x2-4x4 operands of
# `expand` (over 92 % fill), and on the yangian suite's sparse ones
# 0.65-0.72 of it at 3x3 and 4x4 (11-17 % fill), 0.29 at 8x8 (14 %) and
# 0.11 at 9x9 (5 %).  On the same machine the 6,090 operations of a
# seed-1 yangian run with an operand or result of 8 or more rows (1-6 %
# nonzero) took 55 ms on the row store against 113-131 ms on the flat list.
SPARSE_FROM = 8


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
        flat = [x for row in data for x in row]
        try:
            if any(isinstance(x, float) for x in flat):
                self.num = _from_flat([x if isinstance(x, float) else x.numerator / x.denominator
                                       for x in flat], w)
                self.den = None
                return
            den = lcm(*(x.denominator for x in flat))
        except AttributeError:
            raise TypeError("matrix entries must be int, Fraction or float") from None
        # Reduced fractions over the lcm of their denominators share no factor with it.
        self.num = _from_flat([x.numerator * (den // x.denominator) for x in flat], w)
        self.den = den

    @property
    def data(self) -> tuple:
        """The entries, row by row: floats, ints when `den == 1`, otherwise Fractions."""
        num, den, c = self.num, self.den, self.cols
        if c >= SPARSE_FROM:
            num = _flat(num, c, _zero(den))
        if den is not None and den != 1:
            num = [Fraction(x, den) for x in num]
        return tuple(tuple(num[i:i + c]) for i in range(0, len(num), c))

    @staticmethod
    def identity(n: int) -> "Matrix":
        """The n x n unit; its size is refused as `zeros` refuses it."""
        m = Matrix.zeros(n)
        if n < SPARSE_FROM:
            m.num[::n + 1] = [1] * n
        else:
            for i, row in enumerate(m.num):
                row[i] = 1
        return m

    @staticmethod
    def from_ints(values: list, rows: int, cols: int) -> "Matrix":
        """The exact matrix of the ints `values`, row by row, of a size
        `zeros` takes; below `SPARSE_FROM` columns the list is its store."""
        _check_size(rows, cols)
        if len(values) != rows * cols:
            raise DimensionMismatch(f"{len(values)} entries for a {rows}x{cols} matrix")
        return _wrap(_from_flat(values, cols), rows, cols, 1)

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        """The zero matrix of `rows` x `cols` (square when `cols` is None).
        A size that is not a plain int (a bool included) is DimensionMismatch,
        as is one below 1."""
        cols = rows if cols is None else cols
        _check_size(rows, cols)
        if cols < SPARSE_FROM:
            return _wrap([0] * (rows * cols), rows, cols, 1)
        return _wrap([{} for _ in range(rows)], rows, cols, 1)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_exact(self) -> bool:
        return self.den is not None

    def is_zero(self) -> bool:
        # a nonzero numerator, or a row store's nonempty row
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        num = self.num
        if self.cols >= SPARSE_FROM:
            num = [frozenset(row.items()) for row in num]
        return hash((self.rows, self.cols, self.den, *num))

    def __add__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        na, nb, den = _common(self, other)
        op = add if self.cols < SPARSE_FROM else partial(_row_sum, add)
        return _reduced(list(map(op, na, nb)), self.rows, self.cols, den)

    def __sub__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        na, nb, den = _common(self, other)
        op = sub if self.cols < SPARSE_FROM else partial(_row_sum, sub)
        return _reduced(list(map(op, na, nb)), self.rows, self.cols, den)

    def __neg__(self) -> "Matrix":
        num = self.num
        if self.cols < SPARSE_FROM:
            num = list(map(neg, num))
        else:
            num = [{j: -v for j, v in row.items()} for row in num]
        return _wrap(num, self.rows, self.cols, self.den)

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
            return _wrap(_times(self.num, self.cols, float(other)), self.rows, self.cols, None)
        if isinstance(other, float):
            raise BackendMismatch("an exact matrix times a float")
        # an int or a Fraction: its numerator over its denominator
        return _reduced(_times(self.num, self.cols, other.numerator), self.rows, self.cols,
                        den * other.denominator)

    def __rmul__(self, other) -> "Matrix":
        if isinstance(other, SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def kron(self, other: "Matrix") -> "Matrix":
        if (self.den is None) != (other.den is None):
            raise BackendMismatch("an exact and a float matrix")
        zero = _zero(self.den)
        ac, bc = self.cols, other.cols
        adata, bdata = (m.num if m.cols < SPARSE_FROM else _flat(m.num, m.cols, zero) for m in (self, other))
        den = None if self.den is None else self.den * other.den
        out = [a * b for i in range(0, len(adata), ac) for k in range(0, len(bdata), bc)
               for a in adata[i:i + ac] for b in bdata[k:k + bc]]
        return _reduced(_from_flat(out, ac * bc), self.rows * other.rows, ac * bc, den)

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
        num = self.num
        if self.cols >= SPARSE_FROM:
            num = chain.from_iterable(map(dict.values, num))
        m = max(map(abs, num), default=_zero(self.den))
        return m if self.den is None else Fraction(m, self.den)

    def to_float(self) -> "Matrix":
        den = self.den
        if den is None:
            return self
        # int true division rounds correctly, as float(Fraction) does.
        if self.cols < SPARSE_FROM:
            num = [x / den for x in self.num]
        else:
            num = [{j: y for j, x in row.items() if (y := x / den)} for row in self.num]
        return _wrap(num, self.rows, self.cols, None)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self})"


def _check_size(rows, cols) -> None:
    """DimensionMismatch unless both sizes are plain ints, not bools, of at least 1."""
    if type(rows) is not int or type(cols) is not int:
        raise DimensionMismatch(f"a matrix size is an int, got {rows!r} x {cols!r}")
    if rows < 1 or cols < 1:
        raise DimensionMismatch("matrix needs at least one row and column")


def _wrap(num: list, rows: int, cols: int, den) -> Matrix:
    """A `rows` x `cols` matrix over the store it takes as it is: reduced
    integer numerators over `den`, or, when `den` is None, floats."""
    m = object.__new__(Matrix)
    m.rows = rows
    m.cols = cols
    m.num = num
    m.den = den
    return m


def _zero(den):
    """The zero entry of a backend: 0.0 when `den` is None, otherwise 0."""
    return 0 if den is not None else 0.0


def _from_flat(flat: list, cols: int) -> list:
    """The store of a matrix with `cols` columns, from its flat entries."""
    return flat if cols < SPARSE_FROM else _nonzero_rows(flat, cols)


def _nonzero_rows(flat: list, cols: int) -> list:
    """One dict per row of flat row-major entries, from the column of each
    nonzero entry (0.0 and -0.0 are zero) to the entry, columns ascending."""
    rows = [{} for _ in range(len(flat) // cols)]
    # `compress` finds the nonzero entries in C.
    for idx in compress(range(len(flat)), flat):
        i, j = divmod(idx, cols)
        rows[i][j] = flat[idx]
    return rows


def _rows(m: Matrix) -> list:
    """The nonzero rows of either store."""
    return m.num if m.cols >= SPARSE_FROM else _nonzero_rows(m.num, m.cols)


def _flat(rows: list, cols: int, zero) -> list:
    """The flat row-major entries of nonzero rows, `zero` elsewhere."""
    out = [zero] * (len(rows) * cols)
    for o, row in zip(range(0, len(out), cols), rows):
        for j, v in row.items():
            out[o + j] = v
    return out


def _from_rows(rows: list, cols: int, den) -> list:
    """The store of a matrix with `cols` columns, from its nonzero rows."""
    return rows if cols >= SPARSE_FROM else _flat(rows, cols, _zero(den))


def _reduced(num: list, rows: int, cols: int, den) -> Matrix:
    """A matrix from integer numerators over a positive denominator,
    reduced by their gcd, or from floats when `den` is None; `num` is the
    store of the shape."""
    if den is not None and den != 1:
        if cols < SPARSE_FROM:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        else:
            # stop at the first row that brings the gcd to 1, as most do
            g = den
            for row in num:
                if row:
                    g = gcd(g, *row.values())
                    if g == 1:
                        break
            if g != 1:
                num = [{j: x // g for j, x in row.items()} for row in num]
                den //= g
    return _wrap(num, rows, cols, den)


def _times(num: list, cols: int, f) -> list:
    """The store `num` of a matrix with `cols` columns, each entry times
    the scalar `f`; the row store keeps only the nonzero products."""
    if cols < SPARSE_FROM:
        return [a * f for a in num]
    return [{j: y for j, x in row.items() if (y := x * f)} for row in num]


def _common(a: Matrix, b: Matrix) -> tuple:
    """The stores of two same-shape matrices of one backend over one
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
    na = a.num if fa == 1 else _times(a.num, a.cols, fa)
    nb = b.num if fb == 1 else _times(b.num, b.cols, fb)
    return na, nb, da * fa


# A row of the row store is never changed once a matrix holds it, so a sum
# or difference may hand an operand's row on as it is.

def _row_sum(op, ra: dict, rb: dict) -> dict:
    """The nonzero entries of `op(ra, rb)` for two nonzero rows, `op` being
    `operator.add` or `operator.sub`; only a sum hands `rb` on as it is."""
    if not rb:
        return ra
    if not ra and op is add:
        return rb
    row = ra.copy()
    for j, v in rb.items():
        w = op(row.get(j, 0), v)
        if w:
            row[j] = w
        else:
            del row[j]
    return row


def _product(a: Matrix, b: Matrix) -> list:
    """The store of `a * b` before any reduction, for two matrices of one
    backend: integer numerators over `a.den * b.den`, or floats.

    Each entry starts from the backend's zero and adds the products of its
    nonzero terms in order of the inner index.  Below the size rule that is
    the compiled kernel of the shape (`_product_kernel`); at or above it, a
    walk over both operands' nonzero rows.
    """
    m, n, cols = a.rows, a.cols, b.cols
    exact = a.den is not None
    if m < SPARSE_FROM and n < SPARSE_FROM and cols < SPARSE_FROM:
        return _product_kernel(m, n, cols, exact)(a.num, b.num)
    zero = _zero(a.den)
    brows = _rows(b)
    out = []
    for arow in _rows(a):
        row = {}
        # integer sums do not depend on the order of their terms; float ones do
        for k, aik in (arow.items() if exact else sorted(arow.items())):
            for j, bkj in brows[k].items():
                row[j] = row.get(j, zero) + aik * bkj
        if 0 in row.values():
            row = {j: v for j, v in row.items() if v}
        out.append(row)
    return _from_rows(out, cols, a.den)


# The compiled kernels of the shapes below SPARSE_FROM, one per shape and
# backend (an exact fold kernel per block size, degrees and kind),
# each made on first use; their source is built from its key alone.
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
    namespace = {"lcm": lcm, "reduced_blocks": _reduced_blocks}
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
    (N*d) x d matrix; four stacks not of one such shape and one backend
    are refused, and N = 1 is one square matrix.  Each block
    product keeps its own sum, formed as `p_n * q_n` forms it, and each
    entry is (pq - qp)*f + xy*h: exact numerators take the f and h that put
    both parts over one denominator, and the stack is reduced once; floats
    take f = h = 1.0 (v*1.0 is v in IEEE arithmetic), so their bits are
    those of `p_n * q_n - q_n * p_n + x_n * y_n`.  Blocks below
    `SPARSE_FROM` take the compiled kernel of their size (`_prelie_kernel`);
    larger ones, held in the row store, are three `_product` calls each on
    the block's rows, and only entries that some product holds are formed.
    """
    if not (p.den is None) == (q.den is None) == (x.den is None) == (y.den is None):
        raise BackendMismatch("an exact and a float matrix")
    d, den, f, h = p.cols, p.den, 1.0, 1.0
    if not (p.rows == q.rows == x.rows == y.rows and d == q.cols == x.cols == y.cols) or p.rows % d:
        raise DimensionMismatch("site stacks " + ", ".join(f"{m.rows}x{m.cols}" for m in (p, q, x, y)))
    if den is not None:
        dpq, dxy = den * q.den, x.den * y.den
        g = gcd(dpq, dxy)
        f, h, den = dxy // g, dpq // g, dpq * dxy // g
    if d < SPARSE_FROM:
        out = _prelie_kernel(d, den is not None)(p.num, q.num, x.num, y.num, f, h)
    else:
        out = []
        zero = _zero(den)
        for t in range(0, p.rows, d):
            pn, qn, xn, yn = (_wrap(m.num[t:t + d], d, d, m.den) for m in (p, q, x, y))
            for pq, qp, xy in zip(_product(pn, qn), _product(qn, pn), _product(xn, yn)):
                out.append({j: v for j in pq.keys() | qp.keys() | xy.keys()
                            if (v := (pq.get(j, zero) - qp.get(j, zero)) * f + xy.get(j, zero) * h)})
    return _reduced(out, p.rows, d, den)


def stack_prefix_sum(a: Matrix) -> Matrix:
    """R(a): block n of a site stack's strict prefix sums a_1+...+a_{n-1}.

    `a` stacks N sites' d x d values as an (N*d) x d matrix.  Each block is
    added from site 1 up as `rotabaxter.PartialSumOp` adds it from the zero
    of the backend (a float -0.0 becomes 0.0), and block 1 is that zero, so
    R(a) depends on the value of `a` alone.
    """
    rows, d = a.rows, a.cols
    if rows % d:
        raise DimensionMismatch(f"a site stack of {a.rows}x{a.cols}")
    # a block is d*d flat entries, or d rows of the row store
    if d < SPARSE_FROM:
        size, plus, zero = d * d, add, _zero(a.den)
    else:
        size, plus, zero = d, partial(_row_sum, add), {}
    num = a.num
    acc = [zero] * size
    prefix = acc[:]
    for i in range(0, len(num) - size, size):
        acc = list(map(plus, acc, num[i:i + size]))
        prefix += acc
    return _reduced(prefix, rows, d, a.den)


def stack_prelie_left(a: Matrix, b: Matrix, prefix: Matrix | None = None) -> Matrix:
    """(a |> b)_n = [a_1+...+a_{n-1}, b_n] + a_n b_n on two site stacks.

    `a` and `b` stack N sites' d x d values as (N*d) x d matrices of one
    backend.  One `fused_prelie_site(R(a), b, a, b)` call forms every site,
    R(a) the strict prefix sums `stack_prefix_sum(a)`, or `prefix` when the
    caller holds them already; that call checks both stacks.
    """
    return fused_prelie_site(stack_prefix_sum(a) if prefix is None else prefix, b, a, b)


def lax_fold(like, sites: list, order: int) -> list:
    """The ordered product of the site series 1 + sum_m alpha^m L^(m) through
    `order`, as the product of `AlphaSeries` forms it, on raw integer blocks.

    `like` is an exact square matrix below `SPARSE_FROM` columns, or an
    exact scalar (an int or a Fraction, taken as a 1 x 1 block); a float
    one is BackendMismatch.  `sites` holds, in the order they are
    multiplied in, each site's operators of degree 1..`order` as (degree,
    operator) pairs, degrees ascending, all of `like`'s kind; a zero one
    may be left out, and `expansion` leaves it out.  Each site multiplies
    the running series on the right.  The series runs through every site
    as flat blocks of integer numerators (`_raw_fold`), each run of sites
    with one degree tuple one call of its compiled fold kernel.  Its
    coefficients become matrices (Fractions for scalars) only in the list
    returned, [1, T^(1), ..., T^(order)] after the last site, with the
    value of the plain fold of series products.  `lax_log` takes the
    logarithm of that product on the same blocks, for the same operands.
    """
    unit, build = _kind(like)
    t, dt = _raw_fold(like, sites, order)
    return [unit] + [build(b, dt) for b in t]


def lax_log(like, sites: list, order: int) -> list:
    """[Q^(1), ..., Q^(order)]: the logarithm of the ordered product that
    `lax_fold(like, sites, order)` gives, on its raw blocks.

    It forms log(1 + U) = sum_k (-1)^(k+1) U^k / k for k = 1..order, U the
    product's coefficients T^(1)..T^(order) as `_raw_fold`'s fold kernels
    leave them, and builds only the matrices (Fractions for scalars) it
    returns.  Coefficient n of U^k = U^(k-1) U
    adds the products of its nonzero block pairs by `_product_kernel`, and
    each power is reduced once, over one denominator, as is each
    coefficient returned, so values and types are those of
    `AlphaSeries.log`.
    """
    _, build = _kind(like)
    u, du = _raw_fold(like, sites, order)
    d = like.cols if isinstance(like, Matrix) else 1
    kernel = _product_kernel(d, d, d, True)
    zero = [0] * (d * d)
    nonzero = [any(b) for b in u]
    power = u
    dp = dr = du
    result = [zero] * order
    for k in range(1, order + 1):
        if k > 1:
            live = [any(b) for b in power]
            new = []
            for n in range(order):
                terms = [kernel(power[j], u[n - j - 1]) for j in range(n) if live[j] and nonzero[n - j - 1]]
                new.append(list(reduce(_lazy_sum, terms)) if terms else zero)
            power, dp = _reduced_blocks(new, dp * du)
        # the weight over the power's denominator, and both parts over dr
        w = Fraction((-1) ** (k + 1), k * dp)
        f = lcm(dr, w.denominator)
        fr, fp, dr = f // dr, w.numerator * (f // w.denominator), f
        result = [[a * fr + x * fp for a, x in zip(r, p)] for r, p in zip(result, power)]
    return [build(b, dr) for b in result]


def _kind(like) -> tuple:
    """The unit of `like`'s kind and `build(block, den)`, the coefficient of
    that kind from a raw block: a reduced matrix, or a Fraction for a
    scalar."""
    if not isinstance(like, Matrix):
        return Fraction(1), lambda b, den: Fraction(b[0], den)
    d = like.cols
    return Matrix.identity(d), lambda b, den: _reduced(b, d, d, den)


def _raw_fold(like, sites: list, order: int) -> tuple:
    """`lax_fold`'s product as raw blocks: (t, dt) with t the flat blocks
    T^(1)..T^(order) of integer numerators over the denominator dt, after
    the last site.  A float `like` is BackendMismatch.

    Each run of consecutive sites whose operators have one degree tuple is
    one call of the compiled fold kernel of its block size, degrees and
    kind (`_fold_kernel`), which walks the whole run, unless its degrees
    are not ascending in 1..order (AlgebraError); a site with no operators
    leaves the series as it is."""
    matrix = isinstance(like, Matrix)
    if isinstance(like, float) or matrix and like.den is None:
        raise BackendMismatch("the chain fold takes exact operators only")
    d = like.cols if matrix else 1
    # T^(1)..T^(order) over the denominator dt
    t, dt = [[0] * (d * d)] * order, 1
    i = 0
    while i < len(sites):
        ops = sites[i]
        if ops:
            degrees = tuple([m for m, _ in ops])
            if sorted(set(degrees)) != list(degrees) or not 0 < degrees[0] <= degrees[-1] <= order:
                raise AlgebraError(f"site degrees {degrees} are not ascending within 1..{order}")
            t, dt, i = _fold_kernel(d, degrees, matrix)(t, dt, sites, i)
        else:
            i += 1
    return t, dt


def _fold_kernel(d: int, degrees: tuple, matrix: bool):
    """`kernel(T, dt, sites, i)`: the exact Lax steps, on flat d x d
    blocks, of the run of sites from `sites[i]` on whose operators have
    `degrees` (ascending, none above the order); it returns (T, dt, j), j
    the first site not taken: one of other degrees, or the end.

    T holds T^(1)..T^(order) over dt.  Each site reads its operators'
    numerators and denominators (a matrix's `num` and `den`, or when not
    `matrix` a scalar's `numerator` and `denominator`, as a 1 x 1 block),
    puts them over one dl, and forms each coefficient n = 1..order as the
    numerators dl*T^(n) + dt*L^(n) + sum_{m < n} T^(n-m) L^(m) over dt*dl,
    the site multiplied in on the right, reduced by `_reduced_blocks`.
    Integer sums do not depend on the order of their terms, so every term
    is formed, zero ones included.  Coefficients through the largest degree
    are one straight-line expression per entry, and each later one is a
    pass of one loop, so the source grows with d and the degrees but not
    with the order."""
    key = ("fold", d, degrees, matrix)
    kernel = _KERNELS.get(key)
    if kernel is None:
        size, top = d * d, degrees[-1]

        def coefficient(n: int, own: str, low) -> str:
            # `own` names T^(n)'s entries and `low(m)` those of T^(n-m)
            entries = []
            for i in range(d):
                for j in range(d):
                    terms = [f"dl*{own}{i * d + j}"]
                    if n in degrees:
                        terms.append(f"dt*l{n}_{i * d + j}")
                    for m in degrees:
                        if m < n:
                            terms.append(_entry(low(m), f"l{m}_", i, j, d, d, True))
                    entries.append(" + ".join(terms))
            return f"[{', '.join(entries)}]"

        pad = " " * 8
        # each operator's numerators and denominator; a scalar's numerator is a 1-tuple
        if matrix:
            num, den, scaled = "a{0}.num", "a{0}.den", "[v * (dl // e{0}) for v in a{0}.num]"
        else:
            num, den, scaled = "(a{0}.numerator,)", "a{0}.denominator", "(a{0}.numerator * (dl // e{0}),)"
        if len(degrees) == 1:
            read = f"{pad}dl = {den.format(top)}\n{pad}{_names(f'l{top}_', size)}= {num.format(top)}\n"
        else:
            # a degree whose denominator is not dl is scaled up to it
            dens = ", ".join(f"e{m}" for m in degrees)
            read = (f"{pad}{dens} = {', '.join(den.format(m) for m in degrees)}\n"
                    f"{pad}dl = lcm({dens})\n")
            read += "".join(f"{pad}{_names(f'l{m}_', size)}= {num.format(m)} if e{m} == dl else {scaled.format(m)}\n"
                            for m in degrees)
        head = "".join(f"{pad}{_names(f't{n}_', size)}= T[{n - 1}]\n" for n in range(1, top + 1))
        lows = "".join(f"{pad}    {_names(f'u{m}_', size)}= T[n - {m}]\n" for m in degrees)
        first = ", ".join(coefficient(n, f"t{n}_", lambda m, n=n: f"t{n - m}_") for n in range(1, top + 1))
        kernel = _compiled(key, f"def kernel(T, dt, sites, i):\n"
                                f"    for i in range(i, len(sites)):\n"
                                f"        ops = sites[i]\n"
                                f"        if len(ops) != {len(degrees)}:\n"
                                f"            return T, dt, i\n"
                                f"        {''.join(f'(m{m}, a{m}), ' for m in degrees)}= ops\n"
                                f"        if {' or '.join(f'm{m} != {m}' for m in degrees)}:\n"
                                f"            return T, dt, i\n"
                                f"{read}{head}"
                                f"        N = [{first}]\n"
                                f"        for n in range({top}, len(T)):\n"
                                f"            {_names('s', size)}= T[n]\n"
                                f"{lows}"
                                f"            N.append({coefficient(top + 1, 's', lambda m: f'u{m}_')})\n"
                                f"        T, dt = reduced_blocks(N, dt * dl)\n"
                                f"    return T, dt, len(sites)\n")
    return kernel


def _reduced_blocks(blocks: list, den: int) -> tuple:
    """Exact blocks and their shared denominator, divided by their gcd: the
    one reduction of raw blocks, per fold kernel site and `lax_log` power."""
    g = gcd(den, *chain.from_iterable(blocks)) if den != 1 else 1
    if g != 1:
        blocks = [[x // g for x in b] for b in blocks]
        den //= g
    return blocks, den


_lazy_sum = partial(map, add)


def poly_grid(terms: list, start, step, count: int) -> list:
    """[step * A(start + i*step) for i = 0..count-1], A(x) = sum_k C_k x^k,
    on raw integers.

    `terms` holds A's (degree, C_k) pairs, degrees nonnegative ints and
    the C_k exact square matrices of one shape, in any order; `start` and
    `step` are rationals.  With D the least common denominator of the C_k,
    each C_k is N_k / D, and with c that of `start` and `step` each site is
    x_i = p_i / c for an int p_i, so site i is step.numerator * sum_k N_k
    p_i^k c^(K-k) over D c^K step.denominator, K the largest degree: one
    int weight per term, one integer sum per entry, one gcd reduction per
    site.  The reduced form is unique, so every value equals, and hashes
    as, `A(x_i) * step` formed by matrix arithmetic.  Every C_k is read as
    its flat numerators, whichever store holds it.
    """
    start, step = Fraction(start), Fraction(step)
    d = terms[0][1].cols
    top = max(k for k, _ in terms)
    lcd = lcm(*(m.den for _, m in terms))
    c = lcm(start.denominator, step.denominator)
    p0, dp = start.numerator * (c // start.denominator), step.numerator * (c // step.denominator)
    # the part of each term's weight that no site changes, N_k's D / C_k.den included
    factors = [(k, step.numerator * c ** (top - k) * (lcd // m.den)) for k, m in terms]
    den = lcd * c ** top * step.denominator
    # per entry, the numerators of the terms at it
    cols = list(zip(*(m.num if d < SPARSE_FROM else _flat(m.num, d, 0) for _, m in terms)))
    out = []
    for i in range(count):
        p = p0 + i * dp
        weights = [f * p ** k for k, f in factors]
        num = [sum(map(mul, weights, col)) for col in cols]
        out.append(_reduced(_from_flat(num, d), d, d, den))
    return out


def commutator(a, b):
    """[a, b] = ab - ba, for operators of any backend."""
    return a * b - b * a


def kron_embed(op: Matrix, slots: tuple[int, ...], total: int, dim: int) -> Matrix:
    """Embed `op` (acting on the listed slots, in that order) into `total` factors.

    Slots are 0-based and distinct; the returned matrix acts on dim**total with
    slot 0 slowest. Factors outside `slots` carry the identity.  A `total`,
    `dim` or slot that is not a plain int (a bool included), a negative
    `total` or a `dim` below 1 is DimensionMismatch.
    """
    slots = tuple(slots)
    k = len(slots)
    if type(total) is not int or type(dim) is not int or total < 0 or dim < 1:
        raise DimensionMismatch(f"need int sizes, got {total!r} factors of size {dim!r}")
    if len(set(slots)) != k or any(type(s) is not int or s < 0 or s >= total for s in slots):
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
    out = [{} for _ in range(size)]
    for i, row in enumerate(_rows(op)):
        targets = [out[base[i] + off] for off in offs]
        for j, v in row.items():
            for target, off in zip(targets, offs):
                target[base[j] + off] = v
    # The same nonzero numerators over the same denominator: still reduced.
    return _wrap(_from_rows(out, size, op.den), size, size, op.den)


def permutation_op(dim: int) -> Matrix:
    """The flip on C^dim tensor C^dim: P(u x v) = v x u.  A `dim` that is
    not a plain int of at least 1 (a bool included) is DimensionMismatch."""
    if type(dim) is not int or dim < 1:
        raise DimensionMismatch(f"the flip needs an int dimension of at least 1, got {dim!r}")
    n = dim * dim
    rows = [{b * dim + a: 1} for a in range(dim) for b in range(dim)]
    return _wrap(_from_rows(rows, n, 1), n, n, 1)


def _block_size(m: Matrix, dim: int) -> int:
    """The size of the blocks of a square `m` with respect to its slot-0
    factor of size `dim`, which must be a plain int (a bool is not)."""
    n = m.rows
    if type(dim) is not int or dim < 1 or n != m.cols or n % dim:
        raise DimensionMismatch(f"a {n}x{m.cols} matrix has no blocks for a factor of size {dim!r}")
    return n // dim


def partial_trace_first(m: Matrix, dim: int) -> Matrix:
    """Trace out the slowest (slot-0) factor of size `dim`."""
    b = _block_size(m, dim)
    zero = _zero(m.den)
    rows = _rows(m)
    out = [{} for _ in range(b)]
    # each entry adds its diagonal blocks' terms from the backend's zero, block 0 first
    for lo in range(0, m.rows, b):
        for acc, row in zip(out, rows[lo:lo + b]):
            for c, v in row.items():
                if lo <= c < lo + b:
                    acc[c - lo] = acc.get(c - lo, zero) + v
    out = [{c: v for c, v in acc.items() if v} for acc in out]
    return _reduced(_from_rows(out, b, m.den), b, b, m.den)


def aux_block(m: Matrix, a: int, b: int, dim: int) -> Matrix:
    """The (a, b) block with respect to the slot-0 factor of size `dim`, read
    by nonzero rows from either store, so a float -0.0 entry reads 0.0."""
    s = _block_size(m, dim)
    if type(a) is not int or type(b) is not int or not (0 <= a < dim and 0 <= b < dim):
        raise DimensionMismatch(f"block ({a}, {b}) outside a slot-0 factor of size {dim}")
    lo, hi = b * s, (b + 1) * s
    rows = [{c - lo: v for c, v in row.items() if lo <= c < hi} for row in _rows(m)[a * s:(a + 1) * s]]
    return _reduced(_from_rows(rows, s, m.den), s, s, m.den)
