"""Exact matrix arithmetic and tensor-leg helpers."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product as iproduct
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp import matrix, ops
from ordexp.errors import AlgebraError, BackendMismatch, DimensionMismatch, SingularOperator
from ordexp.freealg import FreeElement
from ordexp.series import AlphaSeries
from ordexp.yangian import block_table
from ordexp.matrix import (
    SPARSE_FROM,
    Matrix,
    aux_block,
    commutator,
    fused_prelie_site,
    kron_embed,
    lax_fold,
    lax_log,
    partial_trace_first,
    permutation_op,
)

SRC = str(Path(matrix.__file__).resolve().parents[1])


def rand_matrix(rng, size=2, bound=5):
    return Matrix(
        [[Fraction(rng.randint(-bound, bound)) for _ in range(size)] for _ in range(size)]
    )


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Matrix([])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    for bad in (lambda: Matrix.zeros(0), lambda: Matrix.zeros(2, 0), lambda: Matrix.identity(0),
                lambda: Matrix.from_ints([], 0, 0), lambda: Matrix.from_ints([1, 2, 3], 2, 2),
                lambda: Matrix.from_ints([1, 2], 1, 1)):
        with pytest.raises(DimensionMismatch):
            bad()


def test_a_matrix_size_is_a_plain_int():
    for bad in (True, False, 2.0, Fraction(2), "2"):
        for make in (Matrix.identity, Matrix.zeros,
                     lambda n: Matrix.zeros(2, n), lambda n: Matrix.zeros(n, 2)):
            with pytest.raises(DimensionMismatch):
                make(bad)
    # the messages of the size rule below 1 are the ones `from_ints` gives
    with pytest.raises(DimensionMismatch, match="needs at least one row and column"):
        Matrix.identity(0)
    assert Matrix.identity(1).data == ((1,),) and Matrix.zeros(1, 3).data == ((0, 0, 0),)
    # `from_ints` keeps the same rule, with its message, where its entries fit the size
    for values, rows, cols in (([1, 2], 2.0, 1), ([1], True, True), ([1, 2, 3], "3", 1), ([1, 2], 1, 2.0)):
        with pytest.raises(DimensionMismatch, match="a matrix size is an int"):
            Matrix.from_ints(values, rows, cols)


def test_constructor_rejects_non_numeric_entries():
    with pytest.raises(TypeError):
        Matrix([[1, 1j]])
    with pytest.raises(TypeError):
        Matrix([["1"]])


def test_equality_and_hash():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Matrix([[1, 2], [3, 5]])
    # 0.0 and -0.0 are equal floats, so their matrices are equal and hash alike
    z, nz = Matrix([[0.0, 1.5]]), Matrix([[-0.0, 1.5]])
    assert z == nz and hash(z) == hash(nz)


def test_equality_distinguishes_shapes():
    # the same row-major entries in two shapes: equal flat lists, unequal matrices
    square_, wide, tall = Matrix([[1, 2], [3, 4]]), Matrix([[1, 2, 3, 4]]), Matrix([[1], [2], [3], [4]])
    assert square_.num == wide.num == tall.num
    # and in the row store: one row of 2n entries, or two rows of n
    n = SPARSE_FROM
    long_, two = Matrix([list(range(2 * n))]), Matrix([list(range(n)), list(range(n, 2 * n))])
    assert [v for row in long_.num for v in row.values()] == [v for row in two.num for v in row.values()]
    half = Fraction(1, 2)
    for x, y in ((square_, wide), (square_, tall), (wide, tall), (long_, two)):
        assert x != y
        assert x * half != y * half
        assert x.to_float() != y.to_float()
        assert x != y.to_float() and x.to_float() != y
    assert Matrix.zeros(1, 4) != Matrix.zeros(2, 2)
    assert Matrix.zeros(4, 1) != Matrix.zeros(1, 4)
    # equal matrices still hash alike, across storages; an exact matrix and
    # its float copy are two backends, so never equal
    for x in (square_, wide, tall, square_ * half, long_, two * half):
        same = Matrix([list(row) for row in x.data])
        assert same == x and hash(same) == hash(x)
        flt = x.to_float()
        assert flt != x and x != flt
        same = Matrix([list(row) for row in flt.data])
        assert same == flt and hash(same) == hash(flt)


def test_arithmetic_basics():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a + b - b == a
    assert -a + a == Matrix.zeros(2)
    assert a * Matrix.identity(2) == a
    assert Matrix.identity(2) * a == a
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert 2 * a == a + a
    assert a * Fraction(1, 2) + a * Fraction(1, 2) == a


def test_matmul_shape_check():
    a = Matrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        a * a


def test_inverse_round_trip_exact():
    # regression: exact augmentation must start from the identity columns
    rng = random.Random(5)
    count = 0
    while count < 20:
        a = rand_matrix(rng, size=3)
        try:
            inv = a.inverse()
        except SingularOperator:
            continue
        count += 1
        assert a * inv == Matrix.identity(3)
        assert inv * a == Matrix.identity(3)
        assert inv.is_exact()


def test_inverse_float_backend():
    a = Matrix([[2.0, 1.0], [1.0, 1.0]])
    prod = a * a.inverse()
    assert (prod - Matrix.identity(2).to_float()).max_abs() < 1e-12


def test_inverse_singular_raises():
    with pytest.raises(SingularOperator):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_is_exact_and_to_float():
    a = Matrix([[Fraction(1, 3), 1], [0, 2]])
    assert a.is_exact()
    f = a.to_float()
    assert not f.is_exact()
    assert abs(f.data[0][0] - 1 / 3) < 1e-15


def test_max_abs():
    assert Matrix([[1, -7], [3, 2]]).max_abs() == 7


def test_commutator_antisymmetry_and_jacobi():
    rng = random.Random(11)
    a, b, c = (rand_matrix(rng) for _ in range(3))
    assert commutator(a, b) == -commutator(b, a)
    jac = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert jac.is_zero()


def test_kron_block_structure():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 5], [6, 7]])
    k = a.kron(b)
    assert k.rows == 4
    # top-left block is a[0][0] * b
    assert Matrix([row[:2] for row in k.data[:2]]) == b
    assert Matrix([row[2:] for row in k.data[:2]]) == 2 * b


def test_kron_mixed_product():
    rng = random.Random(3)
    a, b, c, d = (rand_matrix(rng) for _ in range(4))
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_kron_embed_single_slot_matches_kron():
    a = Matrix([[1, 2], [3, 4]])
    eye = Matrix.identity(2)
    assert kron_embed(a, (0,), 2, 2) == a.kron(eye)
    assert kron_embed(a, (1,), 2, 2) == eye.kron(a)


def test_kron_embed_product_and_commutation():
    rng = random.Random(9)
    a, b = rand_matrix(rng), rand_matrix(rng)
    same = kron_embed(a, (1,), 3, 2) * kron_embed(b, (1,), 3, 2)
    assert same == kron_embed(a * b, (1,), 3, 2)
    x = kron_embed(a, (0,), 3, 2)
    y = kron_embed(b, (2,), 3, 2)
    assert x * y == y * x
    assert x * y == kron_embed(a.kron(b), (0, 2), 3, 2)


def test_kron_embed_slot_order_transposes_legs():
    p = permutation_op(2)
    rng = random.Random(13)
    a, b = rand_matrix(rng), rand_matrix(rng)
    ab = a.kron(b)
    # swapping the slot list conjugates by the flip
    assert kron_embed(ab, (1, 0), 2, 2) == p * ab * p


def test_kron_embed_validation():
    a = Matrix([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        kron_embed(a, (0, 0), 2, 2)
    with pytest.raises(DimensionMismatch):
        kron_embed(a, (2,), 2, 2)
    with pytest.raises(DimensionMismatch):
        kron_embed(a, (0, 1), 2, 2)
    # 2**-1 factors died with a bare TypeError
    with pytest.raises(DimensionMismatch):
        kron_embed(Matrix.identity(1), (), -1, 2)


def test_permutation_op_flips_and_squares_to_identity():
    for dim in (2, 3):
        p = permutation_op(dim)
        assert p * p == Matrix.identity(dim * dim)
        rng = random.Random(dim)
        a = rand_matrix(rng, size=dim)
        b = rand_matrix(rng, size=dim)
        assert p * a.kron(b) * p == b.kron(a)


@pytest.mark.parametrize("dim", [True, False, 2.0, Fraction(2)])
def test_permutation_op_takes_a_plain_int_dimension_only(dim):
    with pytest.raises(DimensionMismatch):
        permutation_op(dim)


def test_partial_trace_first():
    rng = random.Random(17)
    a, b = rand_matrix(rng), rand_matrix(rng)
    assert partial_trace_first(a.kron(b), 2) == (a.data[0][0] + a.data[1][1]) * b
    p = permutation_op(2)
    assert partial_trace_first(p, 2) == Matrix.identity(2)


def test_aux_block_reads_slot_zero_blocks():
    rng = random.Random(19)
    a, b = rand_matrix(rng), rand_matrix(rng)
    k = a.kron(b)
    for i in range(2):
        for j in range(2):
            assert aux_block(k, i, j, 2) == a.data[i][j] * b
    # the flip has e_ba in block (a, b)
    p = permutation_op(2)
    e10 = Matrix([[0, 0], [1, 0]])
    assert aux_block(p, 0, 1, 2) == e10


def test_aux_block_shape_check():
    with pytest.raises(DimensionMismatch):
        aux_block(Matrix.identity(3), 0, 0, 2)


@pytest.mark.parametrize("a,b", [(2, 0), (0, 2), (-1, 0), (0, -1), (5, 5)])
def test_aux_block_rejects_a_block_index_outside_the_factor(a, b):
    with pytest.raises(DimensionMismatch):
        aux_block(Matrix.identity(4), a, b, 2)


@pytest.mark.parametrize("dim", [0, -1, -2])
def test_block_helpers_reject_a_factor_below_one(dim):
    m = Matrix.identity(4)
    # kron_embed took (-2)**2 == 4 for the operator's size
    for call in (lambda: aux_block(m, 0, 0, dim), lambda: partial_trace_first(m, dim),
                 lambda: permutation_op(dim), lambda: kron_embed(m, (0, 1), 3, dim)):
        with pytest.raises(DimensionMismatch):
            call()


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
def test_tensor_legs_take_plain_int_sizes_only(bad):
    # a float or a string died with a bare TypeError, and a bool was taken as 1
    p, i9 = permutation_op(2), Matrix.identity(9)
    calls = [
        lambda: kron_embed(p, (0, 1), bad, 2), lambda: kron_embed(p, (0, 1), 2, bad),
        lambda: kron_embed(Matrix.identity(2), (bad,), 3, 2), lambda: partial_trace_first(p, bad),
        lambda: aux_block(p, 0, 0, bad), lambda: aux_block(i9, bad, 0, 3), lambda: aux_block(i9, 0, bad, 3),
        lambda: block_table(p, bad),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


# -- properties against a plain-Fraction reference -------------------------------
#
# The reference works on lists of int/Fraction/float entries with plain
# per-entry arithmetic; every exact result must match it entry for entry, and
# every result with a float operand must hold floats only, each bit for bit
# the reference entry rounded to float.


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_mul(a, b):
    out = [[0] * len(b[0]) for _ in a]
    for i, arow in enumerate(a):
        for k, x in enumerate(arow):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        out[i][j] = out[i][j] + x * y
    return out


def ref_scale(a, s):
    return [[x * s for x in row] for row in a]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_embed(op, slots, total, dim):
    def digits(i):
        return [(i // dim ** (total - 1 - s)) % dim for s in range(total)]

    def local(d):
        idx = 0
        for s in slots:
            idx = idx * dim + d[s]
        return idx

    size = dim ** total
    out = [[0] * size for _ in range(size)]
    for r in range(size):
        dr = digits(r)
        for c in range(size):
            dc = digits(c)
            # a zero entry of `op` (0.0 or -0.0) stays the zero of `out`
            if all(dr[s] == dc[s] for s in range(total) if s not in slots) and op[local(dr)][local(dc)]:
                out[r][c] = op[local(dr)][local(dc)]
    return out


def ref_partial_trace(a, dim):
    b = len(a) // dim
    return [[sum(a[i * b + r][i * b + c] for i in range(dim)) for c in range(b)] for r in range(b)]


def ref_det(a):
    rows = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def ref_float_inverse(a):
    """Gauss-Jordan on float rows, pivoting on the first row of largest
    magnitude; None when a column has no nonzero pivot."""
    n = len(a)
    rows = [[float(x) for x in row] + [1.0 if i == j else 0.0 for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = col
        for r in range(col + 1, n):
            if abs(rows[r][col]) > abs(rows[pivot][col]):
                pivot = r
        if not rows[pivot][col]:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def ref_str(a):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


def assert_stored(m):
    """`m` keeps the store of its shape in canonical form.  Below
    `SPARSE_FROM` columns that is one flat row-major list of `rows * cols`
    entries; from it on, one dict per row from column to entry, holding no
    zero.  The entries are integer numerators reduced over a positive
    `den` (so the zero matrix has `den == 1`), or floats only."""
    if m.cols < SPARSE_FROM:
        assert type(m.num) is list and len(m.num) == m.rows * m.cols
        values = m.num
    else:
        assert type(m.num) is list and len(m.num) == m.rows
        assert all(type(row) is dict for row in m.num)
        assert all(0 <= j < m.cols and v for row in m.num for j, v in row.items())
        values = [v for row in m.num for v in row.values()]
    if m.is_exact():
        assert m.den > 0
        assert all(type(x) is int for x in values)
        assert gcd(m.den, *values) == 1
    else:
        assert all(type(x) is float for x in values)


def assert_exact(m, ref):
    """`m` is exact, canonically stored, and holds the reference's values."""
    assert m.is_exact()
    assert_stored(m)
    assert all(type(x) in (int, Fraction) for row in m.data for x in row)
    assert [list(row) for row in m.data] == ref


def assert_bits(m, ref):
    """`m` holds the reference's entries with the same types and float bits."""
    assert [[repr(x) for x in row] for row in m.data] == [[repr(x) for x in row] for row in ref]


def assert_floats(m, ref):
    """`m` holds floats only: each reference entry rounded once to float, bit for bit."""
    assert not m.is_exact()
    assert_stored(m)
    assert all(type(x) is float for row in m.data for x in row)
    assert [[repr(x) for x in row] for row in m.data] == [[repr(float(x)) for x in row] for row in ref]


def assert_rebuilt(m):
    """`m` agrees with the matrix built from its entries: ==, hash, str,
    data and the store itself."""
    fresh = Matrix([list(row) for row in m.data])
    assert m == fresh and fresh == m and hash(m) == hash(fresh)
    assert str(m) == str(fresh) and m.data == fresh.data
    assert (m.rows, m.cols, m.den, m.num) == (fresh.rows, fresh.cols, fresh.den, fresh.num)


def as_read(ref, cols):
    """The reference as a matrix of `cols` columns reads it: the row store
    keeps no zero, so a float zero of either sign reads 0.0 there."""
    return ref if cols < SPARSE_FROM else [[x if x else 0 for x in row] for row in ref]


zero_heavy = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6),
)
floats = st.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False)
sizes = st.integers(1, 5)
exact_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=12),
)


def grid(rows, cols, entries=zero_heavy):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def same_shape(draw, second=zero_heavy):
    n, m = draw(sizes), draw(sizes)
    return draw(grid(n, m)), draw(grid(n, m, second))


@st.composite
def chain(draw, second=zero_heavy):
    n, k, m = draw(sizes), draw(sizes), draw(sizes)
    return draw(grid(n, k)), draw(grid(k, m, second))


@st.composite
def square(draw, max_size=5, entries=zero_heavy):
    n = draw(st.integers(1, max_size))
    return draw(grid(n, n, entries))


@settings(max_examples=40, deadline=None)
@given(same_shape())
def test_prop_add_sub_neg(ab):
    a, b = ab
    ma, mb = Matrix(a), Matrix(b)
    assert_exact(ma + mb, ref_add(a, b))
    assert_exact(ma - mb, ref_sub(a, b))
    assert_exact(-ma, ref_scale(a, -1))
    assert_exact(ma, ref_scale(a, 1))


@settings(max_examples=40, deadline=None)
@given(chain())
def test_prop_product(ab):
    a, b = ab
    assert_exact(Matrix(a) * Matrix(b), ref_mul(a, b))


@settings(max_examples=40, deadline=None)
@given(same_shape(), exact_scalars, floats)
def test_prop_scaling(ab, s, f):
    a = ab[0]
    m = Matrix(a)
    assert_exact(m * s, ref_scale(a, s))
    assert_exact(s * m, ref_scale(a, s))
    # a float scalar meets the matrix rounded to float, never the exact one
    assert_bits(m.to_float() * f, ref_scale(a, f))
    assert_bits(f * m.to_float(), ref_scale(a, f))
    with pytest.raises(BackendMismatch):
        m * f
    with pytest.raises(BackendMismatch):
        f * m


def test_zero_results_stay_canonical():
    def assert_zero(m, rows, cols):
        assert (m.rows, m.cols, m.den) == (rows, cols, 1)
        assert_stored(m)
        assert m.data == ((0,) * cols,) * rows
        assert m == Matrix.zeros(rows, cols) and m.is_zero()

    n = SPARSE_FROM
    for rows, cols in ((1, 1), (1, 4), (4, 1), (2, 3), (1, n), (n, 1), (3, n), (n, n + 2)):
        z = Matrix.zeros(rows, cols)
        for s in (0, Fraction(0), Fraction(3, 7), -5):
            assert_zero(z * s, rows, cols)
            assert_zero(s * z, rows, cols)
        a = Matrix([[Fraction(i - j + 1, i + 2 * j + 3) for j in range(cols)] for i in range(rows)])
        assert a.den > 1
        for s in (0, Fraction(0)):
            assert_zero(a * s, rows, cols)
            assert_zero(s * a, rows, cols)
        assert_zero(a - a, rows, cols)
        assert_zero(a + -a, rows, cols)


@settings(max_examples=40, deadline=None)
@given(same_shape())
def test_prop_kron_transpose_trace(ab):
    a, b = ab
    ma, mb = Matrix(a), Matrix(b)
    assert_exact(ma.kron(mb), ref_kron(a, b))


@settings(max_examples=40, deadline=None)
@given(square())
def test_prop_inverse(a):
    m = Matrix(a)
    n = len(a)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    try:
        inv = m.inverse()
    except SingularOperator:
        assert ref_det(a) == 0
        return
    assert_exact(inv, [list(row) for row in inv.data])
    assert ref_mul(a, [list(row) for row in inv.data]) == eye
    assert ref_mul([list(row) for row in inv.data], a) == eye


@st.composite
def embedding(draw, entries=zero_heavy):
    dim = draw(st.integers(1, 3))
    total = draw(st.integers(1, 3 if dim < 3 else 2))
    slots = draw(st.permutations(range(total)))[:draw(st.integers(1, total))]
    k = dim ** len(slots)
    return draw(grid(k, k, entries)), tuple(slots), total, dim


@settings(max_examples=40, deadline=None)
@given(embedding())
def test_prop_tensor_legs(case):
    op, slots, total, dim = case
    big = ref_embed(op, slots, total, dim)
    embedded = kron_embed(Matrix(op), slots, total, dim)
    assert_exact(embedded, big)
    assert_exact(partial_trace_first(embedded, dim), ref_partial_trace(big, dim))
    s = len(big) // dim
    for i in range(dim):
        for j in range(dim):
            want = [row[j * s:(j + 1) * s] for row in big[i * s:(i + 1) * s]]
            assert_exact(aux_block(embedded, i, j, dim), want)


@settings(max_examples=40, deadline=None)
@given(same_shape(), chain(), embedding(), square(), exact_scalars, floats)
def test_prop_flat_storage(ab, cd, case, sq, s, f):
    """Every constructor and operation keeps `rows * cols` canonical entries in
    its flat store; a wrong stride in a flat index shows here first."""
    def check(m, rows, cols):
        assert (m.rows, m.cols) == (rows, cols)
        assert_stored(m)

    n = len(sq)
    assert_exact(Matrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)])
    check(Matrix(sq) * Matrix.identity(n), n, n)
    a, b = ab
    r, c = len(a), len(a[0])
    assert_exact(Matrix.zeros(r, c), [[0] * c for _ in range(r)])
    ma, mb = Matrix(a), Matrix(b)
    check(ma.kron(mb), r * r, c * c)
    check(ma.to_float().kron(mb.to_float()), r * r, c * c)
    x, y = cd
    check(Matrix(x) * Matrix(y), len(x), len(y[0]))
    check(Matrix(x).to_float() * Matrix(y).to_float(), len(x), len(y[0]))
    for m in (ma, ma * Fraction(1, 3), ma.to_float()):
        check(m.to_float(), r, c)
        for scalar in (int(s), Fraction(s)) + (() if m.is_exact() else (f,)):
            check(m * scalar, r, c)
            check(scalar * m, r, c)
    op, slots, total, dim = case
    size, k = dim ** total, dim ** (total - 1)
    p = permutation_op(dim)
    assert_exact(p, [[int(i == (j % dim) * dim + j // dim) for j in range(dim * dim)] for i in range(dim * dim)])
    for embedded in (kron_embed(Matrix(op), slots, total, dim),
                     kron_embed(Matrix(op).to_float(), slots, total, dim)):
        check(embedded, size, size)
        check(partial_trace_first(embedded, dim), k, k)
        for i in range(dim):
            for j in range(dim):
                check(aux_block(embedded, i, j, dim), k, k)


@settings(max_examples=40, deadline=None)
@given(same_shape())
def test_prop_str_eq_hash(ab):
    a, b = ab
    ma, mb = Matrix(a), Matrix(b)
    assert str(ma) == ref_str(a)
    assert (ma == mb) == (a == b)
    assert ma == Matrix([[Fraction(x) for x in row] for row in a])
    assert hash(ma) == hash(Matrix([[Fraction(x) for x in row] for row in a]))
    # a float matrix equals the exact one rounded, never the exact one itself
    fl = Matrix([[float(x) for x in row] for row in a])
    assert ma != fl and fl != ma
    assert ma.to_float() == fl and hash(ma.to_float()) == hash(fl)


@settings(max_examples=40, deadline=None)
@given(same_shape())
def test_prop_max_abs(ab):
    a = ab[0]
    got = Matrix(a).max_abs()
    assert type(got) is Fraction
    assert got == max(abs(x) for row in a for x in row)


@settings(max_examples=40, deadline=None)
@given(same_shape(floats), chain(floats), exact_scalars, embedding(floats), square(entries=floats))
def test_prop_rounded_exact_with_float_is_bit_identical(ab, cd, s, case, sq):
    # an exact operand rounded once to float, then met by a float one,
    # matches the reference that mixes the two entry by entry
    a, b = ab
    fa, mb = Matrix(a).to_float(), Matrix(b)
    assert_floats(fa + mb, ref_add(a, b))
    assert_floats(mb + fa, ref_add(b, a))
    assert_floats(fa - mb, ref_sub(a, b))
    assert_floats(mb - fa, ref_sub(b, a))
    # a kron of SPARSE_FROM or more columns is in the row store, where 0.0 * -0.0 reads 0.0
    assert_floats(fa.kron(mb), as_read(ref_kron(a, b), len(a[0]) * len(b[0])))
    assert_floats(mb.kron(fa), as_read(ref_kron(b, a), len(a[0]) * len(b[0])))
    assert_floats(mb * s, ref_scale(b, s))
    assert_floats(s * mb, ref_scale(b, s))
    assert_floats(-mb, ref_scale(b, -1.0))
    assert_floats(fa, a)
    c, d = cd
    fc, md = Matrix(c).to_float(), Matrix(d)
    assert_floats(fc * md, ref_mul(c, d))
    dt, ct = [list(r) for r in zip(*d)], [list(r) for r in zip(*c)]
    assert_floats(Matrix(dt) * Matrix(ct).to_float(), ref_mul(dt, ct))
    op, slots, total, dim = case
    big = ref_embed(op, slots, total, dim)
    embedded = kron_embed(Matrix(op), slots, total, dim)
    assert_floats(embedded, big)
    assert_floats(partial_trace_first(embedded, dim), ref_partial_trace(big, dim))
    k = len(big) // dim
    for i in range(dim):
        for j in range(dim):
            assert_floats(aux_block(embedded, i, j, dim), [row[j * k:(j + 1) * k] for row in big[i * k:(i + 1) * k]])
    want = ref_float_inverse(sq)
    if want is None:
        with pytest.raises(SingularOperator):
            Matrix(sq).inverse()
    else:
        assert_floats(Matrix(sq).inverse(), want)


mixed = st.one_of(zero_heavy, floats)


@settings(max_examples=40, deadline=None)
@given(same_shape(mixed), floats)
def test_prop_float_matrix_holds_floats_only(ab, f):
    b = ab[1]
    b[0][0] = f
    mb = Matrix(b)
    assert_floats(mb, b)
    assert_floats(-mb, [[-float(x) for x in row] for row in b])
    assert_floats(mb * Fraction(1, 3), [[float(x) * float(Fraction(1, 3)) for x in row] for row in b])
    zeros = [[0] * len(b) for _ in b[0]]
    bt = [list(col) for col in zip(*b)]
    assert_floats(Matrix(bt) * mb, ref_mul([[float(x) for x in row] for row in bt],
                                           [[float(x) for x in row] for row in b]))
    assert_floats(Matrix(zeros).to_float() * mb, [[0.0] * len(b[0]) for _ in b[0]])


# -- the row store, against the same reference ----------------------------------
#
# From `SPARSE_FROM` columns on, a matrix holds only its nonzero rows.  The
# shapes below straddle the rule, so every property meets both stores, and
# the products meet every mix of them.

edges = st.sampled_from([1, 2, SPARSE_FROM - 1, SPARSE_FROM, SPARSE_FROM + 2])
sparse = st.one_of(st.just(0), st.just(0), zero_heavy)
sparse_floats = st.one_of(st.just(0.0), st.just(-0.0), floats)


@st.composite
def edge_pair(draw, entries=sparse):
    rows, cols = draw(edges), draw(edges)
    return draw(grid(rows, cols, entries)), draw(grid(rows, cols, entries))


@st.composite
def edge_chain(draw, entries=sparse):
    """Two left factors of one shape and a right factor."""
    rows, inner, cols = draw(edges), draw(edges), draw(edges)
    return draw(grid(rows, inner, entries)), draw(grid(rows, inner, entries)), draw(grid(inner, cols, entries))


@st.composite
def row_store_embedding(draw, entries=sparse):
    """An operator of SPARSE_FROM or more rows placed on some of the factors."""
    dim, k, total = draw(st.sampled_from([(2, 3, 3), (2, 3, 4), (3, 2, 2), (3, 2, 3)]))
    slots = draw(st.permutations(range(total)))[:k]
    return draw(grid(dim ** k, dim ** k, entries)), tuple(slots), total, dim


@settings(max_examples=40, deadline=None)
@given(edge_pair(), exact_scalars, edge_pair(sparse_floats), floats)
def test_prop_row_store_sums_and_scalings(ab, s, fg, f):
    a, b = ab
    ma, mb = Matrix(a), Matrix(b)
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    for got, want in ((ma + mb, ref_add(a, b)), (ma - mb, ref_sub(a, b)), (-ma, ref_scale(a, -1)),
                      (ma * s, ref_scale(a, s)), (s * ma, ref_scale(a, s)), (ma * 3, ref_scale(a, 3)),
                      (ma * 0, ref_scale(a, 0)), (Fraction(0) * ma, ref_scale(a, 0)),
                      (ma * third - mb * sixth, ref_sub(ref_scale(a, third), ref_scale(b, sixth)))):
        assert_exact(got, want)
        assert_rebuilt(got)
    assert (ma * 0).is_zero() and (ma - ma).is_zero()
    x, y = fg
    mx, my = Matrix(x), Matrix(y)
    cols = len(x[0])
    for got, want in ((mx + my, ref_add(x, y)), (mx - my, ref_sub(x, y)), (-mx, ref_scale(x, -1.0)),
                      (mx * f, ref_scale(x, f)), (f * mx, ref_scale(x, f)), (mx * 0, ref_scale(x, 0.0)),
                      (mx * third, ref_scale(x, float(third))), (ma.to_float(), a)):
        assert_floats(got, as_read(want, cols))
        assert_rebuilt(got)


@settings(max_examples=40, deadline=None)
@given(edge_chain(), edge_chain(sparse_floats))
def test_prop_row_store_products(ab, cd):
    # a sum's rows hold their columns out of order, and a float product
    # must still add each entry's terms in order of the inner index
    for (a, a2, b), check in ((ab, assert_exact), (cd, assert_floats)):
        ma, mb = Matrix(a), Matrix(b)
        for got, want in ((ma * mb, ref_mul(a, b)), ((ma + Matrix(a2)) * mb, ref_mul(ref_add(a, a2), b))):
            check(got, want)
            assert_rebuilt(got)


@settings(max_examples=25, deadline=None)
@given(row_store_embedding(), row_store_embedding(sparse_floats), edge_pair())
def test_prop_row_store_tensor_legs(case, float_case, ab):
    for (op, slots, total, dim), check in ((case, assert_exact), (float_case, assert_floats)):
        big = ref_embed(op, slots, total, dim)
        embedded = kron_embed(Matrix(op), slots, total, dim)
        check(embedded, big)
        trace = partial_trace_first(embedded, dim)
        check(trace, ref_partial_trace(big, dim))
        s = len(big) // dim
        blocks = [aux_block(embedded, i, j, dim) for i in range(dim) for j in range(dim)]
        for n, block in enumerate(blocks):
            i, j = divmod(n, dim)
            check(block, [row[j * s:(j + 1) * s] for row in big[i * s:(i + 1) * s]])
        square_ = embedded * embedded
        check(square_, ref_mul(big, big))
        for m in [embedded, trace, square_] + blocks:
            assert_rebuilt(m)
    a, b = ab
    for x, y in ((a, b), (a, [[1, 0], [2, 3]]), ([[0, 2], [1, 0]], b)):
        got = Matrix(x).kron(Matrix(y))
        assert_exact(got, ref_kron(x, y))
        assert_rebuilt(got)


def test_the_row_store_reads_a_float_zero_of_either_sign_as_zero():
    # a store that drops zeros cannot keep a -0.0: from SPARSE_FROM columns
    # on it reads 0.0, as a product's zeros always did; below it the flat
    # store keeps the sign
    n = SPARSE_FROM
    signed = [[-0.0 if (i + j) % 2 else 1.5 for j in range(n)] for i in range(n)]
    zero = Matrix.zeros(n).to_float()
    m = Matrix(signed)
    assert [[repr(x) for x in row] for row in m.data] == \
        [["0.0" if (i + j) % 2 else "1.5" for j in range(n)] for i in range(n)]
    for z in (Matrix([[-0.0] * n] * n), -zero, m - m, m * 0.0, m * -0.0, -(m * 0)):
        assert z.is_zero() and z == zero and hash(z) == hash(zero)
        assert {repr(x) for row in z.data for x in row} == {"0.0"}
        assert_stored(z)
    assert repr(Matrix([[-0.0] * (n - 1)]).data[0][0]) == "-0.0"


# -- the fused pre-Lie site kernel and the sparse product path ---------------------
#
# `fused_prelie_site(p, q, x, y)` must give `(p*q - q*p) + x*y` bit for bit,
# and a product above the size rule, which walks cached nonzero rows, must
# give the plain reference product; both are checked against the composed
# `Matrix` formula and against the plain-list reference above.


def ref_prelie_site(p, q, x, y):
    return ref_add(ref_sub(ref_mul(p, q), ref_mul(q, p)), ref_mul(x, y))


def composed(p, q, x, y):
    return (p * q - q * p) + x * y


def rand_entry(rng, exact):
    """About 10 % exact zeros; on floats about 5 % -0.0 as well."""
    u = rng.random()
    if u < 0.1:
        return 0
    if not exact and u < 0.15:
        return -0.0
    v = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return v if exact else float(v) + rng.uniform(-1e-3, 1e-3)


def rand_grid(rng, rows, cols, exact, fill=1.0):
    return [[rand_entry(rng, exact) if rng.random() < fill else 0 for _ in range(cols)]
            for _ in range(rows)]


def embedded_grid(rng, dim, exact):
    """A random two-slot operator placed on two of three factors: a sparse
    dim**3 x dim**3 matrix, as the tensor-product checks build."""
    slots = tuple(rng.sample(range(3), 2))
    op = Matrix(rand_grid(rng, dim * dim, dim * dim, exact))
    if not exact:
        op = op.to_float()
    return [list(row) for row in kron_embed(op, slots, 3, dim).data]


def assert_same_bits(m, ref):
    """`m` holds `ref`'s values: exact and canonical, or floats bit for bit."""
    if m.is_exact():
        assert_exact(m, [[Fraction(x) for x in row] for row in ref])
    else:
        assert_floats(m, ref)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("kind", ["2x2", "3x3", "kron-8x8", "kron-27x27"])
def test_fused_prelie_site_matches_the_composed_formula(kind, exact):
    rng = random.Random(f"{kind}-{exact}")
    count = {"2x2": 150, "3x3": 100, "kron-8x8": 20, "kron-27x27": 4}[kind]
    for _ in range(count):
        if kind.startswith("kron"):
            grids = [embedded_grid(rng, 2 if kind == "kron-8x8" else 3, exact) for _ in range(4)]
        else:
            n = int(kind[0])
            grids = [rand_grid(rng, n, n, exact) for _ in range(4)]
        mats = [Matrix(g) if exact else Matrix(g).to_float() for g in grids]
        got = fused_prelie_site(*mats)
        assert [repr(v) for v in got.data] == [repr(v) for v in composed(*mats).data]
        assert ops.prelie_site(*mats).data == got.data
        assert_same_bits(got, ref_prelie_site(*grids))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_fused_prelie_site_checks_its_operands_shapes(exact):
    # four operands of one shape made of whole square blocks, or DimensionMismatch
    a, c, s = (as_matrix(g, exact) for g in ([[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                             [[1, 2], [3, 4], [5, 6], [7, 8]]))
    for args in ((a, a, a, c), (s, a, s, s), (c, c, c, a), (a, a, s, s)):
        with pytest.raises(DimensionMismatch):
            fused_prelie_site(*args)
    tall = as_matrix([[1, 2], [3, 4], [5, 6]], exact)
    with pytest.raises(DimensionMismatch):
        fused_prelie_site(tall, tall, tall, tall)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_fused_prelie_site_with_a_zero_prefix_sum(exact):
    # site 1 of a pre-Lie product: p (or q) is the empty prefix sum, a zero
    rng = random.Random(3)
    zero = Matrix.zeros(2) if exact else Matrix.zeros(2).to_float()
    for _ in range(20):
        x, y = (Matrix(rand_grid(rng, 2, 2, exact)) for _ in range(2))
        for args in ((zero, y, x, y), (x, zero, x, y)):
            got = fused_prelie_site(*args)
            assert [repr(v) for v in got.data] == [repr(v) for v in composed(*args).data]
            assert [repr(v) for v in got.data] == [repr(v) for v in (x * y).data]


@pytest.mark.parametrize("n", [2, SPARSE_FROM])
def test_zero_entries_never_meet_an_infinite_one(n):
    # a product skips zero entries, 0.0 and -0.0 alike, so 0 * inf (a nan)
    # is never formed, on the dense path and on the cached-row path
    inf = float("inf")
    rng = random.Random(n)
    for _ in range(20):
        grids = [[[rng.choice([0.0, -0.0, 1.5, -2.0, inf, -inf]) for _ in range(n)] for _ in range(n)]
                 for _ in range(4)]
        p, q, x, y = map(Matrix, grids)
        assert_floats(p * q, ref_mul(grids[0], grids[1]))
        assert_floats(fused_prelie_site(p, q, x, y), ref_prelie_site(*grids))


def stack_grids(rng, n_blocks, d, exact, fill=1.0):
    """N random d x d blocks, and their rows on top of each other."""
    blocks = [rand_grid(rng, d, d, exact, fill) for _ in range(n_blocks)]
    return blocks, [row for block in blocks for row in block]


def as_matrix(grid, exact):
    return Matrix(grid) if exact else Matrix(grid).to_float()


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("d", [1, 2, 3, SPARSE_FROM])
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_stacked_fused_prelie_site_is_each_block_bit_for_bit(n_blocks, d, exact, bits):
    # every block of a stack is the N = 1 kernel on that block, and the
    # composed formula, entry for entry; at d = SPARSE_FROM each block's
    # three products walk its nonzero rows
    rng = random.Random(f"{n_blocks}-{d}-{exact}")
    fill = 0.4 if d >= SPARSE_FROM else 1.0
    for _ in range(3 if d >= SPARSE_FROM else 25):
        parts = [stack_grids(rng, n_blocks, d, exact, fill) for _ in range(4)]
        got = fused_prelie_site(*(as_matrix(grid, exact) for _, grid in parts))
        assert (got.rows, got.cols) == (n_blocks * d, d)
        assert_stored(got)
        want = []
        for n in range(n_blocks):
            mats = [as_matrix(blocks[n], exact) for blocks, _ in parts]
            one = fused_prelie_site(*mats)
            assert bits(one) == bits(composed(*mats))
            assert bits(Matrix(got.data[n * d:(n + 1) * d])) == bits(one)
            want += [list(row) for row in one.data]
        assert got == as_matrix(want, exact)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_a_stack_of_small_blocks_keeps_the_dense_loop(monkeypatch, exact):
    # the size rule reads the block, not the stack's rows: sixteen 2x2 sites
    # make 32 rows, keep the flat store, take the compiled 2x2 kernel, and
    # build no nonzero rows
    def refuse(*args):
        raise AssertionError("a stack of 2x2 blocks walked its nonzero rows")

    rng = random.Random(8)
    parts = [stack_grids(rng, 16, 2, exact) for _ in range(4)]
    stacks = [as_matrix(grid, exact) for _, grid in parts]
    monkeypatch.setattr(matrix, "_nonzero_rows", refuse)
    got = fused_prelie_site(*stacks)
    assert all(len(m.num) == 32 * 2 for m in stacks + [got])
    for n in range(16):
        want = fused_prelie_site(*(as_matrix(blocks[n], exact) for blocks, _ in parts))
        assert Matrix(got.data[2 * n:2 * n + 2]) == want


# -- the compiled kernels below the size rule --------------------------------------
#
# Below `SPARSE_FROM` a product, and each block of a fused pre-Lie site, is
# one straight-line function compiled for its shape.  The interpreted loop it
# replaced is kept here as the reference, and every kernel must give its
# entries bit for bit: on floats each entry starts from 0.0 and adds the
# products of its nonzero terms in order of the inner index.


def dense_loop(a, b, zero):
    """The flat entries of the block products a_n b_n of two stacks, as the
    interpreted dense loop formed them: `b` holds N = `b.rows // a.cols`
    blocks and `a` N blocks of `a.rows // N` rows."""
    adata, bdata, n, cols = a.num, b.num, a.cols, b.cols
    m = a.rows * n // b.rows
    out = [zero] * (a.rows * cols)
    o = 0
    base = 0
    end = step = m * n
    for i in range(0, len(adata), n):
        if i == end:
            base += n * cols
            end += step
        k = base
        for aik in adata[i:i + n]:
            if aik:
                for j, bkj in enumerate(bdata[k:k + cols], o):
                    if bkj:
                        out[j] += aik * bkj
            k += cols
        o += cols
    return out


# 1e-200 times -1e-200 underflows to -0.0, and 1e200 squared overflows to inf
SPECIAL = [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e-200, -1e-200, 1e200, -1.5]


def kernel_entry(rng, kind):
    """An int, a Fraction whose denominator is not 1, an ordinary float (about
    10 % zeros of either sign), or a special float: zeros of both signs,
    infinities, nans, and values whose products underflow or overflow."""
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "fraction":
        return Fraction(rng.randint(-9, 9), rng.randint(2, 12))
    if kind == "special":
        return rng.choice(SPECIAL) if rng.random() < 0.5 else rng.uniform(-2, 2)
    u = rng.random()
    return (0.0 if u < 0.05 else -0.0) if u < 0.1 else rng.uniform(-9, 9)


def kernel_matrix(rng, rows, cols, kind):
    return Matrix([[kernel_entry(rng, kind) for _ in range(cols)] for _ in range(rows)])


def from_flat(num, rows, cols, den):
    """A matrix from unreduced flat entries: numerators over `den`, or floats."""
    if den is None:
        return Matrix([num[i:i + cols] for i in range(0, len(num), cols)])
    return Matrix([[Fraction(v, den) for v in num[i:i + cols]] for i in range(0, len(num), cols)])


KINDS = ["int", "fraction", "float", "special"]
SMALL = range(1, SPARSE_FROM)


@pytest.mark.parametrize("kind", KINDS)
def test_every_small_product_shape_is_the_dense_loop_bit_for_bit(kind, bits):
    rng = random.Random(kind)
    for m, n, cols in iproduct(SMALL, SMALL, SMALL):
        for _ in range(2):
            a, b = kernel_matrix(rng, m, n, kind), kernel_matrix(rng, n, cols, kind)
            exact = a.is_exact()
            zero = 0 if exact else 0.0
            flat = matrix._product(a, b)
            want = dense_loop(a, b, zero)
            assert [repr(v) for v in flat] == [repr(v) for v in want]
            assert all(type(v) is (int if exact else float) for v in flat)
            den = a.den * b.den if exact else None
            assert bits(a * b) == bits(from_flat(want, m, cols, den))


def prelie_reference(p, q, x, y):
    """(pq - qp) + xy of each block of four stacks from the dense loop's
    products: floats combined entry by entry, exact values as Fractions."""
    zero = 0.0 if p.den is None else 0
    pq, qp, xy = dense_loop(p, q, zero), dense_loop(q, p, zero), dense_loop(x, y, zero)
    if p.den is None:
        return from_flat([(a - b) + c for a, b, c in zip(pq, qp, xy)], p.rows, p.cols, None)
    dpq, dxy = p.den * q.den, x.den * y.den
    return from_flat([Fraction(a - b, dpq) + Fraction(c, dxy) for a, b, c in zip(pq, qp, xy)],
                     p.rows, p.cols, 1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_every_small_fused_kernel_is_the_dense_loop_bit_for_bit(n_blocks, kind, bits):
    rng = random.Random(f"{n_blocks}-{kind}")
    for d in SMALL:
        for _ in range(6):
            stacks = [kernel_matrix(rng, n_blocks * d, d, kind) for _ in range(4)]
            got = fused_prelie_site(*stacks)
            assert_stored(got)
            assert bits(got) == bits(prelie_reference(*stacks))
            for n in range(n_blocks):
                blocks = [Matrix(s.data[n * d:(n + 1) * d]) for s in stacks]
                assert bits(Matrix(got.data[n * d:(n + 1) * d])) == bits(composed(*blocks))


def test_kernels_are_compiled_on_first_use_and_only_below_the_size_rule():
    # a fresh interpreter: importing compiles nothing, an exact chain folded
    # at order 4 and at order 12 compiles one fold kernel, and a seed-1 pass
    # of every suite on both backends and of some expand requests makes
    # kernels only for shapes below the size rule, though yangian multiplies
    # 8x8 and larger operators
    script = """
import ordexp
print(len(ordexp.matrix._KERNELS))
from ordexp import cli, matrix
from ordexp.matrix import Matrix, lax_fold
site = [(1, Matrix([[1, 2], [3, 4]])), (3, Matrix([[0, 1], [1, 0]]))]
for order in (4, 12):
    lax_fold(Matrix.identity(2), [site] * 3, order)
    print(repr(sorted(matrix._KERNELS, key=repr)))
from ordexp.suites import SUITES, SuiteConfig, run_suite
for suite in sorted(SUITES):
    for backend in ("exact", "float"):
        run_suite(suite, SuiteConfig(seed=1, backend=backend))
for spec in ("matrix:rand(2x2,int<=3);N=16", "matrix:rand(3x3,int<=3);N=8;degrees=1,2",
             "matrix:rand(4x4,int<=3);N=4"):
    for form in ("dyson", "magnus-oracle"):
        cli.main(["expand", spec, "--form", form])
print(repr(sorted(matrix._KERNELS, key=repr)))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC})
    lines = done.stdout.splitlines()
    assert lines[0] == "0"
    # the fold kernel's key has no order in it
    assert ast.literal_eval(lines[1]) == ast.literal_eval(lines[2]) == [("fold", 2, (1, 3), True)]
    keys = ast.literal_eval(lines[-1])
    assert ("product", 2, 2, 2, True) in keys and ("prelie", 2, False) in keys
    assert any(key[0] == "fold" and key[1] > 2 for key in keys)
    for key in keys:
        if key[0] == "fold":
            # (kind, block size, degrees, matrix or scalar)
            _, d, degrees, matrix_kind = key
            assert 1 <= d < SPARSE_FROM and matrix_kind in (True, False)
            assert type(degrees) is tuple and degrees == tuple(sorted(set(degrees)))
            assert all(type(m) is int and m >= 1 for m in degrees)
            continue
        kind, *shape, exact = key
        assert kind in ("product", "prelie") and exact in (True, False)
        assert all(1 <= s < SPARSE_FROM for s in shape)


def test_the_exact_boundary_suite_compiles_no_fold_kernel():
    # its chains are walked prefix by prefix, by the series product alone
    script = """
from ordexp import matrix
from ordexp.suites import SuiteConfig, run_suite
run_suite("boundary", SuiteConfig(seed=1, backend="exact"))
print(repr(sorted(matrix._KERNELS, key=repr)))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": SRC})
    keys = ast.literal_eval(done.stdout)
    assert keys and not [key for key in keys if key[0] == "fold"]


def test_prelie_site_falls_back_to_the_composed_formula(monkeypatch):
    def refuse(*args):
        raise AssertionError("the fused kernel met operands it does not take")

    monkeypatch.setattr(ops, "fused_prelie_site", refuse)
    rng = random.Random(5)
    e, f = (Matrix(rand_grid(rng, 2, 2, True)) for _ in range(2))
    g, h = (Matrix(rand_grid(rng, 2, 2, False)).to_float() for _ in range(2))
    wide, tall = Matrix(rand_grid(rng, 2, 3, True)), Matrix(rand_grid(rng, 3, 2, True))
    cases = [
        (e, f, wide, tall),  # x*y is 2x2, but x and y are not square
        (Fraction(1, 3), Fraction(2), Fraction(-5, 7), Fraction(3, 4)),
        (0.25, -1.5, 3.0, 0.5),
    ]
    for args in cases:
        got, want = ops.prelie_site(*args), composed(*args)
        if isinstance(want, Matrix):
            got, want = got.data, want.data
        assert repr(got) == repr(want)
    x, y = FreeElement.gen("x"), FreeElement.gen("y", site=2)
    assert ops.prelie_site(x, y, x * Fraction(1, 2), y) == composed(x, y, x * Fraction(1, 2), y)
    with pytest.raises(DimensionMismatch):
        ops.prelie_site(e, wide, e, f)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("shape", [
    (SPARSE_FROM - 1,) * 3, (SPARSE_FROM,) * 3, (SPARSE_FROM + 1,) * 3,
    (2, SPARSE_FROM, 3), (SPARSE_FROM, 2, SPARSE_FROM), (1, SPARSE_FROM, 1), (3, 2, SPARSE_FROM + 4),
])
def test_products_match_the_reference_on_both_sides_of_the_size_rule(shape, exact):
    rows, inner, cols = shape
    rng = random.Random(f"{shape}-{exact}")
    for fill in (0.1, 0.5, 1.0):
        a, b = rand_grid(rng, rows, inner, exact, fill), rand_grid(rng, inner, cols, exact, fill)
        ma, mb = Matrix(a), Matrix(b)
        if not exact:
            ma, mb = ma.to_float(), mb.to_float()
        assert_same_bits(ma * mb, ref_mul(a, b))
        # an exact and a float operand never meet, on either side
        ea, eb = (Matrix([[Fraction(x) for x in row] for row in g]) for g in (a, b))
        for x, y in ((ea, eb.to_float()), (ea.to_float(), eb)):
            with pytest.raises(BackendMismatch):
                x * y


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_row_store_operands_are_read_as_stored(monkeypatch, exact):
    # a matrix at or above the size rule holds its nonzero rows from the
    # start, so a product reads them on either side and builds none
    def refuse(*args):
        raise AssertionError("a row-store operand had its nonzero rows rebuilt")

    rng = random.Random(9)
    n = SPARSE_FROM + 1
    grids = [rand_grid(rng, n, n, exact, 0.3) for _ in range(3)]
    m, b, c = (as_matrix(g, exact) for g in grids)
    monkeypatch.setattr(matrix, "_nonzero_rows", refuse)
    for got, (x, y) in ((m * b, (0, 1)), (c * m, (2, 0)), (m * c, (0, 2)), (m * m, (0, 0))):
        assert_same_bits(got, ref_mul(grids[x], grids[y]))


def test_row_store_results_keep_equality_key_and_hash():
    # a row's entries sit in the order an operation met them, which none of
    # ==, hash, str and data may read: a + b and b + a hold their rows in
    # different orders, and each result agrees with its rebuilt matrix
    rng = random.Random(4)
    n = SPARSE_FROM
    for exact in (True, False):
        a, b = (as_matrix(rand_grid(rng, n, n, exact, 0.3), exact) for _ in range(2))
        ab, ba = a + b, b + a
        assert any(list(x) != list(y) for x, y in zip(ab.num, ba.num))
        assert ab == ba and hash(ab) == hash(ba) and str(ab) == str(ba)
        for got in (ab, ba, a - b, -(b - a), a * b, a * Fraction(2, 3) if exact else a * 0.5):
            assert_rebuilt(got)


# -- one backend per operation ----------------------------------------------------


def test_every_operation_refuses_an_exact_and_a_float_matrix():
    e = Matrix([[1, Fraction(1, 2)], [0, 3]])
    f = Matrix([[0.5, -1.0], [2.0, 0.0]])
    big_e, big_f = Matrix.identity(SPARSE_FROM), Matrix.identity(SPARSE_FROM).to_float()
    for x, y in ((e, f), (f, e), (big_e, big_f), (big_f, big_e)):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x.kron(y)):
            with pytest.raises(BackendMismatch):
                op()
        assert x != y and not x == y
    for args in ((e, e, e, f), (f, f, f, e), (e, f, e, e), (f, e, f, f)):
        with pytest.raises(BackendMismatch):
            fused_prelie_site(*args)
        with pytest.raises(BackendMismatch):
            ops.prelie_site(*args)


@pytest.mark.parametrize("like", [Matrix.identity(2).to_float(), 1.0], ids=["float-matrix", "float-scalar"])
@pytest.mark.parametrize("n_sites", [0, 2])
def test_the_chain_fold_and_its_log_refuse_a_float_template(like, n_sites):
    # the raw chain layer is integer-only: float chains grow by the series product
    sites = [[(1, like)]] * n_sites
    with pytest.raises(BackendMismatch):
        lax_fold(like, sites, 2)
    with pytest.raises(BackendMismatch):
        lax_log(like, sites, 2)


@pytest.mark.parametrize("site", [
    [(2, Fraction(1, 2)), (1, Fraction(1))],  # descending
    [(1, Fraction(1)), (1, Fraction(2))],  # repeated
    [(1, Fraction(1)), (4, Fraction(1))],  # above the order
    [(0, Fraction(1))],  # below 1
], ids=["descending", "repeated", "above-order", "zero"])
def test_the_chain_fold_and_its_log_refuse_a_malformed_site(site):
    # checked once per run of sites with one degree tuple, before its kernel
    sites = [[(1, Fraction(1))], site]
    with pytest.raises(AlgebraError):
        lax_fold(Fraction(1), sites, 3)
    with pytest.raises(AlgebraError):
        lax_log(Fraction(1), sites, 3)
    with pytest.raises(AlgebraError):
        lax_log(Matrix.identity(2), [[(m, Matrix.identity(2) * v) for m, v in site]], 3)


@st.composite
def exact_chains(draw):
    """(like, sites, order): a chain of exact scalars (d = 0; ints and
    Fractions) or of exact d x d matrices, d = 1..7, as `lax_fold` takes it.
    A site holds up to three of the degrees 1..order with denominators
    drawn apart, now and then a zero operator, or none at all, so the
    degree tuple changes along the chain."""
    d = draw(st.integers(0, 7))
    order = draw(st.integers(1, 5))
    sites = []
    for _ in range(draw(st.integers(0, 6))):
        pairs = []
        for m in sorted(draw(st.sets(st.integers(1, order), max_size=3))):
            den = draw(st.sampled_from((1, 1, 2, 3, 4, 6)))
            zero = draw(st.integers(0, 9)) == 0
            if d == 0:
                value = Fraction(draw(st.integers(-3, 3)) * (not zero), den)
                pairs.append((m, int(value) if value.denominator == 1 and draw(st.booleans()) else value))
            else:
                nums = draw(st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d))
                pairs.append((m, Matrix([[Fraction(v * (not zero), den) for v in nums[i:i + d]]
                                       for i in range(0, d * d, d)])))
        sites.append(pairs)
    return (Fraction(1) if d == 0 else Matrix.identity(d)), sites, order


def plain_site_series(like, pairs, order):
    """A site's series 1 + sum_m alpha^m L^(m), each coefficient plus the
    template's zero, as `SiteOperatorFamily.lax_series` forms it."""
    zero, given = ops.zero_like(like), dict(pairs)
    return AlphaSeries([ops.one_like(like)] + [given.get(m, zero) + zero for m in range(1, order + 1)])


def same_series(got: list, want: AlphaSeries):
    assert got == list(want.coeffs)
    assert [type(c) for c in got] == [type(c) for c in want.coeffs]
    assert [hash(c) for c in got] == [hash(c) for c in want.coeffs]
    assert hash(AlphaSeries(got)) == hash(want)


@settings(max_examples=100, deadline=None)
@given(exact_chains())
def test_the_chain_fold_and_its_log_are_the_plain_series_products(case):
    like, sites, order = case
    laxes = [plain_site_series(like, site, order) for site in sites]
    t = AlphaSeries.one(order, like=like)
    for k, lax in enumerate(laxes, start=1):
        t = t * lax
        same_series(lax_fold(like, sites[:k], order), t)
        # the raw blocks are reduced after every site, so the integers stay small
        u, du = matrix._raw_fold(like, sites[:k], order)
        assert gcd(du, *(x for b in u for x in b)) == 1
    same_series(lax_fold(like, sites, order), t)
    log = t.log()
    got = lax_log(like, sites, order)
    assert [type(q) for q in got] == [type(q) for q in log.coeffs[1:]]
    assert got == list(log.coeffs[1:]) and list(map(hash, got)) == list(map(hash, log.coeffs[1:]))
