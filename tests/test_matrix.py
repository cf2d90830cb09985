"""Exact matrix arithmetic and tensor-leg helpers."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordexp import matrix, ops
from ordexp.errors import BackendMismatch, DimensionMismatch, SingularOperator
from ordexp.freealg import FreeElement
from ordexp.matrix import (
    SPARSE_FROM,
    Matrix,
    aux_block,
    commutator,
    fused_prelie_site,
    kron_embed,
    partial_trace_first,
    permutation_op,
    value_key,
)


def rand_matrix(rng, size=2, bound=5):
    return Matrix(
        [[Fraction(rng.randint(-bound, bound)) for _ in range(size)] for _ in range(size)]
    )


def test_constructor_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Matrix([])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2], [3]])
    for empty in (lambda: Matrix.zeros(0), lambda: Matrix.zeros(2, 0), lambda: Matrix.identity(0)):
        with pytest.raises(DimensionMismatch):
            empty()


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
    half = Fraction(1, 2)
    for x, y in ((square_, wide), (square_, tall), (wide, tall)):
        assert x != y
        assert x * half != y * half
        assert x.to_float() != y.to_float()
        assert x != y.to_float() and x.to_float() != y
    assert Matrix.zeros(1, 4) != Matrix.zeros(2, 2)
    assert Matrix.zeros(4, 1) != Matrix.zeros(1, 4)
    # equal matrices still hash alike, across storages; an exact matrix and
    # its float copy are two backends, so never equal
    for x in (square_, wide, tall, square_ * half):
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


def test_permutation_op_flips_and_squares_to_identity():
    for dim in (2, 3):
        p = permutation_op(dim)
        assert p * p == Matrix.identity(dim * dim)
        rng = random.Random(dim)
        a = rand_matrix(rng, size=dim)
        b = rand_matrix(rng, size=dim)
        assert p * a.kron(b) * p == b.kron(a)


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
    """`m` keeps one flat row-major list of `rows * cols` entries, in canonical
    form: integer numerators reduced over a positive `den`, or floats only."""
    assert len(m.num) == m.rows * m.cols
    if m.is_exact():
        assert m.den > 0
        assert all(type(x) is int for x in m.num)
        assert gcd(m.den, *m.num) == 1
    else:
        assert all(type(x) is float for x in m.num)


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
        assert m.num == [0] * (rows * cols)
        assert m.is_zero()

    for rows, cols in ((1, 1), (1, 4), (4, 1), (2, 3)):
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
    assert_floats(fa.kron(mb), ref_kron(a, b))
    assert_floats(mb.kron(fa), ref_kron(b, a))
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
    # composed formula, entry for entry; d = SPARSE_FROM walks the stack's
    # cached nonzero rows, block by block
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
    # make 32 rows, and still no nonzero rows are built
    def refuse(m):
        raise AssertionError("a stack of 2x2 blocks walked its nonzero rows")

    rng = random.Random(8)
    parts = [stack_grids(rng, 16, 2, exact) for _ in range(4)]
    stacks = [as_matrix(grid, exact) for _, grid in parts]
    monkeypatch.setattr(matrix, "_nonzero_rows", refuse)
    got = fused_prelie_site(*stacks)
    for n in range(16):
        want = fused_prelie_site(*(as_matrix(blocks[n], exact) for blocks, _ in parts))
        assert Matrix(got.data[2 * n:2 * n + 2]) == want


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
def test_cached_rows_are_reused_on_either_side(exact):
    rng = random.Random(9)
    n = SPARSE_FROM + 1
    grids = [rand_grid(rng, n, n, exact, 0.3) for _ in range(3)]
    m, b, c = (Matrix(g) if exact else Matrix(g).to_float() for g in grids)

    def fresh():
        return Matrix([list(row) for row in m.data])

    first = m * b
    rows = m._nonzeros
    assert rows is not None
    for got, want in ((m * b, fresh() * b), (c * m, c * fresh()), (m * c, fresh() * c),
                      (m * m, fresh() * fresh()), (first, fresh() * b)):
        assert [repr(v) for v in got.data] == [repr(v) for v in want.data]
        assert_stored(got)
    assert m._nonzeros is rows  # made once, then read on both sides


def test_filled_rows_keep_equality_key_and_hash():
    rng = random.Random(4)
    n = SPARSE_FROM
    for exact in (True, False):
        g = rand_grid(rng, n, n, exact, 0.3)
        m = Matrix(g)
        m * m
        assert m._nonzeros is not None
        fresh = Matrix(g)
        assert fresh._nonzeros is None
        assert m == fresh and fresh == m
        assert value_key(m) == value_key(fresh)
        assert hash(m) == hash(fresh)
        assert str(m) == str(fresh)


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
