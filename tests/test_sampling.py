"""The sample source: one seeded stream, drawn in the suite's backend.

A float source must draw exactly the values an exact source of the same
seed draws, converted to float, and must consume the stream identically;
free letters stay exact.  Every suite row labelled exact must then carry an
exact defect on both backends, so no float leaks into an exact check, and
no suite builds a float matrix, or a polynomial or series with a float
coefficient, on the exact backend.
"""

import random
from fractions import Fraction

import pytest

import ordexp
from ordexp import AlphaSeries, FreeElement, Matrix, Poly, SiteOperatorFamily, SiteSequence, SuiteConfig
from ordexp import matrix, ops
from ordexp.errors import AlgebraError, DimensionMismatch, SingularOperator
from ordexp.expansion import BACKWARD, FORWARD
from ordexp.matrix import SPARSE_FROM
from ordexp.report import EXACT, FLOAT
from ordexp.sampling import SampleSource
from ordexp.suites import SUITES


def leaves(x):
    """Every scalar coefficient of a drawn value, in a fixed order."""
    if isinstance(x, Matrix):
        return [v for row in x.data for v in row]
    if isinstance(x, SiteSequence):
        return [v for s in x.values for v in leaves(s)]
    if isinstance(x, SiteOperatorFamily):
        # the template too: it is drawn in the source's backend like the entries
        return leaves(x.like) + [v for key in sorted(x.entries) for v in leaves(x.entries[key])]
    if isinstance(x, Poly):
        return [x.coeffs[d] for d in sorted(x.coeffs)]
    if isinstance(x, FreeElement):
        return [c for _, c in x.named_words()]
    return [x]


def stored(m):
    """The value a matrix stores: its shape, `den` and store, a flat list
    below `SPARSE_FROM` columns and its nonzero rows from it on."""
    return m.rows, m.cols, m.den, m.num


def shape(x):
    """What a drawn value is, apart from its coefficients."""
    if isinstance(x, SiteOperatorFamily):
        return (x.n_sites, x.direction, sorted(x.entries), shape(x.like))
    if isinstance(x, SiteSequence):
        return len(x.values)
    if isinstance(x, Poly):
        return sorted(x.coeffs)
    if isinstance(x, Matrix):
        return (x.rows, x.cols)
    return None


DRAWS = [
    ("matrix", (3, 2)),
    ("invertible_matrix", (2, 1)),
    ("sequence", (3, 2)),
    ("matrix_family", (3, (1, 3), 2)),
    # the row store, and a repeated degree: its last draw is kept
    ("matrix_family", (2, (2, 1, 2), SPARSE_FROM)),
    ("poly", (4,)),
    ("site_stack", (3, 2)),
]


@pytest.mark.parametrize("method,args", DRAWS)
@pytest.mark.parametrize("seed", [1, 7, 2**64 - 1])
def test_float_source_draws_the_exact_values_converted(method, args, seed):
    exact = SampleSource(seed).split("child").split(method)
    flt = SampleSource(seed, FLOAT).split("child").split(method)
    assert flt.backend == FLOAT
    for _ in range(5):
        want = getattr(exact, method)(*args)
        got = getattr(flt, method)(*args)
        assert type(got) is type(want)
        assert shape(got) == shape(want)
        assert all(not isinstance(v, float) for v in leaves(want))
        assert all(isinstance(v, float) for v in leaves(got))
        assert leaves(got) == [float(v) for v in leaves(want)]
    assert flt._rng.getstate() == exact._rng.getstate()


def randint_ints(rng, count, low, high):
    """The reference every draw is pinned to: one `randint` call per entry."""
    return [rng.randint(low, high) for _ in range(count)]


@pytest.mark.parametrize("bound", [0, 1, 3, 4, 2**31, 2**40])
def test_ints_are_randints_and_leave_the_stream_alike(bound):
    # -bound..bound: bound 0 rejects half the 1-bit words, 4 rejects 7 of 16
    # 4-bit words, and 2**31 and 2**40 draw words of more than 32 bits
    for seed in range(300):
        src = SampleSource(seed)
        ref = random.Random(seed)
        for count in range(1, 51):
            assert src._ints(count, -bound, bound) == randint_ints(ref, count, -bound, bound)
            assert src._rng.random() == ref.random()


def test_ints_of_an_empty_range_raise_as_randint_does():
    src, ref = SampleSource(5), random.Random(5)
    assert src._ints(0, 3, 2) == randint_ints(ref, 0, 3, 2) == []
    assert src._ints(3, 2, 4) == randint_ints(ref, 3, 2, 4)
    # the wording of randint's message differs between Python versions
    for draw in (lambda: src._ints(2, 3, 1), lambda: randint_ints(ref, 2, 3, 1)):
        with pytest.raises(ValueError, match="empty range"):
            draw()
    assert src._rng.getstate() == ref.getstate()


def randint_matrix(rng, size, bound=3):
    return Matrix([[Fraction(v) for v in randint_ints(rng, size, -bound, bound)]
                   for _ in range(size)])


def randint_invertible(rng, size, bound=3):
    while True:
        m = randint_matrix(rng, size, bound)
        try:
            m.inverse()
        except SingularOperator:
            continue
        return m


def randint_family(rng, n_sites, degrees, size):
    entries = {(n, d): randint_matrix(rng, size) for n in range(1, n_sites + 1) for d in degrees}
    return SiteOperatorFamily(n_sites, entries, like=Matrix.identity(size))


# per `DRAWS` method, the exact value drawn by one `randint` call per entry
REFERENCES = {
    "matrix": randint_matrix,
    "invertible_matrix": randint_invertible,
    "sequence": lambda rng, n, size: SiteSequence([randint_matrix(rng, size) for _ in range(n)]),
    "matrix_family": randint_family,
    "poly": lambda rng, degree: Poly({(d,): Fraction(rng.randint(-3, 3)) for d in range(degree + 1)}),
    "site_stack": lambda rng, n, size: Matrix(
        [row for _ in range(n) for row in randint_matrix(rng, size).data]),
}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("method,args", DRAWS)
def test_draws_are_the_per_entry_randint_values(method, args, backend):
    for seed in (0, 1, 7, 2**64 - 1):
        src = SampleSource(seed, backend)
        ref = random.Random(seed)
        for _ in range(3):
            want = REFERENCES[method](ref, *args)
            got = getattr(src, method)(*args)
            assert type(got) is type(want)
            assert shape(got) == shape(want)
            assert leaves(got) == [src.cast(v) for v in leaves(want)]
            assert [type(v) for v in leaves(got)] == [type(src.cast(v)) for v in leaves(want)]
        assert src._rng.getstate() == ref.getstate()


def test_scalar_draws_are_the_per_entry_randint_values():
    src, ref = SampleSource(11), random.Random(11)
    for _ in range(20):
        assert src.integer(1, 4) == ref.randint(1, 4)
        assert src.fraction(5) == Fraction(ref.randint(-5, 5))
        want = Fraction(ref.randint(-3, 3))
        while not want:
            want = Fraction(ref.randint(-3, 3))
        assert src.nonzero_fraction() == want
        items = tuple(range(6))
        chosen = ()
        while not chosen:
            chosen = tuple(x for x in items if ref.randint(0, 1))
        assert src.subset(items) == chosen
        values = [FreeElement.gen(f"z{i}", site=n) * Fraction(ref.randint(-3, 3))
                  for n in (1, 2, 3) for i in (1, 2)]
        want = [values[i] + values[i + 1] for i in (0, 2, 4)]
        assert src.free_sequence(3, "z") == SiteSequence(want)
    assert src._rng.getstate() == ref.getstate()


def test_a_family_is_drawn_without_randint(monkeypatch):
    def refuse(*args):
        raise AssertionError("randint was called")

    want = randint_family(random.Random(3), 128, (1, 2, 3), 4)
    monkeypatch.setattr(random.Random, "randint", refuse)
    got = SampleSource(3).matrix_family(128, (1, 2, 3), size=4)
    assert got.entries == want.entries and got.like == want.like


@pytest.mark.parametrize("kwargs,error,message", [
    ({"n_sites": True}, DimensionMismatch, "nonnegative int number of sites"),
    ({"n_sites": "3"}, DimensionMismatch, "nonnegative int number of sites"),
    ({"n_sites": 2.0}, DimensionMismatch, "nonnegative int number of sites"),
    ({"n_sites": -1}, DimensionMismatch, "nonnegative int number of sites"),
    ({"degrees": (1, 0)}, DimensionMismatch, "degree 0 is not a positive int"),
    ({"degrees": (True,)}, DimensionMismatch, "degree True is not a positive int"),
    ({"degrees": (1.0,)}, DimensionMismatch, "degree 1.0 is not a positive int"),
    ({"degrees": ("2",)}, DimensionMismatch, "is not a positive int"),
    ({"n_sites": 0, "degrees": (-1,)}, DimensionMismatch, "degree -1 is not a positive int"),
    ({"direction": "sideways"}, AlgebraError, "unknown direction 'sideways'"),
    ({"size": 0}, DimensionMismatch, "at least one row and column"),
    ({"size": True}, DimensionMismatch, "a matrix size is an int"),
])
def test_matrix_family_refuses_bad_arguments_before_drawing(kwargs, error, message):
    args = {"n_sites": 2, "degrees": (1, 2), "size": 2, "direction": FORWARD, **kwargs}
    src = SampleSource(4)
    state = src._rng.getstate()
    with pytest.raises(error, match=message):
        src.matrix_family(**args)
    assert src._rng.getstate() == state


def refused_before_drawing(draw, monkeypatch):
    """`draw` of a fresh source raises AlgebraError without drawing: a draw
    fails the test rather than loop, and the stream is left as a fresh one."""
    def refuse(*args):
        raise AssertionError("a refused draw drew")

    src = SampleSource(4)
    with monkeypatch.context() as patch:
        patch.setattr(SampleSource, "_ints", refuse)
        with pytest.raises(AlgebraError):
            draw(src)
    assert src.integer(-9, 9) == SampleSource(4).integer(-9, 9)


@pytest.mark.parametrize("items", [(), [], iter(())])
def test_a_subset_of_no_items_is_refused_before_drawing(items, monkeypatch):
    refused_before_drawing(lambda src: src.subset(items), monkeypatch)


@pytest.mark.parametrize("bound", [0, -1, -3])
def test_a_nonzero_fraction_below_bound_1_is_refused_before_drawing(bound, monkeypatch):
    refused_before_drawing(lambda src: src.nonzero_fraction(bound), monkeypatch)


# every draw that takes a bound, with the bad one in its place
BOUNDED_DRAWS = {
    "integer-high": lambda src, bad: src.integer(0, bad),
    "integer-low": lambda src, bad: src.integer(bad, 2),
    "fraction": lambda src, bad: src.fraction(bad),
    "nonzero_fraction": lambda src, bad: src.nonzero_fraction(bad),
    "matrix": lambda src, bad: src.matrix(2, bad),
    "invertible_matrix": lambda src, bad: src.invertible_matrix(2, bad),
    "matrix_family": lambda src, bad: src.matrix_family(2, (1,), 2, bad),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"])
@pytest.mark.parametrize("draw", sorted(BOUNDED_DRAWS))
def test_a_draw_bound_that_is_not_a_plain_int_is_refused_before_drawing(draw, bad, monkeypatch):
    refused_before_drawing(lambda src: BOUNDED_DRAWS[draw](src, bad), monkeypatch)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_matrix_family_is_the_checked_family(direction):
    got = SampleSource(6, FLOAT).matrix_family(3, (2, 1), size=3, direction=direction)
    want = SiteOperatorFamily(got.n_sites, got.entries, direction, like=got.like)
    assert (got.n_sites, got.direction, got.entries, got.like) == (
        want.n_sites, want.direction, want.entries, want.like)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_matrix_draws_the_fractions_it_always_drew(backend):
    for seed in range(40):
        src = SampleSource(seed, backend)
        ref = SampleSource(seed, backend)
        for size in (1, 2, 3, 5, SPARSE_FROM):
            for bound in (0, 1, 3, 10**20):
                old = Matrix([[ref.fraction(bound) for _ in range(size)] for _ in range(size)])
                assert stored(src.matrix(size, bound)) == stored(ref.cast(old))
        assert src._rng.getstate() == ref._rng.getstate()


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_site_stack_is_the_sequence_it_stacks(backend):
    for seed in range(20):
        src = SampleSource(seed, backend)
        ref = SampleSource(seed, backend)
        for n_sites, size in ((1, 1), (1, 2), (3, 2), (4, 3), (2, SPARSE_FROM)):
            seq = ref.sequence(n_sites, size)
            want = Matrix([row for v in seq.values for row in v.data])
            assert stored(src.site_stack(n_sites, size)) == stored(want)
        assert src._rng.getstate() == ref._rng.getstate()


def test_invertible_matrix_rejects_exact_draws_alike(monkeypatch):
    tested = {EXACT: [], FLOAT: []}
    original = Matrix.inverse
    backend = EXACT

    def counted(self):
        tested[backend].append(self.is_exact())
        return original(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    draws = 20
    for backend in (EXACT, FLOAT):
        src = SampleSource(3, backend).split("invertible")
        for _ in range(draws):
            # 1x1 entries in {-1, 0, 1}: about a third of the draws are singular
            src.invertible_matrix(1, 1)
    assert len(tested[EXACT]) > draws
    assert tested[FLOAT] == tested[EXACT]
    assert all(tested[FLOAT])


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_free_sequence_is_exact_on_both_backends(backend):
    want = SampleSource(5).split("free").free_sequence(3, "a")
    got = SampleSource(5, backend).split("free").free_sequence(3, "a")
    assert got == want
    # every free coefficient is canonical: an int, or a Fraction that is not one
    assert leaves(got)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in leaves(got))


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, "7", True])
def test_seed_is_an_int_in_64_bits(seed):
    with pytest.raises(AlgebraError, match="seed must be"):
        SampleSource(seed)


@pytest.mark.parametrize("backend", ["Float", "EXACT", "", None, 1])
def test_backend_is_exact_or_float(backend):
    with pytest.raises(AlgebraError, match="backend must be"):
        SampleSource(1, backend)
    # a child stream takes its backend from a checked parent
    assert SampleSource(1, FLOAT).split("child").backend == FLOAT


def test_cast_converts_only_on_the_float_backend():
    m = Matrix([[1, Fraction(1, 2)], [0, 3]])
    assert SampleSource(1).cast(m) is m
    assert SampleSource(1, FLOAT).cast(m) == m.to_float()
    assert isinstance(SampleSource(1, FLOAT).cast(Fraction(1, 3)), float)


def _small(name):
    if name == "yangian":
        return {"dim": 2, "sites": 1}
    # boundary needs a problem of each of its three kinds
    return {"dim": 2, "sites": 2, "samples": 3 if name == "boundary" else 2}


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_exact_rows_have_exact_defects(name, backend):
    report = SUITES[name](SuiteConfig(seed=2, backend=backend, **_small(name)))
    exact_rows = [c for c in report.cases if c.backend == EXACT]
    assert exact_rows or backend == FLOAT
    for case in exact_rows:
        assert not isinstance(case.defect, float), case.case_id


@pytest.fixture
def float_matrices_trapped(monkeypatch):
    """Make every way of building a float `Matrix`, and every float
    coefficient entering a `Poly` or an `AlphaSeries`, raise, for one test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a float was built on the exact backend")

    init, wrap = Matrix.__init__, matrix._wrap
    poly_init, series_init = Poly.__init__, AlphaSeries.__init__

    def exact_init(self, data):
        init(self, data)
        if self.den is None:
            refuse()

    def exact_wrap(num, rows, cols, den):
        if den is None:
            refuse()
        return wrap(num, rows, cols, den)

    def exact_poly_init(self, coeffs=None):
        # checked before Poly prunes zeros, so a float 0.0 is caught too
        if any(type(c) is float for c in (coeffs or {}).values()):
            refuse()
        poly_init(self, coeffs)

    def exact_series_init(self, coeffs):
        series_init(self, coeffs)
        if any(type(c) is float for c in self.coeffs):
            refuse()

    monkeypatch.setattr(Matrix, "__init__", exact_init)
    monkeypatch.setattr(Poly, "__init__", exact_poly_init)
    monkeypatch.setattr(AlphaSeries, "__init__", exact_series_init)
    monkeypatch.setattr(matrix, "_wrap", exact_wrap)
    monkeypatch.setattr(Matrix, "to_float", refuse)
    # `ops.to_float` is bound by name in every module that imports it
    to_float = ops.to_float
    for module in vars(ordexp).values():
        if getattr(module, "to_float", None) is to_float:
            monkeypatch.setattr(module, "to_float", refuse)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_exact_suites_build_no_float_matrix(name, float_matrices_trapped):
    report = SUITES[name](SuiteConfig(seed=2, **_small(name)))
    assert report.all_passed()
