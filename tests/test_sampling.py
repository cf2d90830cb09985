"""The sample source: one seeded stream, drawn in the suite's backend.

A float source must draw exactly the values an exact source of the same
seed draws, converted to float, and must consume the stream identically;
free letters stay exact.  Every suite row labelled exact must then carry an
exact defect on both backends, so no float leaks into an exact check, and
no suite builds a float matrix, or a polynomial or series with a float
coefficient, on the exact backend.
"""

from fractions import Fraction

import pytest

import ordexp
from ordexp import AlphaSeries, FreeElement, Matrix, Poly, SiteOperatorFamily, SiteSequence, SuiteConfig
from ordexp import matrix, ops
from ordexp.errors import AlgebraError
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
    """The value a matrix stores: its shape, `den` and flat entries."""
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


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_matrix_draws_the_fractions_it_always_drew(backend):
    for seed in range(40):
        src = SampleSource(seed, backend)
        ref = SampleSource(seed, backend)
        for size in (1, 2, 3, 5):
            for bound in (0, 1, 3, 10**20):
                old = Matrix([[ref.fraction(bound) for _ in range(size)] for _ in range(size)])
                assert stored(src.matrix(size, bound)) == stored(ref.cast(old))
        assert src._rng.getstate() == ref._rng.getstate()


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_site_stack_is_the_sequence_it_stacks(backend):
    for seed in range(20):
        src = SampleSource(seed, backend)
        ref = SampleSource(seed, backend)
        for n_sites, size in ((1, 1), (1, 2), (3, 2), (4, 3)):
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
