"""Fixtures shared across test modules."""

import pytest

from ordexp import AlphaSeries, FreeElement, Matrix, SuiteConfig, run_suite


@pytest.fixture(scope="session")
def seed1_report():
    """`seed1_report(suite, backend)`: the suite's report at seed 1 and
    default sizes.  Each report is computed once per session and shared by
    every test that asks for it; no test may change a report it is given."""
    cache = {}

    def get(suite, backend="exact"):
        if (suite, backend) not in cache:
            cache[suite, backend] = run_suite(suite, SuiteConfig(seed=1, backend=backend))
        return cache[suite, backend]

    return get


def _bits(x):
    """Every entry of an operator or a series as its `repr`, in storage order,
    so values that are equal but differ in type or sign of zero differ."""
    if isinstance(x, AlphaSeries):
        return [_bits(c) for c in x.coeffs]
    if isinstance(x, Matrix):
        return [x.rows, x.cols] + [repr(v) for row in x.data for v in row]
    if isinstance(x, FreeElement):
        return [x, str(x)] + [(w, repr(c)) for w, c in x.named_words()]
    return repr(x)


@pytest.fixture
def bits():
    """`bits(x)`: a value to compare two results bit for bit by."""
    return _bits
