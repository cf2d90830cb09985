"""Fixtures shared across test modules."""

import pytest

from ordexp import SuiteConfig, run_suite


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
