"""Acceptance gate: one pass/fail line per shipped guarantee.

Each test exercises one advertised property at its stated sample size and
tolerance, prints a single [criterion NN] line, then asserts.  Run with
`pytest -v -s tests/test_acceptance.py` to see the lines as they print.
"""

from fractions import Fraction

import pytest

from ordexp import (
    Matrix,
    MatrixField,
    Poly,
    SuiteConfig,
    commutator,
    convergence_study,
    magnus_bernoulli_iterate,
    magnus_continuous,
    open_evolution_residual,
)
from ordexp.report import EXACT, FLOAT
from ordexp.suites import (
    boundary_suite,
    brace_suite,
    dyson_suite,
    magnus_suite,
    prelie_suite,
    rota_baxter_suite,
    tridendriform_suite,
    yangian_suite,
)

F = Fraction


def announce(num: int, name: str, ok: bool) -> bool:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def by_id(report):
    return {case.case_id: case for case in report.cases}


@pytest.fixture(scope="module")
def magnus_rows():
    return by_id(magnus_suite(SuiteConfig()))


@pytest.fixture(scope="module")
def yangian_rows():
    return by_id(yangian_suite(SuiteConfig()))


def test_criterion_01_rota_baxter_weights():
    report = rota_baxter_suite(SuiteConfig())
    rows = by_id(report)
    partial = rows["partial-sum-weight-one"]
    integral = rows["integral-weight-zero"]
    ok = (
        report.all_passed()
        and partial.params["sequences"] == 100
        and partial.params["sites"] == 5
        and integral.params["pairs"] == 20
    )
    assert announce(1, "Rota-Baxter weights one and zero", ok)


def test_criterion_02_tridendriform_axioms():
    exact = tridendriform_suite(SuiteConfig(backend=EXACT))
    flt = tridendriform_suite(SuiteConfig(backend=FLOAT))
    ok = (
        exact.all_passed()
        and flt.all_passed()
        and len(exact.cases) == 16
        and all(case.params["triples"] == 50 for case in exact.cases)
    )
    assert announce(2, "tridendriform axioms, both backends", ok)


def test_criterion_03_prelie_associators():
    report = prelie_suite(SuiteConfig())
    ok = (
        report.all_passed()
        and len(report.cases) == 2
        and all(case.params["triples"] == 50 for case in report.cases)
    )
    assert announce(3, "pre-Lie associator symmetries", ok)


def test_criterion_04_dyson_equivalence():
    rows = by_id(dyson_suite(SuiteConfig()))
    ok = all(
        rows[case_id].passed
        and rows[case_id].params["families"] == 25
        and rows[case_id].params["max_sites"] == 5
        and rows[case_id].params["order"] == 4
        and rows[case_id].params["directions"] == "both"
        for case_id in ("iterated-sums-vs-product", "dendriform-nesting-vs-product")
    )
    assert announce(4, "Dyson terms equal the ordered product", ok)


def test_criterion_05_magnus_round_trip(magnus_rows):
    round_trip = magnus_rows["exponential-round-trip"]
    scalar = magnus_rows["scalar-chain-logarithm"]
    ok = (
        round_trip.passed
        and round_trip.params["families"] == 25
        and round_trip.params["order"] == 4
        and scalar.passed
    )
    assert announce(5, "Magnus exponential round-trip", ok)


def test_criterion_06_magnus_closed_forms(magnus_rows):
    prelie = magnus_rows["closed-form-pre-lie"]
    literal = magnus_rows["closed-form-commutator"]
    ok = (
        prelie.passed
        and literal.passed
        and literal.params["offending"] == "none"
    )
    assert announce(6, "Magnus closed forms match the oracle", ok)


def test_criterion_07_brace_structure():
    report = brace_suite(SuiteConfig())
    rows = by_id(report)
    ok = (
        report.all_passed()
        and rows["flow-composition"].params["pairs"] == 25
        and all(case.params["degree"] == 4 for case in report.cases)
        and set(rows) == {
            "flow-inverse", "left-brace-law",
            "flow-composition", "circle-associativity",
        }
    )
    assert announce(7, "brace from the formal flow", ok)


def test_criterion_08_yangian_relations(yangian_rows):
    needed = [
        "braid-relation-dim2", "braid-relation-dim3",
        "classical-braid-dim2", "classical-braid-dim3",
        "exchange-grid-dim2", "exchange-grid-dim3",
        "transfer-commutativity-dim2", "charge-exchange-dim2",
    ]
    ok = (
        all(yangian_rows[case_id].passed for case_id in needed)
        and yangian_rows["braid-relation-dim2"].params["triples"] == 10
        and yangian_rows["transfer-commutativity-dim2"].params["max_sites"] == 4
        and yangian_rows["charge-exchange-dim2"].params["max_sites"] == 3
    )
    assert announce(8, "Yang-Baxter, RTT, and charge relations", ok)


def test_criterion_09_coproduct_identities(yangian_rows):
    log_row = yangian_rows["coproduct-log-dim2"]
    split_row = yangian_rows["coproduct-splitting-dim2"]
    ok = (
        log_row.passed
        and split_row.passed
        and split_row.params["sites"] == "2,3"
    )
    assert announce(9, "coproducts match the log of the ordered product", ok)


def test_criterion_10_boundary_recursions():
    report = boundary_suite(SuiteConfig())
    rows = by_id(report)
    problem_rows = (
        "gauge-difference-equation", "double-row-recursion",
        "reflection-double-row",
    )
    total = sum(rows[case_id].params["problems"] for case_id in problem_rows)
    ok = (
        report.all_passed()
        and total == 25
        and all(rows[case_id].params["order"] == 3 for case_id in problem_rows)
    )
    assert announce(10, "gauge and double-row recursions", ok)


def test_criterion_11_continuum_limit():
    x_step = Matrix([[0, 1], [0, 0]])
    y_step = Matrix([[0, 0], [1, 0]])
    field = MatrixField(Poly({(0,): x_step, (1,): y_step}))
    expected_q2 = Poly({(3,): commutator(x_step, y_step) * F(-1, 12)})
    second_terms = (
        magnus_continuous(field, 2, style="explicit")[2],
        magnus_continuous(field, 2, style="prelie")[2],
        magnus_bernoulli_iterate(field, depth=4, order=2)[2],
    )
    exact_ok = all((q - expected_q2).is_zero() for q in second_terms)

    deltas = [F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 64)]
    table = convergence_study(field, deltas, orders=(1, 2))
    rates_ok = all(
        0.85 <= table.summary_rate(order) <= 1.15 for order in (1, 2)
    )

    constant = MatrixField(Poly({(0,): Matrix([[0, 1], [1, 0]])}))
    residual = open_evolution_residual(
        constant, k=Matrix.identity(2), x=1.0, delta=1e-4, alpha=F(1, 20)
    )
    boundary_ok = residual <= 1e-6

    ok = exact_ok and rates_ok and boundary_ok
    assert announce(11, "continuum Magnus, rates, and open evolution", ok)
