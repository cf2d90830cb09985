"""A row's defect and its exact label.

`ops.worst` turns a row's residuals into its defect without a starting
value, so the defect keeps the residuals' type and a row that checked no
case raises instead of reading as zero.  `VerificationReport.add` refuses a
float defect on a row labelled exact: that float is a leak into the exact
path, and 0.0 would otherwise print as exact-zero.
"""

from fractions import Fraction

import pytest

from ordexp import (
    AlphaSeries,
    ChainReport,
    GradedPreLieElement,
    Matrix,
    Poly,
    SiteSequence,
    SuiteConfig,
    prelie_left,
    suites,
)
from ordexp.errors import BackendMismatch, InsufficientSamples
from ordexp.ops import worst
from ordexp.report import EXACT, FLOAT, VerificationReport
from ordexp.suites import run_suite


class TestWorst:
    def test_no_residual_raises(self):
        with pytest.raises(InsufficientSamples):
            worst([])
        with pytest.raises(InsufficientSamples):
            worst(x for x in ())

    def test_fraction_residuals_give_a_fraction(self):
        d = worst([Fraction(1, 3), Fraction(-1, 2), Fraction(0)])
        assert d == Fraction(1, 2) and type(d) is Fraction

    @pytest.mark.parametrize("residuals", [
        [Fraction(0), 0.0, Fraction(0)],
        [Matrix.zeros(2), Matrix.zeros(2).to_float(), Matrix.zeros(2)],
        [Fraction(1, 2), 0.0],
    ])
    def test_one_float_residual_gives_a_float(self, residuals):
        # the case a Fraction(0) starting value hid
        assert type(worst(residuals)) is float

    def test_containers(self):
        m = Matrix([[1, Fraction(-3, 2)], [0, 2]])
        assert worst([SiteSequence([Matrix.zeros(2), m])]) == 2
        assert worst([AlphaSeries([Matrix.identity(2), m]), Matrix.zeros(2)]) == 2
        assert worst([Poly({(0,): m, (1,): Matrix.zeros(2)})]) == 2
        assert worst(iter([Poly({(2,): Fraction(7, 3)}), Fraction(-5, 2)])) == Fraction(5, 2)


class TestExactRows:
    def test_float_defect_on_exact_report_raises(self):
        rep = VerificationReport("s", 1, EXACT, 1e-10, 3)
        with pytest.raises(TypeError, match="float defect"):
            rep.add("row", law="x = x", defect=0.0)
        assert rep.cases == []

    def test_float_defect_on_exact_row_of_float_report_raises(self):
        rep = VerificationReport("s", 1, FLOAT, 1e-10, 3)
        with pytest.raises(TypeError, match="float defect"):
            rep.add("row", law="x = x", defect=0.0, backend=EXACT)

    def test_float_defect_on_float_row_passes(self):
        rep = VerificationReport("s", 1, FLOAT, 1e-10, 3)
        assert rep.add("row", law="x = x", defect=1e-12)
        assert rep.add("exact-row", law="x = x", defect=Fraction(0), backend=EXACT)

    def test_float_lax_in_exact_yangian_run_raises(self, monkeypatch):
        # Every exact yangian row built from a float Lax operator used to
        # print exact-zero when its float residuals were 0.0.  The float Lax
        # now meets the run's exact operators and is refused there, before
        # any defect reaches a row.
        lax = suites.fundamental_lax
        monkeypatch.setattr(suites, "fundamental_lax", lambda dim: lax(dim).to_float())
        with pytest.raises(BackendMismatch):
            run_suite("yangian", SuiteConfig(dim=2, sites=1))


class TestContainerMaxAbs:
    """A container's `max_abs` keeps its children's backend, even at zero."""

    @pytest.mark.parametrize("zero, kind", [(Matrix.zeros(2), Fraction),
                                            (Matrix.zeros(2).to_float(), float)])
    def test_site_sequence_zero(self, zero, kind):
        d = SiteSequence([zero, zero]).max_abs()
        assert d == 0 and type(d) is kind

    @pytest.mark.parametrize("zero, kind", [(Matrix.zeros(2), Fraction),
                                            (Matrix.zeros(2).to_float(), float)])
    def test_all_zero_graded_element_reads_its_like_value(self, zero, kind):
        seq = SiteSequence([zero])
        # the zero component is dropped, so only `like` knows the backend
        elem = GradedPreLieElement(2, {1: seq}, prelie_left, like=seq)
        assert elem.is_zero()
        d = elem.max_abs()
        assert d == 0 and type(d) is kind

    # the second is a chain of no sites: its one value and no residual
    @pytest.mark.parametrize("report", [ChainReport([], []), ChainReport([Matrix.identity(2)], [])])
    def test_report_with_no_residual_raises(self, report):
        with pytest.raises(InsufficientSamples):
            report.max_abs()
