"""Command-line behavior: determinism, exit codes, spec parsing, formats."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from ordexp import SuiteConfig, cli, matrix
from ordexp.cli import SpecError, main, parse_family_spec, parse_field_spec
from ordexp.errors import AlgebraError
from ordexp.expansion import BACKWARD, FORWARD, dyson_terms
from ordexp.matrix import SPARSE_FROM, Matrix
from ordexp.suites import SIZE_FLAGS, SUITE_FLAGS, run_suite

CSV_HEADER = "delta,err_q1,err_q2,err_q3,rate_q1,rate_q2,rate_q3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestFamilySpecs:
    def test_scalar(self):
        fam = parse_family_spec("scalar:p=1/2;N=3", 1)
        assert fam.n_sites == 3
        assert fam.entry(2, 1) == Fraction(1, 2)

    def test_scalar_default_value(self):
        fam = parse_family_spec("scalar:N=2", 1)
        assert fam.entry(1, 1) == Fraction(1)

    def test_matrix_seeded(self):
        fam = parse_family_spec("matrix:rand(2x2,int<=3);N=4;seed=7", 1)
        again = parse_family_spec("matrix:rand(2x2,int<=3);N=4;seed=7", 99)
        assert fam.n_sites == 4
        assert fam.entries == again.entries
        assert all(abs(x) <= 3 for m in fam.entries.values() for row in m.data for x in row)

    def test_matrix_unicode_bound(self):
        fam = parse_family_spec("matrix:rand(2x2,int≤3);N=2;seed=5", 1)
        assert fam.n_sites == 2

    def test_matrix_uses_global_seed_when_unspecified(self):
        a = parse_family_spec("matrix:rand(2x2,int<=3);N=2", 3)
        b = parse_family_spec("matrix:rand(2x2,int<=3);N=2", 4)
        assert a.entries != b.entries

    def test_matrix_default_seed_is_one(self):
        unseeded = parse_family_spec("matrix:rand(2x2,int<=3);N=3")
        assert unseeded.entries == parse_family_spec("matrix:rand(2x2,int<=3);N=3;seed=1").entries

    @pytest.mark.parametrize("spec", ["scalar:p=1/2;N=3", "matrix:rand(2x2,int<=3);N=4;degrees=1,2",
                                      "free:N=2;degrees=1,2"])
    def test_direction_is_set_when_the_family_is_built(self, spec):
        fam = parse_family_spec(spec, 1, BACKWARD)
        forward = parse_family_spec(spec, 1)
        assert (fam.direction, forward.direction) == (BACKWARD, FORWARD)
        assert fam.entries == forward.entries and fam.like == forward.like

    def test_free_degrees(self):
        fam = parse_family_spec("free:N=2;degrees=1,2", 1)
        assert set(fam.entries) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    @pytest.mark.parametrize("bad", [
        "scalar",
        "scalar:p=1",
        "noise:N=2",
        "matrix:N=2",
        "matrix:rand(2x3,int<=3);N=2",
        "matrix:rand(2x2,float);N=2",
        "matrix:rand(2x2,3);N=2",
        "matrix:rand(2x2,int<=int<=3);N=2",
        "matrix:rand(²x²,int<=3);N=2",
        "free:N=2;degrees=0",
        "scalar:p=q;N=2",
        "matrix:rand(2x2,int<=3);N=2;seed=5;seed=6",
        "matrix:rand(2x2,int<=3);N=2;degrees=1,1",
        "free:N=2;degrees=2,1,2",
    ])
    def test_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_family_spec(bad, 1)


class TestFieldSpecs:
    def test_linear_field(self):
        field = parse_field_spec("field:poly(X+x*Y;dim=2)")
        assert field.eval(Fraction(0)) == Matrix([[0, 1], [0, 0]])
        assert field.eval(Fraction(1)) == Matrix([[0, 1], [1, 0]])

    def test_coefficients_and_powers(self):
        field = parse_field_spec("field:poly(2*I+1/2*x^2*X;dim=2)")
        assert field.eval(Fraction(0)) == Matrix.identity(2) * Fraction(2)
        assert field.eval(Fraction(2)) == Matrix([[2, 2], [0, 2]])

    @pytest.mark.parametrize("bad", [
        "poly(X;dim=2)",
        "field:X+x*Y",
        "field:poly(Z;dim=2)",
        "field:poly(X;dim=3)",
        "field:poly(X*Y;dim=2)",
        "field:poly(x;dim=2)",
        "field:poly(X;dim=2;dim=2)",
    ])
    def test_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_field_spec(bad)


class TestVerifyCommand:
    def test_pass_exit_zero_and_timing_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "prelie", "--samples", "5")
        assert code == 0
        assert "result: PASS" in out
        assert "wall time" in err
        assert "wall time" not in out

    def test_byte_determinism(self, capsys):
        args = ("verify", "rota-baxter", "--seed", "7", "--samples", "10")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, out1) == (code2, out2)
        assert code1 == 0

    def test_seed_changes_samples(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "dyson", "--seed", "1", "--samples", "3")
        _, out2, _ = run_cli(capsys, "verify", "dyson", "--seed", "2", "--samples", "3")
        # same document shape either way; both pass
        assert "result: PASS" in out1 and "result: PASS" in out2

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "magnus", "--sites", "0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "magnus"
        assert doc["summary"]["result"] == "PASS"
        assert doc["cases"][0]["id"] == "empty-chain-identity"
        assert doc["cases"][0]["defect"] == "exact-zero"

    def test_vacuous_chain_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "magnus", "--sites", "0")
        assert code == 0
        assert "empty-chain-identity" in out

    def test_sites_has_no_alias(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "boundary", "--sites", "2", "--samples", "6"
        )
        assert code == 0
        assert "sites=2" in out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "rota-baxter", "--N", "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--deltas", "1/4,1/8,1/16"], ["--form", "dyson"],
                                      ["--direction", "forward"]])
    def test_other_subcommands_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "prelie", *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        # from the table: every size flag a suite does not read, and every
        # flag it reads at one below its least value
        *([suite, f"--{flag}", str(row[flag][1] - 1 if flag in row else 3)]
          for suite, row in SUITE_FLAGS.items() for flag in SIZE_FLAGS),
        # other values of the same flags
        ["rota-baxter", "--order", "5"],
        ["tridendriform", "--order", "2"],
        ["prelie", "--order", "7"],
        ["boundary", "--samples", "1"],
        # rota-baxter draws pairs of sequences, so an odd count is refused
        ["rota-baxter", "--samples", "3"],
        # the empty magnus chain draws no samples; the flag the error
        # names comes first
        ["magnus", "--samples", "7", "--sites", "0"],
    ])
    def test_sizes_below_minimum_are_usage_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[1][2:]} ")

    @pytest.mark.parametrize("suite", sorted(SUITE_FLAGS))
    @pytest.mark.parametrize("value", [2.0, True, "2", Fraction(2)])
    def test_suite_config_rejects_a_size_that_is_not_an_int(self, suite, value):
        # the CLI's argparse makes every size an int; the library API must
        # refuse a float, a bool or a string, not run or print it
        for flag in SUITE_FLAGS[suite]:
            with pytest.raises(AlgebraError, match=f"{flag} must be an integer"):
                run_suite(suite, SuiteConfig(**{flag: value}))

    @pytest.mark.parametrize("samples", ["2", "4"])
    def test_rota_baxter_runs_the_samples_given(self, capsys, samples):
        code, out, _ = run_cli(capsys, "verify", "rota-baxter", "--samples", samples)
        assert code == 0
        assert f"params: sequences={samples}, " in out

    @pytest.mark.parametrize("backend", ["Float", "EXACT", "numpy", ""])
    def test_suite_config_rejects_unknown_backend(self, backend):
        # the CLI's choices keep these out; the library API must too
        with pytest.raises(AlgebraError, match="backend must be exact or float"):
            SuiteConfig(backend=backend, samples=1)

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_tolerance_not_finite_and_nonnegative_is_usage_error(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "verify", "dyson", "--backend", "float",
                                 "--samples", "2", "--tolerance", tolerance)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance must be a finite number >= 0")

    def test_tolerance_on_exact_backend_is_usage_error(self, capsys):
        # no exact row reads a tolerance, so printing it would claim a check
        code, out, err = run_cli(capsys, "verify", "dyson", "--samples", "2",
                                 "--tolerance", "0.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tolerance is read only on the float backend")

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_default_tolerance_header(self, capsys, backend):
        code, out, _ = run_cli(capsys, "verify", "dyson", "--samples", "2",
                               "--backend", backend)
        assert code == 0
        assert "tolerance: 1e-10\n" in out

    def test_suite_config_checks_tolerance(self):
        with pytest.raises(AlgebraError, match="read only on the float backend"):
            SuiteConfig(tolerance=1e-10)
        with pytest.raises(AlgebraError, match="finite number"):
            SuiteConfig(backend="float", tolerance=float("nan"))
        assert SuiteConfig(backend="float", tolerance=0).tolerance == 0

    @pytest.mark.parametrize("tolerance", [True, False, "1e-3", [1], Decimal("0.1"), complex(1)])
    def test_suite_config_refuses_a_tolerance_that_is_not_a_number(self, tolerance):
        # a bool passed `0 <= True < inf` and printed `tolerance: True`;
        # a string or a list died with TypeError from the compare
        with pytest.raises(AlgebraError, match="finite number"):
            SuiteConfig(backend="float", tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [0, 1, 0.5, Fraction(1, 10)])
    def test_suite_config_keeps_a_numeric_tolerance(self, tolerance):
        assert SuiteConfig(backend="float", tolerance=tolerance).tolerance == tolerance

    def test_float_backend_passes_at_default_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "dyson", "--backend", "float", "--samples", "5"
        )
        assert code == 0
        assert "backend: float" in out

    def test_float_backend_zero_tolerance_fails(self, capsys):
        # rounding in the weight-zero integral is real, so a zero
        # tolerance must flip the row and the exit status
        code, out, _ = run_cli(
            capsys, "verify", "rota-baxter", "--backend", "float",
            "--tolerance", "0",
        )
        assert code == 1
        assert "result: FAIL" in out
        assert "[FAIL]" in out


class TestExpandCommand:
    def test_scalar_magnus_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "scalar:p=1;N=2", "--form", "magnus-oracle"
        )
        assert code == 0
        assert "Q^(1) = 2" in out
        assert "Q^(2) = -1" in out
        assert "Q^(3) = 2/3" in out

    def test_free_dyson_words(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "free:N=2", "--form", "dyson", "--order", "2"
        )
        assert code == 0
        assert "T^(1) = P_1 + P_2" in out
        assert "T^(2) = P_2 P_1" in out

    def test_direction_flag_reverses_words(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "free:N=2", "--form", "dyson", "--order", "2",
            "--direction", "backward",
        )
        assert code == 0
        assert "T^(2) = P_1 P_2" in out

    def test_order_zero_identity_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "free:N=2", "--form", "dyson", "--order", "0"
        )
        assert code == 0
        assert "T^(0) = 1" in out
        assert "T^(1)" not in out

    def test_closed_forms_agree_on_scalars(self, capsys):
        _, explicit, _ = run_cli(
            capsys, "expand", "scalar:p=2;N=3", "--form", "magnus-explicit"
        )
        _, prelie, _ = run_cli(
            capsys, "expand", "scalar:p=2;N=3", "--form", "magnus-prelie"
        )
        tail = lambda text: [l for l in text.splitlines() if l.startswith("Q^")]
        assert tail(explicit) == tail(prelie)
        assert len(tail(explicit)) == 3

    def test_matrix_expand_deterministic(self, capsys):
        args = ("expand", "matrix:rand(2x2,int<=3);N=3;seed=11", "--form",
                "magnus-oracle")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("spec", [
        "scalar:N=0", "scalar:p=3/2;N=3", "free:N=0", "free:N=3;degrees=1,2", "free:N=2;degrees=2",
        "matrix:rand(2x2,int<=3);N=0;seed=4", "matrix:rand(2x2,int<=3);N=3;degrees=1,2;seed=5",
        "matrix:rand(2x2,int<=0);N=2", "matrix:rand(3x3,int<=2);N=2;degrees=3;seed=9",
    ])
    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    @pytest.mark.parametrize("order", [0, 1, 4])
    def test_dyson_form_matches_direct_enumerator(self, capsys, spec, direction, order):
        code, out, _ = run_cli(capsys, "expand", spec, "--form", "dyson",
                               "--order", str(order), "--direction", direction)
        assert code == 0
        fam = parse_family_spec(spec, 1, direction)
        want = [f"T^({m}) = {t}" for m, t in enumerate(dyson_terms(fam, order, method="direct"))]
        assert [line for line in out.splitlines() if line.startswith("T^")] == want

    @pytest.mark.parametrize("spec", ["scalar:p=1;N=0", "free:N=0", "matrix:rand(2x2,int<=3);N=0;seed=4"])
    @pytest.mark.parametrize("form", ["magnus-prelie", "magnus-explicit"])
    def test_closed_forms_of_an_empty_chain_are_the_oracle_zeros(self, capsys, spec, form):
        code, out, _ = run_cli(capsys, "expand", spec, "--form", form)
        assert code == 0
        _, oracle, _ = run_cli(capsys, "expand", spec, "--form", "magnus-oracle")
        tail = lambda text: [l for l in text.splitlines() if l.startswith("Q^")]
        assert tail(out) == tail(oracle)
        assert len(tail(out)) == 3
        if not spec.startswith("matrix"):
            assert tail(out) == [f"Q^({m}) = 0" for m in (1, 2, 3)]

    def test_malformed_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "scalar:p=1")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flag", [["--json"], ["--backend", "float"], ["--tolerance", "5"],
                                      ["--seed", "5"]])
    def test_verify_only_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "scalar:N=2", *flag])
        assert exc.value.code == 2


class TestLimitCommand:
    def test_header_and_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "field:poly(X+x*Y;dim=2)",
            "--deltas", "1/4,1/8,1/16",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_constant_field_zero_error_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "field:poly(X;dim=2)",
            "--deltas", "1/4,1/8,1/16",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert line.split(",")[1] == "0"

    def test_linear_field_first_order_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "field:poly(X+x*Y;dim=2)",
            "--deltas", "1/4,1/8,1/16,1/32,1/64",
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert float(last[4]) == pytest.approx(1.0, abs=0.15)
        assert 0.85 <= float(last[5]) <= 1.15

    def test_too_few_deltas_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "limit", "field:poly(X;dim=2)", "--deltas", "1/4,1/8"
        )
        assert code == 2
        assert "error:" in err

    def test_step_not_dividing_interval_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "limit", "field:poly(X+x*Y;dim=2)", "--deltas", "2/5,1/5,1/10"
        )
        assert code == 2
        assert out == ""
        assert "delta 2/5 does not divide" in err

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--backend", "float"], ["--tolerance", "5"],
                                      ["--order", "2"], ["--json"]])
    def test_only_deltas_accepted(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["limit", "field:poly(X;dim=2)", "--deltas", "1/4,1/8,1/16", *flag])
        assert exc.value.code == 2

    def test_zero_field_names_its_fault(self, capsys):
        code, out, err = run_cli(
            capsys, "limit", "field:poly(0*X)", "--deltas", "1/4,1/8,1/16"
        )
        assert code == 2
        assert out == ""
        assert "error: a field needs a nonzero coefficient" in err

    def test_malformed_field_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "limit", "field:poly(Q;dim=2)", "--deltas", "1/4,1/8,1/16"
        )
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["expand", "scalar:N=x"],
    ["expand", "matrix:rand(2x2,int<=3);N=2;seed=abc"],
    ["limit", "field:poly(X;dim=z)", "--deltas", "1/4,1/8,1/16"],
    ["limit", "field:poly(X+x^y*Y;dim=2)", "--deltas", "1/4,1/8,1/16"],
])
def test_unreadable_spec_numbers_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "cannot read" in err


@pytest.mark.parametrize("argv, key", [
    (["expand", "scalar:p=1;N=2;q=3"], "q"),
    (["expand", "matrix:rand(2x2,int<=3);N=2;p=1"], "p"),
    (["expand", "free:N=2;seed=3"], "seed"),
    (["limit", "field:poly(X;dim=2;N=4)", "--deltas", "1/4,1/8,1/16"], "N"),
])
def test_spec_key_the_kind_does_not_read_exits_2(capsys, argv, key):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {key!r}" in err


@pytest.mark.parametrize("argv", [
    ["expand", "matrix:rand(2x2,int<=3);N=2;seed=-1"],
    ["expand", f"matrix:rand(2x2,int<=3);N=2;seed={2**64}"],
    ["verify", "rota-baxter", "--seed", "-1"],
    ["verify", "rota-baxter", "--seed", str(2**64)],
])
def test_seed_outside_64_bits_exits_2(capsys, argv):
    # no wrap-around: seed=-1 is not seed=2**64-1, and 2**64 is not 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "seed must be an integer in 0..2**64-1" in err


# -- one parser for every call in a process ------------------------------------

SEQUENCE = [
    ["expand", "scalar:p=1/2;N=3", "--order", "5", "--form", "magnus-oracle"],
    ["verify", "prelie", "--seed", "2", "--backend", "float", "--json", "--samples", "2"],
    # the flags of the calls before are back at their defaults
    ["expand", "free:N=2;degrees=1,2"],
    ["limit", "field:poly(X+x*Y;dim=2)", "--deltas", "1/4,1/8,1/16"],
    ["verify", "prelie", "--samples", "2"],
]


def test_calls_in_one_process_print_what_fresh_calls_print(capsys):
    fresh = []
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv)[:2])
    assert len({out for _, out in fresh}) == len(SEQUENCE)
    assert cli.build_parser() is cli.build_parser()
    assert [run_cli(capsys, *argv)[:2] for argv in SEQUENCE] == fresh


@pytest.mark.parametrize("argv", [
    ["verify", "prelie", "--bogus"],
    ["verify", "prelie", "--backend", "double"],
    ["expand", "scalar:N=2", "--form", "taylor"],
    ["limit", "field:poly(X;dim=2)"],
])
def test_a_bad_flag_exits_2_as_with_a_fresh_parser(capsys, argv):
    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        return exc.value.code, *capsys.readouterr()

    cli.build_parser.cache_clear()
    fresh = usage_error()
    assert fresh[0] == 2 and fresh[1] == "" and fresh[2].startswith("usage: ordexp ")
    assert run_cli(capsys, "expand", "scalar:N=2")[0] == 0
    assert usage_error() == fresh
    assert usage_error() == fresh


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("suite", ["brace", "prelie"])
def test_both_sides_of_the_size_rule_reach_a_passing_report(capsys, suite, backend):
    # blocks of SPARSE_FROM - 1 take a compiled kernel, blocks of SPARSE_FROM
    # walk their nonzero rows
    exact = backend == "exact"
    for dim in (SPARSE_FROM - 1, SPARSE_FROM):
        code, out, _ = run_cli(capsys, "verify", suite, "--dim", str(dim), "--samples", "1",
                               "--backend", backend)
        assert code == 0
        assert out.endswith("result: PASS\n")
        assert ("prelie", SPARSE_FROM - 1, exact) in matrix._KERNELS
        assert not any(SPARSE_FROM in key for key in matrix._KERNELS)
