"""R-matrix identities, RTT, exchange relations, and Hopf data in exact arithmetic."""

from fractions import Fraction

import pytest

from ordexp.errors import (
    DimensionMismatch,
    InsufficientSamples,
    SingularOperator,
    UnsupportedOrder,
)
from ordexp.matrix import Matrix, aux_block, commutator, kron_embed, partial_trace_first
from ordexp.series import AlphaSeries
from ordexp.yangian import (
    _rtt_parts,
    classical_r,
    classical_ybe_residual,
    coproduct_tridendriform_residual,
    fundamental_lax,
    geometric_lax,
    hopf_checks,
    monodromy_coproduct,
    permutation_op,
    q_generators_and_relations,
    rtt_matching_order_residual,
    rtt_residual,
    transfer_commute_residual,
    yangian_r,
    yangian_relations_residual,
    ybe_residual,
)

F = Fraction

TRIPLES = [
    (F(3), F(1, 2), F(-2)),
    (F(5), F(2), F(1)),
    (F(0), F(1), F(7)),
    (F(-1), F(-3), F(4)),
    (F(1, 3), F(1, 5), F(1, 7)),
    (F(10), F(-10), F(3, 2)),
    (F(2, 7), F(9), F(-4)),
    (F(6), F(5), F(-1, 2)),
    (F(-5, 3), F(8), F(0)),
    (F(11), F(-2, 9), F(13, 4)),
]


class TestLaxSeries:
    def test_degree_zero_must_be_identity(self):
        p = permutation_op(2)
        with pytest.raises(DimensionMismatch):
            monodromy_coproduct(AlphaSeries([p, p]), 1, 2)
        with pytest.raises(DimensionMismatch):
            rtt_residual(yangian_r(2), AlphaSeries([p, p]), [2, 3, 5], [7, 11, 13])

    def test_constant_term_must_act_on_a_square_dimension(self):
        with pytest.raises(DimensionMismatch):
            monodromy_coproduct(AlphaSeries([Matrix.identity(3), Matrix.zeros(3)]), 1, 2)
        with pytest.raises(DimensionMismatch):
            coproduct_tridendriform_residual(AlphaSeries([Fraction(1), Fraction(2)]), 2)

    def test_coefficients_must_share_the_shape(self):
        with pytest.raises(DimensionMismatch):
            monodromy_coproduct(AlphaSeries([Matrix.identity(4), Matrix.zeros(2)]), 1, 2)

    def test_coeff_pads_with_zeros(self):
        lax = fundamental_lax(2)
        assert lax.order == 1
        assert lax.coeff(5) == Matrix.zeros(4)

    def test_rtt_factors_use_negative_powers(self):
        (_, l1, l2), _ = _rtt_parts(yangian_r(2), fundamental_lax(2))
        assert set(l1.coeffs) == {(0, 0), (-1, 0)}
        assert set(l2.coeffs) == {(0, 0), (0, -1)}

    def test_single_site_log_values(self):
        # log(1 + a P) realizes the generator combinations P, -P^2/2, P^3/3
        p = permutation_op(2)
        logs = fundamental_lax(2).truncate(3).log()
        assert logs.coeff(1) == p
        assert logs.coeff(2) == p * p * F(-1, 2)
        assert logs.coeff(3) == p * p * p * F(1, 3)

    def test_float_cast_keeps_a_valid_lax(self):
        lax = fundamental_lax(2).to_float()
        assert not lax.coeff(1).is_exact()
        assert monodromy_coproduct(lax, 1, 2).coeff(1) == permutation_op(2)


class TestYangBaxter:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rational_r_solves_ybe(self, dim):
        r = yangian_r(dim)
        for lams in TRIPLES:
            assert ybe_residual(r, *lams, dim).is_zero()

    def test_equal_arguments_give_braid_relation(self):
        # R(0) = P, so the coincident point is the permutation braid identity
        r = yangian_r(2)
        assert r.eval(F(0)) == permutation_op(2)
        assert ybe_residual(r, F(4), F(4), F(4), 2).is_zero()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_classical_r_solves_classical_ybe(self, dim):
        r = classical_r(dim)
        assert classical_ybe_residual(r, F(3), F(2), F(0), dim).is_zero()
        for lams in TRIPLES:
            if len({*lams}) == 3:
                assert classical_ybe_residual(r, *lams, dim).is_zero()

    def test_classical_r_pole(self):
        with pytest.raises(SingularOperator):
            classical_ybe_residual(classical_r(2), F(1), F(1), F(0), 2)


class TestRtt:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_fundamental_lax_on_prime_grid(self, dim):
        report = rtt_residual(
            yangian_r(dim), fundamental_lax(dim), [2, 3, 5, 7], [11, 13, 17, 19]
        )
        assert report.degrees == [2, 2]
        assert report.max_abs == 0
        assert report.exact_zero
        assert len(report.points) == 16

    def test_insufficient_samples_rejected(self):
        with pytest.raises(InsufficientSamples):
            rtt_residual(yangian_r(2), fundamental_lax(2), [2, 3], [11, 13, 17, 19])

    def test_duplicate_samples_do_not_count(self):
        with pytest.raises(InsufficientSamples):
            rtt_residual(yangian_r(2), fundamental_lax(2), [2, 2, 3], [11, 13, 17])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_geometric_lax_matches_to_truncation_order(self, dim):
        residual = rtt_matching_order_residual(yangian_r(dim), geometric_lax(dim, 3))
        assert residual.is_zero()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_even_truncation_contaminates_only_cut_orders(self, dim):
        # degree-2 cut: the full residual lives exactly at the first
        # untrusted exponents, and the trusted window is clean
        r = yangian_r(dim)
        lax = geometric_lax(dim, 2)
        assert rtt_matching_order_residual(r, lax).is_zero()
        _, full = _rtt_parts(r, lax)
        assert sorted(full.coeffs) == [(-2, -1), (-1, -2)]


class TestMonodromyCoproduct:
    def test_single_site_is_the_lax(self):
        lax = fundamental_lax(2)
        series = monodromy_coproduct(lax, 1, 3)
        for m in range(4):
            assert series.coeff(m) == lax.coeff(m)

    def test_two_site_coefficients(self):
        series = monodromy_coproduct(fundamental_lax(2), 2, 2)
        p01 = kron_embed(permutation_op(2), (0, 1), 3, 2)
        p02 = kron_embed(permutation_op(2), (0, 2), 3, 2)
        assert series.coeff(1) == p01 + p02
        # site-2 factor stands to the left of the site-1 factor
        assert series.coeff(2) == p02 * p01

    def test_dimension_budget_enforced(self):
        with pytest.raises(DimensionMismatch):
            monodromy_coproduct(fundamental_lax(4), 4, 2)
        with pytest.raises(DimensionMismatch):
            monodromy_coproduct(fundamental_lax(2), 8, 2)


class TestExchangeRelations:
    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_defining_relation_all_low_orders(self, n_sites):
        series = monodromy_coproduct(fundamental_lax(2), n_sites, 4)
        coeffs = [series.coeff(k) for k in range(5)]
        for n in range(4):
            for m in range(4 - n):
                for i in range(2):
                    for j in range(2):
                        for k in range(2):
                            for l in range(2):
                                res = yangian_relations_residual(
                                    coeffs, 2, n, m, i, j, k, l
                                )
                                assert res.is_zero()

    def test_printed_exchange_items(self):
        # [L^(p)_ij, L^(1)_kl] = d_il L^(p)_kj - d_kj L^(p)_il for p = 1, 2, 3
        # and [L^(3)_ij, L^(1)_kl] - [L^(2)_ij, L^(2)_kl]
        #     = L^(1)_kj L^(2)_il - L^(2)_kj L^(1)_il
        dim = 2
        series = monodromy_coproduct(fundamental_lax(dim), 3, 4)
        blocks = {
            m: [
                [aux_block(series.coeff(m), a, b, dim) for b in range(dim)]
                for a in range(dim)
            ]
            for m in range(5)
        }

        def delta(a, b):
            return F(1) if a == b else F(0)

        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        for p in (1, 2, 3):
                            lhs = commutator(blocks[p][i][j], blocks[1][k][l])
                            rhs = blocks[p][k][j] * delta(i, l) - blocks[p][i][l] * delta(k, j)
                            assert lhs == rhs
                        lhs = commutator(blocks[3][i][j], blocks[1][k][l]) - commutator(
                            blocks[2][i][j], blocks[2][k][l]
                        )
                        rhs = (
                            blocks[1][k][j] * blocks[2][i][l]
                            - blocks[2][k][j] * blocks[1][i][l]
                        )
                        assert lhs == rhs

    def test_order_out_of_range(self):
        series = monodromy_coproduct(fundamental_lax(2), 2, 2)
        coeffs = [series.coeff(k) for k in range(3)]
        with pytest.raises(UnsupportedOrder):
            yangian_relations_residual(coeffs, 2, 2, 0, 0, 0, 0, 0)


class TestQGenerators:
    def test_relation_families(self):
        series = monodromy_coproduct(fundamental_lax(2), 3, 3)
        q, report = q_generators_and_relations(series, 2)
        assert report["first_family"] == 0
        assert report["second_family"] == 0
        # the displayed 1/12 placement is the correct one; swapping the
        # deltas breaks the relation
        assert report["third_family_literal"] == 0
        assert report["third_family_swapped"] == F(7, 2)

    def test_q1_blocks_are_log_blocks(self):
        series = monodromy_coproduct(fundamental_lax(2), 2, 3)
        q, _ = q_generators_and_relations(series, 2)
        logs = series.log()
        for a in range(2):
            for b in range(2):
                assert q[1][a][b] == aux_block(logs.coeff(1), a, b, 2)

    def test_requires_order_three(self):
        series = monodromy_coproduct(fundamental_lax(2), 2, 2)
        with pytest.raises(UnsupportedOrder):
            q_generators_and_relations(series, 2)


class TestTransferMatrices:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_commuting_family_dim_two(self, n_sites):
        assert transfer_commute_residual(2, n_sites, 4) == 0

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_commuting_family_dim_three(self, n_sites):
        assert transfer_commute_residual(3, n_sites, 3) == 0

    def test_single_site_transfer_values(self):
        # tr_aux(1 + a P) = 2 + a on one site of dimension two
        series = monodromy_coproduct(fundamental_lax(2), 1, 1)
        assert partial_trace_first(series.coeff(0), 2) == Matrix.identity(2) * F(2)
        assert partial_trace_first(series.coeff(1), 2) == Matrix.identity(2)


class TestHopfData:
    def test_two_site_coproduct_oracle(self):
        # frozen: order-2 log of the two-site monodromy
        logs = monodromy_coproduct(fundamental_lax(2), 2, 2).log()
        p01 = kron_embed(permutation_op(2), (0, 1), 3, 2)
        p02 = kron_embed(permutation_op(2), (0, 2), 3, 2)
        expected = (
            p01 * p01 * F(-1, 2)
            + p02 * p02 * F(-1, 2)
            + commutator(p02, p01) * F(1, 2)
        )
        assert logs.coeff(2) == expected

    @pytest.mark.parametrize("dim,printed_defect", [(2, F(3, 2)), (3, F(2))])
    def test_report_values(self, dim, printed_defect):
        report = hopf_checks(dim)
        assert report["coproduct_q1"] == 0
        # first tensor leg = leftmost monodromy factor = highest site
        assert report["coproduct_q2_first_leg_high_site"] == 0
        assert report["coproduct_q2_first_leg_low_site"] != 0
        assert report["coassociativity"] == 0
        assert report["counit"] == 0
        assert report["antipode_q1"] == 0
        # the linear antipode guess misses the quadratic correction
        assert report["antipode_q2_vs_printed"] == printed_defect
        assert report["antipode_q2_vs_derived"] == 0

    def test_antipode_closed_form_directly(self):
        # inverse-lax order 2 equals -Q2 - (dim/2) Q1 + tr(Q1)/2 on each block
        for dim in (2, 3):
            lax = fundamental_lax(dim)
            inv = lax.truncate(2).inverse()
            logs = lax.truncate(2).log()
            trace_q1 = Matrix.zeros(dim)
            for x in range(dim):
                trace_q1 = trace_q1 + aux_block(logs.coeff(1), x, x, dim)
            for a in range(dim):
                for b in range(dim):
                    true = aux_block(inv.coeff(2), a, b, dim)
                    for x in range(dim):
                        true = true - aux_block(inv.coeff(1), x, b, dim) * aux_block(
                            inv.coeff(1), a, x, dim
                        ) * F(1, 2)
                    expected = (
                        -aux_block(logs.coeff(2), a, b, dim)
                        - aux_block(logs.coeff(1), a, b, dim) * F(dim, 2)
                    )
                    if a == b:
                        expected = expected + trace_q1 * F(1, 2)
                    assert true == expected


class TestCoproductSplitting:
    @pytest.mark.parametrize(
        "dim,degree,n_sites",
        [(2, 1, 2), (2, 1, 3), (2, 3, 2), (2, 3, 3), (3, 1, 2)],
    )
    def test_all_defects_vanish(self, dim, degree, n_sites):
        lax = fundamental_lax(dim) if degree == 1 else geometric_lax(dim, degree)
        report = coproduct_tridendriform_residual(lax, n_sites)
        assert set(report) == {
            "prec_succ_transpose",
            "dendriform_order_1",
            "dendriform_order_2",
            "dendriform_order_3",
            "prelie_matrix_order_1",
            "prelie_matrix_order_2",
            "prelie_matrix_order_3",
            "prelie_entry_order_1",
            "prelie_entry_order_2",
        }
        for name, value in report.items():
            assert value == 0, name
