"""R-matrix identities, RTT, exchange relations, and Hopf data in exact arithmetic."""

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

import pytest

from ordexp.errors import (
    DimensionMismatch,
    InsufficientSamples,
    SingularOperator,
    UnsupportedOrder,
)
from ordexp.expansion import dyson_terms
from ordexp.matrix import Matrix, aux_block, commutator, kron_embed, partial_trace_first
from ordexp.rotabaxter import SiteSequence, trid_prec
from ordexp.series import AlphaSeries
from ordexp.yangian import (
    _rtt_parts,
    block_table,
    classical_r,
    classical_ybe_residual,
    coproduct_tridendriform_residual,
    fundamental_lax,
    geometric_lax,
    hopf_checks,
    monodromy_coproduct,
    monodromy_family,
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


def sum_of(matrices):
    return reduce(add, matrices)


def generic_lax(dim, seed):
    """1 + A/lambda with A a random integer matrix: no RTT solution, so its
    exchange residuals and q-generator families do not vanish."""
    rng = random.Random(seed)
    size = dim * dim
    return AlphaSeries([Matrix.identity(size),
                        Matrix([[F(rng.randint(-2, 2)) for _ in range(size)]
                                for _ in range(size)])])


def plain_exchange_defect(series, dim):
    """Worst defect of the exchange relation, one aux index tuple at a time:
    [L^(n+1)_ij, L^(m)_kl] - [L^(n)_ij, L^(m+1)_kl]
        - L^(m)_kj L^(n)_il + L^(n)_kj L^(m)_il over n + m <= order - 1."""
    t = [block_table(series.coeff(p), dim) for p in range(series.order + 1)]
    return max(
        (commutator(t[n + 1][i][j], t[m][k][l]) - commutator(t[n][i][j], t[m + 1][k][l])
         - t[m][k][j] * t[n][i][l] + t[n][k][j] * t[m][i][l]).max_abs()
        for n in range(series.order) for m in range(series.order - n)
        for i, j, k, l in product(range(dim), repeat=4))


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

    @pytest.mark.parametrize("degree", [-1, True, 2.0])
    def test_geometric_lax_degree_must_be_a_nonnegative_int(self, degree):
        with pytest.raises(UnsupportedOrder):
            geometric_lax(2, degree)
        assert geometric_lax(2, 0).order == 0

    @pytest.mark.parametrize("dim", [True, 2.0])
    @pytest.mark.parametrize("build", [fundamental_lax, yangian_r, classical_r,
                                       lambda dim: geometric_lax(dim, 1), hopf_checks],
                             ids=["fundamental_lax", "yangian_r", "classical_r", "geometric_lax",
                                  "hopf_checks"])
    def test_entry_points_take_a_plain_int_dimension_only(self, build, dim):
        # each is built on the flip, which refuses the dimension before any use of it
        with pytest.raises(DimensionMismatch):
            build(dim)

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
        assert monodromy_coproduct(lax, 1, 2).coeff(1) == permutation_op(2).to_float()


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
        assert _rtt_parts(yangian_r(dim), fundamental_lax(dim))[1].is_zero()
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
        defect = yangian_relations_residual(series, 2)
        assert defect == 0 and type(defect) is Fraction

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_defining_relation_at_dim_3(self, n_sites):
        series = monodromy_coproduct(fundamental_lax(3), n_sites, 4)
        assert yangian_relations_residual(series, 3) == 0

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

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_skipping_zero_blocks_keeps_the_plain_formula(self, dim, n_sites):
        # the tensor-leg identity's worst defect is the worst of the plain
        # per-index formula, also where the relation fails
        generic = generic_lax(dim, seed=10 * dim + n_sites)
        for lax in (fundamental_lax(dim), generic):
            series = monodromy_coproduct(lax, n_sites, 4)
            defect = yangian_relations_residual(series, dim)
            assert defect == plain_exchange_defect(series, dim)
            assert defect > 0 if lax is generic else defect == 0

    def test_order_out_of_range(self):
        series = monodromy_coproduct(fundamental_lax(2), 2, 0)
        with pytest.raises(UnsupportedOrder):
            yangian_relations_residual(series, 2)

    @pytest.mark.parametrize("dim", [0, 1, True, 2.0])
    @pytest.mark.parametrize("check", [yangian_relations_residual, q_generators_and_relations])
    def test_aux_dimension_must_be_an_int_of_at_least_two(self, check, dim):
        # unchecked, 1 and True never end the site-count search and 0 divides by zero
        series = monodromy_coproduct(fundamental_lax(2), 1, 3)
        with pytest.raises(DimensionMismatch):
            check(series, dim)

    def test_dimension_budget_counts_both_aux_legs(self):
        # aux (x) 3 sites at dim 4 is 4^4 = 256, within the budget; the
        # second aux leg makes it 4^5
        size = 4 ** 4
        series = AlphaSeries([Matrix.identity(size), Matrix.zeros(size)])
        with pytest.raises(DimensionMismatch):
            yangian_relations_residual(series, 4)


class TestQGenerators:
    def test_relation_families(self):
        series = monodromy_coproduct(fundamental_lax(2), 3, 3)
        report = q_generators_and_relations(series, 2)
        assert report["first_family"] == 0
        assert report["second_family"] == 0
        # the displayed 1/12 placement is the correct one; swapping the
        # deltas breaks the relation
        assert report["third_family_literal"] == 0
        assert report["third_family_swapped"] == F(7, 2)

    @staticmethod
    def per_tuple_reference(series, dim):
        """The four family defects by the per-tuple formula, with Fraction
        Kronecker deltas and every bracket formed at every index tuple."""
        def delta(a, b):
            return F(1) if a == b else F(0)

        logs = series.log()
        q = {m: block_table(logs.coeff(m), dim) for m in (1, 2, 3)}
        q1 = logs.coeff(1)
        q1sq, q1cube = block_table(q1 * q1, dim), block_table(q1 * q1 * q1, dim)
        rows = []
        for i, j, k, l in product(range(dim), repeat=4):
            r1 = (commutator(q[1][i][j], q[1][k][l])
                  - q[1][k][j] * delta(i, l) + q[1][i][l] * delta(k, j))
            r2 = (commutator(q[1][i][j], q[2][k][l])
                  - q[2][k][j] * delta(i, l) + q[2][i][l] * delta(k, j))
            base = (
                commutator(q[2][i][j], q[2][k][l])
                - q[3][k][j] * delta(i, l)
                + q[3][i][l] * delta(k, j)
                + q[1][k][j] * q1sq[i][l] * F(1, 4)
                - q1sq[k][j] * q[1][i][l] * F(1, 4)
            )
            twelfth = (q1cube[i][l] * delta(k, j) - q1cube[k][j] * delta(i, l)) * F(1, 12)
            rows.append((r1.max_abs(), r2.max_abs(),
                         (base - twelfth).max_abs(), (base + twelfth).max_abs()))
        names = ("first_family", "second_family", "third_family_literal",
                 "third_family_swapped")
        return dict(zip(names, map(max, zip(*rows))))

    @pytest.mark.parametrize("dim, n_sites, generic", [
        (2, 3, False), (3, 3, False), (2, 3, True), (3, 2, True), (4, 3, False),
    ])
    def test_families_equal_the_per_tuple_formula(self, dim, n_sites, generic):
        # each family's operator on aux (x) aux (x) quantum must give its
        # worst block residual over the index tuples exactly; the generic lax
        # breaks every family, so no value is a trivial zero, and dim 4 on
        # three sites makes operators of 4^5 rows, over DIMENSION_BUDGET
        lax = generic_lax(dim, seed=dim) if generic else fundamental_lax(dim)
        series = monodromy_coproduct(lax, n_sites, 3)
        report = q_generators_and_relations(series, dim)
        reference = self.per_tuple_reference(series, dim)
        assert report == reference
        assert all(isinstance(v, Fraction) for v in report.values())
        if generic:
            assert all(report.values())

    def test_relation_families_dim_three(self):
        series = monodromy_coproduct(fundamental_lax(3), 3, 3)
        report = q_generators_and_relations(series, 3)
        assert report == {"first_family": 0, "second_family": 0,
                          "third_family_literal": 0, "third_family_swapped": F(7, 2)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_product_tables_are_block_sums(self, dim):
        # the tables of q1^2 and q1^3 are read from whole products; a block
        # of a product is the sum of the block products over inner indices
        q1 = monodromy_coproduct(fundamental_lax(dim), 3, 3).log().coeff(1)
        q = block_table(q1, dim)
        sq, cube = block_table(q1 * q1, dim), block_table(q1 * q1 * q1, dim)
        for a, b in product(range(dim), repeat=2):
            assert sq[a][b] == sum_of(q[a][x] * q[x][b] for x in range(dim))
            assert cube[a][b] == sum_of(q[a][x] * q[x][y] * q[y][b]
                                        for x, y in product(range(dim), repeat=2))

    def test_requires_order_three(self):
        series = monodromy_coproduct(fundamental_lax(2), 2, 2)
        with pytest.raises(UnsupportedOrder):
            q_generators_and_relations(series, 2)


class TestTransferMatrices:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_commuting_family_dim_two(self, n_sites):
        assert transfer_commute_residual(fundamental_lax(2), n_sites, 4) == 0

    @pytest.mark.parametrize("n_sites", [1, 2])
    def test_commuting_family_dim_three(self, n_sites):
        assert transfer_commute_residual(fundamental_lax(3), n_sites, 3) == 0

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

    @pytest.mark.parametrize("dim,n_sites", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["fundamental", "geometric"])
    def test_fold_blocks_are_the_nested_prec_expansion(self, dim, n_sites, kind):
        # The paper's entrywise formulas for Delta^N(L^(m)_ab), m = 1..3,
        # spelled out as nested prec actions of the lax blocks on the
        # quantum sites: block (a, b) of the tridendriform Dyson fold of
        # the monodromy family is that expansion.
        lax = fundamental_lax(dim) if kind == "fundamental" else geometric_lax(dim, 3)
        fold = dyson_terms(monodromy_family(lax, n_sites), 3, method="tridendriform")

        def seq(m, a, b):
            block = aux_block(lax.coeff(m), a, b, dim)
            return SiteSequence([kron_embed(block, (n,), n_sites, dim) for n in range(n_sites)])

        def nested(m, a, b):
            rhs = seq(m, a, b)
            for c in range(dim):
                if m >= 2:
                    rhs = rhs + trid_prec(seq(1, a, c), seq(m - 1, c, b))
                if m == 3:
                    rhs = rhs + trid_prec(seq(2, a, c), seq(1, c, b))
                    for d in range(dim):
                        rhs = rhs + trid_prec(seq(1, a, d),
                                              trid_prec(seq(1, d, c), seq(1, c, b)))
            return rhs.total()

        for m in (1, 2, 3):
            for a, b in product(range(dim), repeat=2):
                assert aux_block(fold[m], a, b, dim) == nested(m, a, b), (m, a, b)
