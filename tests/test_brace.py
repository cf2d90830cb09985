"""Brace structure built from the degree-truncated pre-Lie algebra."""

import functools
import gc
import random
from fractions import Fraction

import pytest

from ordexp import SuiteConfig, run_suite, suites
from ordexp.brace import (
    GradedPreLieElement,
    bch,
    brace_mul,
    circle_assoc_residual,
    exp_flow,
    flow_composition_residual,
    left_brace_residual,
    omega_map,
    w_map,
)
from ordexp.errors import BackendMismatch, DimensionMismatch
from ordexp.expansion import FORWARD, SiteOperatorFamily, magnus_oracle, prefix_monodromy
from ordexp.freealg import FreeElement
from ordexp.matrix import Matrix, stack_prelie_left
from ordexp.rotabaxter import SiteSequence, prelie_left
from ordexp.series import AlphaSeries


def seq_prelie(a, b):
    return prelie_left(a, b)


def assoc_prod(a, b):
    return a * b


def trivial_prod(a, b):
    return a * Fraction(0)


def free_seq(n_sites, tag):
    return SiteSequence(
        [FreeElement.gen(f"{tag}{n}", site=n) for n in range(1, n_sites + 1)]
    )


def rand_seq(rng, n_sites=3, size=2):
    return SiteSequence(
        [
            Matrix(
                [
                    [Fraction(rng.randint(-2, 2)) for _ in range(size)]
                    for _ in range(size)
                ]
            )
            for _ in range(n_sites)
        ]
    )


def rand_element(rng, order=4, degrees=(1, 2)):
    comps = {d: rand_seq(rng) for d in degrees}
    return GradedPreLieElement(order, comps, seq_prelie)


def test_constructor_validation():
    s = free_seq(2, "a")
    with pytest.raises(DimensionMismatch):
        GradedPreLieElement(0, {1: s}, seq_prelie)
    with pytest.raises(DimensionMismatch):
        GradedPreLieElement(3, {0: s}, seq_prelie)
    with pytest.raises(DimensionMismatch):
        GradedPreLieElement(3, {}, seq_prelie)
    elt = GradedPreLieElement(3, {5: s, 1: s}, seq_prelie)
    assert 5 not in elt.components  # beyond truncation


def test_mismatched_products_rejected():
    s = free_seq(2, "a")
    x = GradedPreLieElement(3, {1: s}, seq_prelie)
    y = GradedPreLieElement(3, {1: s}, assoc_prod)
    with pytest.raises(BackendMismatch):
        x + y


def test_trivial_product_flows_are_identity():
    a = GradedPreLieElement(4, {1: free_seq(2, "a")}, trivial_prod)
    b = GradedPreLieElement(4, {2: free_seq(2, "b")}, trivial_prod)
    assert w_map(a) == a
    assert omega_map(a) == a
    assert brace_mul(a, b) == a + b
    assert bch(a, b) == a + b


def test_w_printed_coefficients():
    s = free_seq(3, "a")
    a = GradedPreLieElement(3, {1: s}, seq_prelie)
    w = w_map(a)
    ss = prelie_left(s, s)
    assert w.component(1) == s
    assert w.component(2) == Fraction(1, 2) * ss
    assert w.component(3) == Fraction(1, 6) * prelie_left(s, ss)


def test_omega_printed_coefficients():
    s = free_seq(3, "a")
    a = GradedPreLieElement(3, {1: s}, seq_prelie)
    om = omega_map(a)
    ss = prelie_left(s, s)
    assert om.component(1) == s
    assert om.component(2) == Fraction(-1, 2) * ss
    expected3 = Fraction(1, 4) * prelie_left(ss, s) + Fraction(1, 12) * prelie_left(s, ss)
    assert om.component(3) == expected3


def test_round_trips_matrix_backend():
    rng = random.Random(41)
    for _ in range(6):
        a = rand_element(rng, order=4)
        assert omega_map(w_map(a)) == a
        assert w_map(omega_map(a)) == a


def test_round_trips_free_backend():
    a = GradedPreLieElement(
        4, {1: free_seq(2, "a"), 2: free_seq(2, "u")}, seq_prelie
    )
    assert omega_map(w_map(a)) == a
    assert w_map(omega_map(a)) == a


def test_bch_scalar_sequences_commute():
    a = GradedPreLieElement(3, {1: SiteSequence([Fraction(1), Fraction(2)])}, seq_prelie)
    b = GradedPreLieElement(3, {1: SiteSequence([Fraction(5), Fraction(-1)])}, seq_prelie)
    assert a.bracket(b).is_zero()
    assert bch(a, b) == a + b


def test_bch_degree_two():
    rng = random.Random(43)
    a = GradedPreLieElement(2, {1: rand_seq(rng)}, seq_prelie)
    b = GradedPreLieElement(2, {1: rand_seq(rng)}, seq_prelie)
    assert bch(a, b) == a + b + a.bracket(b).scale(Fraction(1, 2))


def test_bch_degree_three_hand_terms():
    rng = random.Random(47)
    a = GradedPreLieElement(3, {1: rand_seq(rng)}, seq_prelie)
    b = GradedPreLieElement(3, {1: rand_seq(rng)}, seq_prelie)
    c = bch(a, b)
    expected3 = (
        a.bracket(a.bracket(b)) + b.bracket(b.bracket(a))
    ).scale(Fraction(1, 12))
    assert c.component(3) == expected3.component(3)


def test_bch_matches_associative_log_through_degree_four():
    # in an associative carrier the induced bracket is the commutator, so
    # the bracket-reduced series must reproduce log(exp(x)exp(y)) verbatim
    x = GradedPreLieElement(4, {1: FreeElement.gen("x")}, assoc_prod)
    y = GradedPreLieElement(4, {1: FreeElement.gen("y")}, assoc_prod)
    c = bch(x, y)
    one = FreeElement.one()
    ex = AlphaSeries.from_parts(4, {1: FreeElement.gen("x")}, like=one).exp()
    ey = AlphaSeries.from_parts(4, {1: FreeElement.gen("y")}, like=one).exp()
    logs = (ex * ey).log()
    for k in range(1, 5):
        assert c.component(k) == logs.coeff(k)


def test_zero_is_circle_identity():
    rng = random.Random(53)
    b = rand_element(rng)
    zero = b.zero()
    assert brace_mul(zero, b) == b
    assert brace_mul(b, zero) == b


def test_left_brace_law():
    rng = random.Random(59)
    for _ in range(6):
        a, b, c = (rand_element(rng) for _ in range(3))
        assert left_brace_residual(a, b, c).is_zero()


def test_circle_associative():
    rng = random.Random(61)
    for _ in range(4):
        a, b, c = (rand_element(rng) for _ in range(3))
        assert circle_assoc_residual(a, b, c).is_zero()


def test_flow_composition_lemma():
    rng = random.Random(67)
    for _ in range(6):
        a = rand_element(rng)
        b = rand_element(rng)
        assert flow_composition_residual(a, b).is_zero()


def float_element(rng, order=3, degrees=(1, 2)):
    """A graded element whose site values are float matrices with inexact entries."""
    def seq():
        return SiteSequence(
            [Matrix([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
             for _ in range(3)]
        )
    return GradedPreLieElement(order, {d: seq() for d in degrees}, seq_prelie)


def test_float_residuals_equal_the_spelled_out_products():
    # Omega(a) is computed once per residual; on floats that must round
    # exactly as the separate brace products do (float == compares storage)
    rng = random.Random(73)
    for _ in range(3):
        a, b, c = (float_element(rng) for _ in range(3))
        assert left_brace_residual(a, b, c) == (
            brace_mul(a, b + c) + a - brace_mul(a, b) - brace_mul(a, c)
        )
        assert circle_assoc_residual(a, b, c) == (
            brace_mul(brace_mul(a, b), c) - brace_mul(a, brace_mul(b, c))
        )
        assert not left_brace_residual(a, b, c).is_zero()  # floats do round


def test_difference_and_negation_keep_every_bit():
    # a - b subtracts component by component and -b negates each component;
    # both must give, bit for bit (str spells each float by repr, so a -0.0
    # shows), what adding the -1 multiple gives, on both backends
    rng = random.Random(83)

    def spelled(elt):
        return {d: str(v) for d, v in elt.components.items()}

    backends = (
        (lambda: rng.uniform(-1, 1), 0.0),
        (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)), Fraction(0)),
    )
    for draw, zero in backends:
        def seq():
            return SiteSequence([Matrix([[draw(), zero], [draw(), draw()]]) for _ in range(3)])

        shared = seq()
        a = GradedPreLieElement(4, {1: seq(), 2: shared}, seq_prelie)
        # degree 3 is only in b; degree 2 cancels, so a - b must drop it
        b = GradedPreLieElement(4, {1: seq(), 2: shared, 3: seq()}, seq_prelie)
        for left, right in ((a - b, a + b.scale(Fraction(-1))),
                            (b - a, b + a.scale(Fraction(-1))),
                            (-b, b.scale(Fraction(-1)))):
            assert spelled(left) == spelled(right)
        assert sorted((a - b).components) == [1, 3]


def test_bch_table_serves_every_depth():
    # bch reads a word table cached per depth and brackets each shared word
    # prefix once; each depth must still give, bit for bit, what the plain
    # per-word left-nested loop over a fresh log(exp(x)exp(y)) gives
    rng = random.Random(79)
    for order in (2, 6, 3, 5, 4):
        a = float_element(rng, order=order, degrees=(1,))
        b = float_element(rng, order=order, degrees=(1,))
        one = FreeElement.one()
        ex = AlphaSeries.from_parts(order, {1: FreeElement.gen("x")}, like=one).exp()
        ey = AlphaSeries.from_parts(order, {1: FreeElement.gen("y")}, like=one).exp()
        logs = (ex * ey).log()
        want = a.zero()
        for k in range(1, order + 1):
            for names, coeff in logs.coeff(k).named_words():
                acc = {"x": a, "y": b}[names[0]]
                for name in names[1:]:
                    acc = acc.bracket({"x": a, "y": b}[name])
                want = want + acc.scale(coeff * Fraction(1, len(names)))
        got = bch(a, b)
        assert got.components.keys() == want.components.keys()
        # str of a float matrix spells every entry by repr, the sign of a zero too
        assert all(str(got.component(d)) == str(want.component(d)) for d in want.components)


def stack(seq):
    """The site stack of a sequence of square matrices: its values on top of each other."""
    return Matrix([row for v in seq.values for row in v.data])


def test_memoized_product_keeps_values_apart_below_float_resolution():
    tiny = Fraction(1, 3) + Fraction(1, 2**80)
    assert float(tiny) == float(Fraction(1, 3))
    seqs = [SiteSequence([Matrix([[x, 1], [0, x]]), Matrix([[1, x], [x, 0]])])
            for x in (Fraction(1, 3), tiny)]
    other = SiteSequence([Matrix([[2, 1], [1, 0]]), Matrix([[0, 1], [3, 1]])])
    stacks = [stack(s) for s in seqs]
    product = functools.cache(stack_prelie_left)
    first, second = product(stacks[0], stack(other)), product(stacks[1], stack(other))
    assert first == stack(prelie_left(seqs[0], other))
    assert second == stack(prelie_left(seqs[1], other))
    assert first != second
    # a repeat, on equal operands that are other objects, is read, not recomputed
    assert product(stack(seqs[0]), stack(other)) is first
    assert product.cache_info().misses == 2


def test_memoized_product_keeps_shapes_apart():
    # four 1x1 sites and one 2x2 site hold the same flat entries
    column, square = Matrix([[1], [2], [3], [4]]), Matrix([[1, 2], [3, 4]])
    assert column.num == square.num and column != square
    product = functools.cache(stack_prelie_left)
    assert product(column, column) == Matrix([[1], [4], [9], [16]])
    assert product(square, square) == Matrix([[7, 10], [15, 22]])
    assert product.cache_info().misses == 2


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("order,samples", [(4, 6), (6, 3)])
def test_brace_suite_memo_changes_no_byte(monkeypatch, seed, backend, order, samples):
    # the per-case cache must give every byte the plain product gives,
    # beyond the seed whose digests are committed
    cfg = SuiteConfig(seed=seed, backend=backend, order=order, samples=samples)
    memo = run_suite("brace", cfg)
    monkeypatch.setattr(suites, "cache", lambda product: product)
    plain = run_suite("brace", cfg)
    assert memo.to_text() == plain.to_text()
    assert memo.to_json() == plain.to_json()


@pytest.mark.parametrize("backend,requested,computed", [
    ("exact", 11025, 5375), ("float", 11156, 5734)])
def test_brace_suite_computes_each_repeated_product_once(monkeypatch, backend, requested, computed):
    # seed 1 at default sizes: the counts the per-case memo gave before it
    # became a functools.cache, so the same requests hit
    calls = {"requested": 0, "computed": 0}

    def counted(name, product):
        def count(a, b):
            calls[name] += 1
            return product(a, b)
        return count

    monkeypatch.setattr(suites, "stack_prelie_left", counted("computed", stack_prelie_left))
    monkeypatch.setattr(suites, "cache", lambda product: counted("requested", functools.cache(product)))
    run_suite("brace", SuiteConfig(seed=1, backend=backend))
    assert calls == {"requested": requested, "computed": computed}


def test_brace_suite_leaves_no_reference_cycle():
    # each case's memo must be freed when its case ends, by reference
    # counting alone: a cycle would keep it until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        run_suite("brace", SuiteConfig(order=4, sites=2, samples=2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brace_mul_expands_as_printed():
    rng = random.Random(71)
    a = rand_element(rng, order=3, degrees=(1,))
    b = rand_element(rng, order=3, degrees=(1, 2))
    om = omega_map(a)
    expected = a + b + om.prod(b)
    expected = expected + om.prod(om.prod(b)).scale(Fraction(1, 2))
    expected = expected + om.prod(om.prod(om.prod(b))).scale(Fraction(1, 6))
    assert brace_mul(a, b) == expected


def test_omega_gives_per_site_magnus_increments():
    # the per-site pieces of Omega on a linear chain are the increments of
    # the prefix-product logarithms, and they sum to the full expansion
    rng = random.Random(73)
    n_sites = 4
    entries = {}
    for n in range(1, n_sites + 1):
        entries[(n, 1)] = Matrix(
            [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        )
    fam = SiteOperatorFamily(n_sites, entries, direction=FORWARD)
    order = 3
    a = GradedPreLieElement(order, {1: fam.degree_sequence(1)}, seq_prelie)
    om = omega_map(a)
    logs = [
        prefix_monodromy(fam, j, order).log() for j in range(1, n_sites + 2)
    ]
    for k in range(1, order + 1):
        comp = om.component(k)
        for n in range(1, n_sites + 1):
            assert comp.at(n) == logs[n].coeff(k) - logs[n - 1].coeff(k)
    totals = magnus_oracle(fam, order)
    for k in range(1, order + 1):
        acc = None
        for n in range(1, n_sites + 1):
            acc = om.component(k).at(n) if acc is None else acc + om.component(k).at(n)
        assert acc == totals[k - 1]


def test_exp_flow_is_group_action_inverse():
    rng = random.Random(79)
    a = rand_element(rng, degrees=(1,))
    b = rand_element(rng)
    moved = exp_flow(a, b)
    back = exp_flow(a.scale(Fraction(-1)), moved)
    assert back == b
