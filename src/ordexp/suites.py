"""Verification suites behind the command line.

Each suite draws its cases from labeled substreams of the seed, runs the
module checks at the requested sizes, and records one report row per
law with the worst defect seen across the samples.  That defect comes
from `ops.worst` over the row's residuals, or from one residual's
`max_abs`, so it keeps the residuals' type: an exact row cannot hide a
float, and a row that checked no case raises.  A loop that feeds several
rows keeps each residual's `max_abs`, not the residual.

The size flags each suite reads (`--order`, `--sites`, `--dim`,
`--samples`) are declared once, in `SUITE_FLAGS`, with their defaults
(the package's acceptance scale) and least values; `_start` resolves
them, and rejects any other size flag and any size that is not a plain
int (a bool included), before the suite draws a case.

Each suite reads the backend once, to create its report and its root
`SampleSource`; the source then draws (or `cast`s) every sampled operator
in that backend, so no suite code branches on it.  On the float backend
rows pass when the defect stays within the tolerance.  Rows whose
computation is inherently exact (free-letter triples, the structural
quantum-algebra checks) keep their exact backend label either way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .brace import (
    GradedPreLieElement,
    circle_assoc_residual,
    flow_composition_residual,
    left_brace_residual,
    omega_map,
    w_map,
)
from .errors import AlgebraError
from .expansion import (
    BACKWARD,
    FORWARD,
    SiteOperatorFamily,
    closed_form_defects,
    dyson_terms,
    magnus_oracle,
    monodromy,
)
from .matrix import Matrix, stack_prelie_left
from .ops import max_abs, worst
from .report import EXACT, FLOAT, VerificationReport
from .rotabaxter import (
    IntegralOp,
    PartialSumOp,
    check_prelie_left,
    check_prelie_right,
    check_tridendriform,
    rb_residual,
)
from .sampling import SampleSource
from .series import AlphaSeries
from .boundary import (
    BoundaryProblem,
    GaugeProblem,
    double_row_monodromy,
    gauge_solve,
    reflection_hat,
)
from .yangian import (
    classical_r,
    classical_ybe_residual,
    coproduct_tridendriform_residual,
    fundamental_lax,
    geometric_lax,
    hopf_checks,
    monodromy_coproduct,
    q_generators_and_relations,
    rtt_matching_order_residual,
    rtt_residual,
    transfer_commute_residual,
    yangian_r,
    yangian_relations_residual,
    ybe_residual,
)

F = Fraction


class SuiteConfig:
    """Size and backend knobs shared by every suite; None means default.

    The backend and tolerance are checked here: the backend must be exact
    or float, and a tolerance is read only on the float backend and must be
    an int, float or Fraction (not a bool), finite and >= 0; None means
    1e-10, which the header shows on either backend.  The sizes (order,
    sites, dim, samples) are checked against the suite's row of
    `SUITE_FLAGS` when the suite starts.
    """

    __slots__ = ("seed", "backend", "tolerance", "order", "sites", "dim", "samples")

    def __init__(self, seed=1, backend=EXACT, tolerance=None, order=None,
                 sites=None, dim=None, samples=None):
        if backend not in (EXACT, FLOAT):
            raise AlgebraError(f"backend must be {EXACT} or {FLOAT}, got {backend!r}")
        if tolerance is None:
            tolerance = 1e-10
        elif backend == EXACT:
            raise AlgebraError(f"tolerance is read only on the {FLOAT} backend, got {tolerance!r}")
        elif (isinstance(tolerance, bool) or not isinstance(tolerance, (int, float, Fraction))
              or not 0 <= tolerance < math.inf):
            raise AlgebraError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
        self.seed = seed
        self.backend = backend
        self.tolerance = tolerance
        self.order = order
        self.sites = sites
        self.dim = dim
        self.samples = samples


SIZE_FLAGS = ("order", "sites", "dim", "samples")

# The size flags each suite reads, as flag: (default, least value).  A flag
# missing from a row is rejected, so no flag is printed and ignored.  Only
# magnus takes 0 sites (the empty chain, which draws no samples); yangian's
# default dim (2, 3) runs both dimensions; rota-baxter draws its samples as
# pairs of sequences, so it needs an even count of at least 2; boundary
# splits its samples over three kinds of problem, so it needs one of each.
SUITE_FLAGS = {
    "rota-baxter": {"sites": (5, 1), "dim": (2, 1), "samples": (100, 2)},
    "tridendriform": {"sites": (4, 1), "dim": (2, 1), "samples": (50, 1)},
    "prelie": {"sites": (4, 1), "dim": (2, 1), "samples": (50, 1)},
    "dyson": {"order": (4, 1), "sites": (5, 1), "dim": (2, 1), "samples": (25, 1)},
    "magnus": {"order": (4, 1), "sites": (5, 0), "dim": (2, 1), "samples": (25, 1)},
    "brace": {"order": (4, 1), "sites": (3, 1), "dim": (2, 1), "samples": (25, 1)},
    "yangian": {"sites": (4, 1), "dim": ((2, 3), 2)},
    "boundary": {"order": (3, 1), "sites": (3, 1), "dim": (2, 1), "samples": (25, 3)},
}


def _start(cfg: SuiteConfig, suite: str):
    """The suite's sizes, its empty report, and its root `SampleSource`.

    The sizes are the flags of the suite's row in `SIZE_FLAGS` order, each
    its default when not given (a given dim replaces yangian's two).  The
    header shows the suite's order, or 3 for a suite that reads none.
    """
    row = SUITE_FLAGS[suite]
    sizes = []
    for flag in SIZE_FLAGS:
        value = getattr(cfg, flag)
        if value is None:
            if flag in row:
                sizes.append(row[flag][0])
            continue
        if flag not in row:
            raise AlgebraError(f"{flag} is not read by the {suite} suite, got {value}")
        if type(value) is not int:
            raise AlgebraError(f"{flag} must be an integer, got {value!r}")
        if flag == "samples" and cfg.sites == 0:
            raise AlgebraError(f"samples is not read by the empty {suite} chain, got {value}")
        default, least = row[flag]
        if value < least:
            raise AlgebraError(f"{flag} must be at least {least} for the {suite} suite, got {value}")
        sizes.append((value,) if isinstance(default, tuple) else value)
    rep = VerificationReport(suite, cfg.seed, cfg.backend, cfg.tolerance,
                             sizes[0] if "order" in row else 3)
    return sizes, rep, SampleSource(cfg.seed, cfg.backend)


def rota_baxter_suite(cfg: SuiteConfig) -> VerificationReport:
    (sites, dim, sequences), rep, root = _start(cfg, "rota-baxter")
    if sequences % 2:
        raise AlgebraError(f"samples must be even for the rota-baxter suite, got {sequences}")
    pairs = sequences // 2
    poly_pairs = max(1, sequences // 5)

    src = root.split("rota-baxter:weight-one")
    op = PartialSumOp()
    rep.add(
        "partial-sum-weight-one",
        law="R(a)R(b) = R(R(a)b + aR(b) + ab) for the strict prefix sum",
        defect=worst(rb_residual(op, src.sequence(sites, dim), src.sequence(sites, dim))
                     for _ in range(pairs)),
        sequences=2 * pairs, sites=sites, dim=dim,
    )

    src = root.split("rota-baxter:weight-zero")
    integral = IntegralOp()
    degree = 3
    rep.add(
        "integral-weight-zero",
        law="R(p)R(q) = R(R(p)q + pR(q)) for the integral from the base point",
        defect=worst(rb_residual(integral, src.poly(degree), src.poly(degree))
                     for _ in range(poly_pairs)),
        pairs=poly_pairs, degree=degree,
    )
    return rep


# Row stem and law of each tridendriform row: the seven axioms and the star
# product, in the order check_tridendriform returns their residuals.
_TRID_LAWS = [
    ("axiom-1", "(a<b)<c = a<(b*c)"),
    ("axiom-2", "(a>b)<c = a>(b<c)"),
    ("axiom-3", "a>(b>c) = (a*b)>c"),
    ("axiom-4", "(a.b).c = a.(b.c)"),
    ("axiom-5", "(a>b).c = a>(b.c)"),
    ("axiom-6", "(a<b).c = a.(b>c)"),
    ("axiom-7", "(a.b)<c = a.(b<c)"),
    ("star-associativity", "(a*b)*c = a*(b*c) with * = < + > + ."),
]


def tridendriform_suite(cfg: SuiteConfig) -> VerificationReport:
    (sites, dim, triples), rep, root = _start(cfg, "tridendriform")

    def run(tag, draw, backend=None):
        src = root.split(f"tridendriform:{tag}")
        rows = []
        for _ in range(triples):
            a, b, c = draw(src)
            rows.append([max_abs(res) for res in check_tridendriform(a, b, c)])
        for (stem, law), defects in zip(_TRID_LAWS, zip(*rows)):
            rep.add(f"{stem}-{tag}", law=law, defect=worst(defects),
                    backend=backend, triples=triples, sites=sites)

    def draw_matrix(src):
        return [src.sequence(sites, dim) for _ in range(3)]

    def draw_free(src):
        return [src.free_sequence(sites, tag) for tag in ("a", "b", "c")]

    run("matrix", draw_matrix)
    run("free", draw_free, EXACT)
    return rep


def prelie_suite(cfg: SuiteConfig) -> VerificationReport:
    (sites, dim, triples), rep, root = _start(cfg, "prelie")

    checks = [
        ("left-associator-symmetry", check_prelie_left,
         "assoc(a,b,c) of a|>b is symmetric in a and b"),
        ("right-associator-symmetry", check_prelie_right,
         "assoc(a,b,c) of a<|b is symmetric in b and c"),
    ]
    for case_id, residual, law in checks:
        src = root.split(f"prelie:{case_id}")
        defect = worst(residual(*(src.sequence(sites, dim) for _ in range(3)))
                       for _ in range(triples))
        rep.add(case_id, law=law, defect=defect, triples=triples, sites=sites, dim=dim)
    return rep


def _sampled_family(src: SampleSource, max_sites: int, dim: int, index: int):
    n = src.integer(1, max_sites)
    degrees = src.subset((1, 2, 3))
    direction = FORWARD if index % 2 == 0 else BACKWARD
    return src.matrix_family(n, degrees, size=dim, direction=direction)


def dyson_suite(cfg: SuiteConfig) -> VerificationReport:
    (order, max_sites, dim, families), rep, root = _start(cfg, "dyson")

    defects = {"direct": [], "tridendriform": []}
    src = root.split("dyson:families")
    for k in range(families):
        fam = _sampled_family(src, max_sites, dim, k)
        mono = monodromy(fam, order)
        for method, found in defects.items():
            terms = dyson_terms(fam, order, method=method)
            found.extend(max_abs(terms[m] - mono.coeff(m)) for m in range(order + 1))
    rep.add(
        "iterated-sums-vs-product",
        law="T^(m) from descending iterated sums equals the ordered-product coefficient",
        defect=worst(defects["direct"]), families=families, max_sites=max_sites,
        order=order, directions="both",
    )
    rep.add(
        "dendriform-nesting-vs-product",
        law="T^(m) from nested half-shuffles equals the ordered-product coefficient",
        defect=worst(defects["tridendriform"]), families=families, max_sites=max_sites,
        order=order, directions="both",
    )
    return rep


def magnus_suite(cfg: SuiteConfig) -> VerificationReport:
    (order, max_sites, dim, families), rep, root = _start(cfg, "magnus")

    if max_sites == 0:
        fam = SiteOperatorFamily(0, {}, like=root.cast(Matrix.identity(dim)))
        mono = monodromy(fam, order)
        q = magnus_oracle(fam, order)
        rep.add(
            "empty-chain-identity",
            law="an empty chain has T = 1 and Q = 0",
            defect=worst([mono - AlphaSeries.one(order, like=fam.like), *q]),
            sites=0, order=order,
        )
        return rep

    def round_trip(fam):
        series = monodromy(fam, order)
        return series.log().exp() - series

    src = root.split("magnus:round-trip")
    rep.add(
        "exponential-round-trip",
        law="exp(sum_m alpha^m Q^(m)) reproduces the ordered product",
        defect=worst(round_trip(_sampled_family(src, max_sites, dim, k))
                     for k in range(families)),
        families=families, max_sites=max_sites, order=order,
    )

    one = root.cast(F(1))
    scalar = SiteOperatorFamily(2, {(1, 1): one, (2, 1): one}, like=one)
    q = magnus_oracle(scalar, 3)
    expected = [2, -1, F(2, 3)]
    rep.add(
        "scalar-chain-logarithm",
        law="two unit sites give Q = (2, -1, 2/3), the log of (1+alpha)^2",
        defect=worst(q[m] - expected[m] for m in range(3)), sites=2, value=1,
    )

    # Closed commutator and pre-Lie forms, orders 1-3, against the series
    # oracle; the transcribed commutator form is diagnostic only and its
    # row is gated by the pre-Lie match.
    styles = {"prelie": [], "explicit": []}
    src = root.split("magnus:closed-forms")
    cases = [_sampled_family(src, max_sites, dim, k) for k in range(families)]
    for k in range(families):
        p = root.cast(src.nonzero_fraction())
        n = src.integer(1, 4)
        entries = {(s, 1): p for s in range(1, n + 1)}
        direction = FORWARD if k % 2 == 0 else BACKWARD
        cases.append(
            SiteOperatorFamily(n, entries, direction=direction, like=one)
        )
    for fam in cases:
        for style, found in closed_form_defects(fam, order=3).items():
            styles[style].extend((degree, max_abs(res)) for degree, res in found)
    offending = {f"degree {degree}" for degree, d in styles["explicit"] if d != 0}
    prelie_pass = rep.add(
        "closed-form-pre-lie",
        law="Q^(2), Q^(3) from the pre-Lie closed forms match the series oracle",
        defect=worst(d for _, d in styles["prelie"]), families=families,
        scalar_families=families, orders="1-3", directions="both",
    )
    rep.add(
        "closed-form-commutator",
        law="Q^(2), Q^(3) from the transcribed commutator forms match the oracle",
        defect=worst(d for _, d in styles["explicit"]), gate=prelie_pass,
        offending=", ".join(sorted(offending)) or "none",
        families=families, scalar_families=families, orders="1-3",
    )
    return rep


def brace_suite(cfg: SuiteConfig) -> VerificationReport:
    (order, sites, dim, pairs), rep, root = _start(cfg, "brace")

    # Each degree of an element is one site stack, the sites' dim x dim
    # values on top of each other, so every linear operation is one matrix
    # operation and `stack_prelie_left` forms a product over all sites at once.
    zero = root.cast(Matrix.zeros(sites * dim, dim))

    # One case (a flow-inverse element, a left-law triple, a flow-composition
    # draw) shares one product cached on its operands' values, so the
    # products it repeats are made once: Omega's later sweeps redo the
    # settled degrees, and the residuals rebuild W and Omega on the same
    # elements.  `Matrix` equality and hash read shape, `den` and entries,
    # so equal stacks that are distinct objects hit, and an exact and a
    # float stack never meet.  A hit returns the earlier result itself; on
    # floats only the sign of a zero entry can differ from recomputing,
    # which `max_abs` erases.  The cache goes with the case.
    def case(src, count):
        product = cache(stack_prelie_left)
        return [GradedPreLieElement(order, {d: src.site_stack(sites, dim) for d in (1, 2)},
                                    product, like=zero)
                for _ in range(count)]

    src = root.split("brace:flow-inverse")
    rep.add(
        "flow-inverse",
        law="Omega inverts W in both orders, degree by degree",
        defect=worst(res for (a,) in (case(src, 1) for _ in range(pairs))
                     for res in (omega_map(w_map(a)) - a, w_map(omega_map(a)) - a)),
        elements=pairs, degree=order,
    )

    src = root.split("brace:left-law")
    rep.add(
        "left-brace-law",
        law="the circle product distributes as a left brace",
        defect=worst(left_brace_residual(*case(src, 3)) for _ in range(pairs)),
        triples=pairs, degree=order,
    )

    src = root.split("brace:flow-composition")
    flows, assocs = [], []
    for _ in range(pairs):
        a, b, c = case(src, 3)
        flows.append(max_abs(flow_composition_residual(a, b)))
        assocs.append(max_abs(circle_assoc_residual(a, b, c)))
    rep.add(
        "flow-composition",
        law="W(a) o W(b) = W(C(a,b)) with C the BCH composition",
        defect=worst(flows), pairs=pairs, degree=order,
    )
    rep.add(
        "circle-associativity",
        law="the circle product is associative to the truncation degree",
        defect=worst(assocs), triples=pairs, degree=order,
    )
    return rep


def yangian_suite(cfg: SuiteConfig) -> VerificationReport:
    (sites, dims), rep, root = _start(cfg, "yangian")

    def triples(src, count, distinct):
        out = []
        while len(out) < count:
            t = tuple(src.fraction(4) for _ in range(3))
            if distinct and len(set(t)) != 3:
                continue
            out.append(t)
        return out

    for dim in dims:
        r = root.cast(yangian_r(dim))
        rc = root.cast(classical_r(dim))
        lax = root.cast(fundamental_lax(dim))
        geo = root.cast(geometric_lax(dim, 3))

        src = root.split(f"yangian:ybe:{dim}")
        rep.add(
            f"braid-relation-dim{dim}",
            law="R12 R13 R23 = R23 R13 R12 for R = lambda + P",
            defect=worst(ybe_residual(r, *lams, dim)
                         for lams in triples(src, 10, distinct=False)),
            dim=dim, triples=10,
        )

        src = root.split(f"yangian:classical:{dim}")
        rep.add(
            f"classical-braid-dim{dim}",
            law="[r12, r13] + [r12 + r13, r23] = 0 for r = P/lambda",
            defect=worst(classical_ybe_residual(rc, *lams, dim)
                         for lams in triples(src, 10, distinct=True)),
            dim=dim, triples=10,
        )

        grid = rtt_residual(r, lax, [F(2), F(3), F(5), F(7)],
                            [F(11), F(13), F(17), F(19)])
        rep.add(
            f"exchange-grid-dim{dim}",
            law="R(u-v) L1(u) L2(v) = L2(v) L1(u) R(u-v) as a cleared polynomial",
            defect=grid.max_abs, dim=dim,
            degrees=str(grid.degrees), points=len(grid.points),
        )

        res = rtt_matching_order_residual(r, geo)
        rep.add(
            f"matching-order-geometric-dim{dim}",
            law="truncated geometric factors satisfy the exchange relation "
                "through the shared order window",
            defect=max_abs(res), dim=dim, truncation=3,
        )

        n_max = min(sites, 4 if dim == 2 else 2)
        t_order = 4 if dim == 2 else 3
        rep.add(
            f"transfer-commutativity-dim{dim}",
            law="traced charges commute: [t^(k), t^(l)] = 0",
            defect=worst(transfer_commute_residual(lax, n, t_order)
                         for n in range(1, n_max + 1)),
            dim=dim, max_sites=n_max, order=t_order,
        )

        charge_n = min(sites, 3 if dim == 2 else 2)
        rep.add(
            f"charge-exchange-dim{dim}",
            law="[L^(n+1)_ij, L^(m)_kl] - [L^(n)_ij, L^(m+1)_kl] "
                "= L^(m)_kj L^(n)_il - L^(n)_kj L^(m)_il",
            defect=worst(yangian_relations_residual(monodromy_coproduct(fundamental_lax(dim), n, 4), dim)
                         for n in range(1, charge_n + 1)),
            backend=EXACT, dim=dim, max_sites=charge_n, orders="n+m <= 3",
        )

        qn = 3
        series = monodromy_coproduct(fundamental_lax(dim), qn, 3)
        qrep = q_generators_and_relations(series, dim)
        closing = ("first_family", "second_family", "third_family_literal")
        rep.add(
            f"quadratic-generator-families-dim{dim}",
            law="the three bracket families of the quadratic charges close",
            defect=worst(qrep[k] for k in closing), backend=EXACT, dim=dim, sites=qn,
            swapped_delta_diagnostic=qrep["third_family_swapped"],
        )

        hopf = hopf_checks(dim)
        gated = [
            "coproduct_q1", "coproduct_q2_first_leg_high_site",
            "coassociativity", "counit", "antipode_q1",
            "antipode_q2_vs_derived",
        ]
        rep.add(
            f"coproduct-log-dim{dim}",
            law="splitting the chain splits the charges: coproduct, counit, "
                "and antipode act on Q1, Q2 as derived",
            defect=worst(hopf[k] for k in gated), backend=EXACT, dim=dim,
            low_site_leg_diagnostic=hopf["coproduct_q2_first_leg_low_site"],
            printed_antipode_diagnostic=hopf["antipode_q2_vs_printed"],
        )

        split_sites = (2, 3) if dim == 2 else (2,)
        rep.add(
            f"coproduct-splitting-dim{dim}",
            law="half-shuffle and pre-Lie recursions reassemble the "
                "split-chain charges",
            defect=worst(d for n in split_sites for d in
                         coproduct_tridendriform_residual(fundamental_lax(dim), n).values()),
            backend=EXACT, dim=dim,
            sites=",".join(str(n) for n in split_sites),
        )
    return rep


def boundary_suite(cfg: SuiteConfig) -> VerificationReport:
    (order, sites, dim, problems), rep, root = _start(cfg, "boundary")

    gauge_count = problems // 2
    reflect_count = max(1, problems // 5)
    plain_count = problems - gauge_count - reflect_count

    src = root.split("boundary:gauge")
    rep.add(
        "gauge-difference-equation",
        law="G_{n+1} = Lhat_n G_n L_n^{-1} holds for the prefix-product solution",
        defect=worst(gauge_solve(GaugeProblem(src.matrix_family(sites, (1, 2), size=dim),
                                              src.matrix_family(sites, (1, 2), size=dim),
                                              src.invertible_matrix(dim), order))
                     for _ in range(gauge_count)),
        problems=gauge_count, sites=sites, order=order,
    )

    src = root.split("boundary:double-row")
    doubles = []
    for k in range(plain_count):
        fwd = src.matrix_family(sites, (1, 2), size=dim)
        bwd = src.matrix_family(sites, (1, 2), size=dim, direction=BACKWARD)
        k0 = src.invertible_matrix(dim)
        if k % 2 == 0:
            boundary = k0
        else:
            boundary = AlphaSeries.from_parts(
                order, {0: k0, 1: src.matrix(dim)}, like=root.cast(Matrix.identity(dim))
            )
        doubles.append(max_abs(double_row_monodromy(BoundaryProblem(fwd, bwd, boundary, order))))
    rep.add(
        "double-row-recursion",
        law="B_{n+1} = L_n B_n Lhat_n for B = T K That",
        defect=worst(doubles), problems=plain_count, sites=sites, order=order,
    )

    src = root.split("boundary:reflection")
    doubles, involutions = [], []
    for _ in range(reflect_count):
        fwd = src.matrix_family(sites, (1,), size=dim)
        bwd = reflection_hat(fwd, order)
        k0 = src.invertible_matrix(dim)
        doubles.append(max_abs(double_row_monodromy(BoundaryProblem(fwd, bwd, k0, order))))
        back = reflection_hat(bwd, order)
        involutions.extend(max_abs(back.lax_series(site, order) - fwd.lax_series(site, order))
                           for site in range(1, sites + 1))
    rep.add(
        "reflection-double-row",
        law="Lhat(alpha) = L^{-1}(-alpha) yields a valid double-row recursion",
        defect=worst(doubles), problems=reflect_count, sites=sites, order=order,
    )
    rep.add(
        "reflection-involution",
        law="applying the reflection map twice returns the family",
        defect=worst(involutions), families=reflect_count, order=order,
    )
    return rep


SUITES = {
    "rota-baxter": rota_baxter_suite,
    "tridendriform": tridendriform_suite,
    "prelie": prelie_suite,
    "dyson": dyson_suite,
    "magnus": magnus_suite,
    "brace": brace_suite,
    "yangian": yangian_suite,
    "boundary": boundary_suite,
}


def run_suite(name: str, cfg: SuiteConfig) -> VerificationReport:
    if name not in SUITES:
        raise AlgebraError(f"unknown suite {name!r}")
    return SUITES[name](cfg)
