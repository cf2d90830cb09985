"""Verification suites behind the command line.

Each suite draws its cases from labeled substreams of the seed, runs the
module checks at the requested sizes, and records one report row per
law with the worst defect seen across the samples.  Default sizes match
the package's acceptance scale; `--sites`, `--dim`, and `--samples`
rescale them.

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
from .matrix import Matrix
from .ops import max_abs
from .report import EXACT, FLOAT, VerificationReport
from .rotabaxter import (
    IntegralOp,
    PartialSumOp,
    SiteSequence,
    check_prelie_left,
    check_prelie_right,
    check_tridendriform,
    prelie_left,
    rb_residual,
    trid_star,
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

    Flags are checked here, once: the backend must be exact or float, and
    order, dim and samples must be at least 1 and sites at least 0, so no
    suite swaps a bad value for its default.  Only the magnus suite reads
    0 sites (the empty chain); the others reject it through `_at_least`.
    A tolerance is read only on the float backend and must be a finite
    number >= 0; None means 1e-10, which the header shows on either backend.
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
        elif not 0 <= tolerance < math.inf:
            raise AlgebraError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
        for name, value, low in (("order", order, 1), ("dim", dim, 1),
                                 ("samples", samples, 1), ("sites", sites, 0)):
            if value is not None and value < low:
                raise AlgebraError(f"{name} must be at least {low}, got {value}")
        self.seed = seed
        self.backend = backend
        self.tolerance = tolerance
        self.order = order
        self.sites = sites
        self.dim = dim
        self.samples = samples


def _report(cfg: SuiteConfig, suite: str, order: int | None = None) -> VerificationReport:
    """The suite's empty report.

    `order` None marks a suite whose checks read no order: an explicit
    order is rejected rather than printed and ignored, and the header
    shows a fixed 3, which keeps reports at default flags byte-identical.
    """
    if order is None:
        if cfg.order is not None:
            raise AlgebraError(f"order is not read by the {suite} suite, got {cfg.order}")
        order = 3
    return VerificationReport(suite, cfg.seed, cfg.backend, cfg.tolerance, order)


def _at_least(name: str, value: int, low: int, suite: str) -> int:
    """`value`, or AlgebraError when the suite would check nothing at that size."""
    if value < low:
        raise AlgebraError(f"{name} must be at least {low} for the {suite} suite, got {value}")
    return value


def rota_baxter_suite(cfg: SuiteConfig) -> VerificationReport:
    sites = 5 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "rota-baxter")
    dim = 2 if cfg.dim is None else cfg.dim
    sequences = 100 if cfg.samples is None else cfg.samples
    pairs = max(1, sequences // 2)
    poly_pairs = max(1, sequences // 5)
    rep = _report(cfg, "rota-baxter")
    root = SampleSource(cfg.seed, cfg.backend)

    src = root.split("rota-baxter:weight-one")
    op = PartialSumOp()
    worst = F(0)
    for _ in range(pairs):
        a = src.sequence(sites, dim)
        b = src.sequence(sites, dim)
        worst = max(worst, max_abs(rb_residual(op, a, b)))
    rep.add(
        "partial-sum-weight-one",
        law="R(a)R(b) = R(R(a)b + aR(b) + ab) for the strict prefix sum",
        defect=worst, sequences=2 * pairs, sites=sites, dim=dim,
    )

    src = root.split("rota-baxter:weight-zero")
    integral = IntegralOp()
    worst = F(0)
    for _ in range(poly_pairs):
        p = src.poly()
        q = src.poly()
        worst = max(worst, max_abs(rb_residual(integral, p, q)))
    rep.add(
        "integral-weight-zero",
        law="R(p)R(q) = R(R(p)q + pR(q)) for the integral from the base point",
        defect=worst, pairs=poly_pairs, degree=3,
    )
    return rep


_TRID_LAWS = [
    "(a<b)<c = a<(b*c)",
    "(a>b)<c = a>(b<c)",
    "a>(b>c) = (a*b)>c",
    "(a.b).c = a.(b.c)",
    "(a>b).c = a>(b.c)",
    "(a<b).c = a.(b>c)",
    "(a.b)<c = a.(b<c)",
]


def tridendriform_suite(cfg: SuiteConfig) -> VerificationReport:
    sites = 4 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "tridendriform")
    dim = 2 if cfg.dim is None else cfg.dim
    triples = 50 if cfg.samples is None else cfg.samples
    rep = _report(cfg, "tridendriform")
    root = SampleSource(cfg.seed, cfg.backend)

    def run(tag, draw, backend=None):
        worst = [F(0)] * 7
        star_worst = F(0)
        src = root.split(f"tridendriform:{tag}")
        for _ in range(triples):
            a, b, c = draw(src)
            for idx, res in enumerate(check_tridendriform(a, b, c)):
                worst[idx] = max(worst[idx], max_abs(res))
            assoc = trid_star(trid_star(a, b), c) - trid_star(a, trid_star(b, c))
            star_worst = max(star_worst, max_abs(assoc))
        for idx, law in enumerate(_TRID_LAWS):
            rep.add(
                f"axiom-{idx + 1}-{tag}", law=law, defect=worst[idx],
                backend=backend, triples=triples, sites=sites,
            )
        rep.add(
            f"star-associativity-{tag}",
            law="(a*b)*c = a*(b*c) with * = < + > + .",
            defect=star_worst, backend=backend, triples=triples, sites=sites,
        )

    def draw_matrix(src):
        return [src.sequence(sites, dim) for _ in range(3)]

    def draw_free(src):
        return [src.free_sequence(sites, tag) for tag in ("a", "b", "c")]

    run("matrix", draw_matrix)
    run("free", draw_free, EXACT)
    return rep


def prelie_suite(cfg: SuiteConfig) -> VerificationReport:
    sites = 4 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "prelie")
    dim = 2 if cfg.dim is None else cfg.dim
    triples = 50 if cfg.samples is None else cfg.samples
    rep = _report(cfg, "prelie")
    root = SampleSource(cfg.seed, cfg.backend)

    checks = [
        ("left-associator-symmetry", check_prelie_left,
         "assoc(a,b,c) of a|>b is symmetric in a and b"),
        ("right-associator-symmetry", check_prelie_right,
         "assoc(a,b,c) of a<|b is symmetric in b and c"),
    ]
    for case_id, residual, law in checks:
        src = root.split(f"prelie:{case_id}")
        worst = F(0)
        for _ in range(triples):
            abc = [src.sequence(sites, dim) for _ in range(3)]
            worst = max(worst, max_abs(residual(*abc)))
        rep.add(case_id, law=law, defect=worst,
                triples=triples, sites=sites, dim=dim)
    return rep


def _sampled_family(src: SampleSource, max_sites: int, dim: int, index: int):
    n = src.integer(1, max_sites)
    degrees = src.subset((1, 2, 3))
    direction = FORWARD if index % 2 == 0 else BACKWARD
    return src.matrix_family(n, degrees, size=dim, direction=direction)


def dyson_suite(cfg: SuiteConfig) -> VerificationReport:
    max_sites = 5 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "dyson")
    dim = 2 if cfg.dim is None else cfg.dim
    families = 25 if cfg.samples is None else cfg.samples
    order = 4 if cfg.order is None else cfg.order
    rep = _report(cfg, "dyson", order)
    root = SampleSource(cfg.seed, cfg.backend)

    worst = {"direct": F(0), "tridendriform": F(0)}
    src = root.split("dyson:families")
    for k in range(families):
        fam = _sampled_family(src, max_sites, dim, k)
        mono = monodromy(fam, order)
        for method in ("direct", "tridendriform"):
            terms = dyson_terms(fam, order, method=method)
            for m in range(order + 1):
                worst[method] = max(
                    worst[method], max_abs(terms[m] - mono.coeff(m))
                )
    rep.add(
        "iterated-sums-vs-product",
        law="T^(m) from descending iterated sums equals the ordered-product coefficient",
        defect=worst["direct"], families=families, max_sites=max_sites,
        order=order, directions="both",
    )
    rep.add(
        "dendriform-nesting-vs-product",
        law="T^(m) from nested half-shuffles equals the ordered-product coefficient",
        defect=worst["tridendriform"], families=families, max_sites=max_sites,
        order=order, directions="both",
    )
    return rep


def magnus_suite(cfg: SuiteConfig) -> VerificationReport:
    dim = 2 if cfg.dim is None else cfg.dim
    order = 4 if cfg.order is None else cfg.order
    rep = _report(cfg, "magnus", order)
    root = SampleSource(cfg.seed, cfg.backend)

    if cfg.sites == 0:
        fam = SiteOperatorFamily(0, {}, like=Matrix.identity(dim))
        mono = monodromy(fam, order)
        q = magnus_oracle(fam, order)
        defect = max(
            max_abs(mono - AlphaSeries.one(order, like=fam.like)),
            max((max_abs(c) for c in q), default=F(0)),
        )
        rep.add(
            "empty-chain-identity",
            law="an empty chain has T = 1 and Q = 0",
            defect=defect, sites=0, order=order,
        )
        return rep

    max_sites = 5 if cfg.sites is None else cfg.sites
    families = 25 if cfg.samples is None else cfg.samples

    worst = F(0)
    src = root.split("magnus:round-trip")
    for k in range(families):
        fam = _sampled_family(src, max_sites, dim, k)
        q = magnus_oracle(fam, order)
        series = AlphaSeries.from_parts(
            order, {m: q[m - 1] for m in range(1, order + 1)}, like=fam.like
        ).exp()
        worst = max(worst, max_abs(series - monodromy(fam, order)))
    rep.add(
        "exponential-round-trip",
        law="exp(sum_m alpha^m Q^(m)) reproduces the ordered product",
        defect=worst, families=families, max_sites=max_sites, order=order,
    )

    one = root.cast(F(1))
    scalar = SiteOperatorFamily(2, {(1, 1): one, (2, 1): one}, like=one)
    q = magnus_oracle(scalar, 3)
    expected = [2, -1, F(2, 3)]
    defect = max(max_abs(q[m] - expected[m]) for m in range(3))
    rep.add(
        "scalar-chain-logarithm",
        law="two unit sites give Q = (2, -1, 2/3), the log of (1+alpha)^2",
        defect=defect, sites=2, value=1,
    )

    # Closed commutator and pre-Lie forms, orders 1-3, against the series
    # oracle; the transcribed commutator form is diagnostic only and its
    # row is gated by the pre-Lie match.
    styles = {"prelie": F(0), "explicit": F(0)}
    offending = []
    src = root.split("magnus:closed-forms")
    cases = []
    for k in range(families):
        cases.append(_sampled_family(src, max_sites, dim, k))
    for k in range(families):
        p = root.cast(src.nonzero_fraction())
        n = src.integer(1, 4)
        entries = {(s, 1): p for s in range(1, n + 1)}
        direction = FORWARD if k % 2 == 0 else BACKWARD
        cases.append(
            SiteOperatorFamily(n, entries, direction=direction, like=one)
        )
    for fam in cases:
        for style in styles:
            for degree, res in closed_form_defects(fam, order=3, style=style):
                d = max_abs(res)
                if style == "explicit" and d != 0:
                    offending.append(f"degree {degree}")
                styles[style] = max(styles[style], d)
    prelie_pass = rep.add(
        "closed-form-pre-lie",
        law="Q^(2), Q^(3) from the pre-Lie closed forms match the series oracle",
        defect=styles["prelie"], families=families, scalar_families=families,
        orders="1-3", directions="both",
    )
    rep.add(
        "closed-form-commutator",
        law="Q^(2), Q^(3) from the transcribed commutator forms match the oracle",
        defect=styles["explicit"], gate=prelie_pass,
        offending=", ".join(sorted(set(offending))) or "none",
        families=families, scalar_families=families, orders="1-3",
    )
    return rep


def brace_suite(cfg: SuiteConfig) -> VerificationReport:
    sites = 3 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "brace")
    dim = 2 if cfg.dim is None else cfg.dim
    pairs = 25 if cfg.samples is None else cfg.samples
    order = 4 if cfg.order is None else cfg.order
    rep = _report(cfg, "brace", order)
    root = SampleSource(cfg.seed, cfg.backend)

    zero_seq = SiteSequence([Matrix.zeros(dim) for _ in range(sites)])

    def element(src):
        comps = {d: src.sequence(sites, dim) for d in (1, 2)}
        return GradedPreLieElement(order, comps, prelie_left, like=zero_seq)

    src = root.split("brace:flow-inverse")
    worst = F(0)
    for _ in range(pairs):
        a = element(src)
        worst = max(worst, max_abs(omega_map(w_map(a)) - a))
        worst = max(worst, max_abs(w_map(omega_map(a)) - a))
    rep.add(
        "flow-inverse",
        law="Omega inverts W in both orders, degree by degree",
        defect=worst, elements=pairs, degree=order,
    )

    src = root.split("brace:left-law")
    worst = F(0)
    for _ in range(pairs):
        a, b, c = element(src), element(src), element(src)
        worst = max(worst, max_abs(left_brace_residual(a, b, c)))
    rep.add(
        "left-brace-law",
        law="the circle product distributes as a left brace",
        defect=worst, triples=pairs, degree=order,
    )

    src = root.split("brace:flow-composition")
    worst_flow = F(0)
    worst_assoc = F(0)
    for _ in range(pairs):
        a, b = element(src), element(src)
        worst_flow = max(worst_flow, max_abs(flow_composition_residual(a, b)))
        c = element(src)
        worst_assoc = max(worst_assoc, max_abs(circle_assoc_residual(a, b, c)))
    rep.add(
        "flow-composition",
        law="W(a) o W(b) = W(C(a,b)) with C the BCH composition",
        defect=worst_flow, pairs=pairs, degree=order,
    )
    rep.add(
        "circle-associativity",
        law="the circle product is associative to the truncation degree",
        defect=worst_assoc, triples=pairs, degree=order,
    )
    return rep


def yangian_suite(cfg: SuiteConfig) -> VerificationReport:
    dims = [2, 3] if cfg.dim is None else [_at_least("dim", cfg.dim, 2, "yangian")]
    sites = 4 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "yangian")
    rep = _report(cfg, "yangian")
    root = SampleSource(cfg.seed, cfg.backend)

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
        worst = F(0)
        for lams in triples(src, 10, distinct=False):
            worst = max(worst, max_abs(ybe_residual(r, *lams, dim)))
        rep.add(
            f"braid-relation-dim{dim}",
            law="R12 R13 R23 = R23 R13 R12 for R = lambda + P",
            defect=worst, dim=dim, triples=10,
        )

        src = root.split(f"yangian:classical:{dim}")
        worst = F(0)
        for lams in triples(src, 10, distinct=True):
            worst = max(worst, max_abs(classical_ybe_residual(rc, *lams, dim)))
        rep.add(
            f"classical-braid-dim{dim}",
            law="[r12, r13] + [r12 + r13, r23] = 0 for r = P/lambda",
            defect=worst, dim=dim, triples=10,
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
        worst = F(0)
        for n in range(1, n_max + 1):
            worst = max(
                worst,
                max_abs(transfer_commute_residual(dim, n, t_order, lax=lax)),
            )
        rep.add(
            f"transfer-commutativity-dim{dim}",
            law="traced charges commute: [t^(k), t^(l)] = 0",
            defect=worst, dim=dim, max_sites=n_max, order=t_order,
        )

        charge_n = min(sites, 3 if dim == 2 else 2)
        worst = F(0)
        for n in range(1, charge_n + 1):
            series = monodromy_coproduct(fundamental_lax(dim), n, 4)
            coeffs = [series.coeff(k) for k in range(5)]
            for p in range(4):
                for q in range(4 - p):
                    for i in range(dim):
                        for j in range(dim):
                            for k in range(dim):
                                for l in range(dim):
                                    res = yangian_relations_residual(
                                        coeffs, dim, p, q, i, j, k, l
                                    )
                                    worst = max(worst, max_abs(res))
        rep.add(
            f"charge-exchange-dim{dim}",
            law="[L^(n+1)_ij, L^(m)_kl] - [L^(n)_ij, L^(m+1)_kl] "
                "= L^(m)_kj L^(n)_il - L^(n)_kj L^(m)_il",
            defect=worst, backend=EXACT, dim=dim, max_sites=charge_n,
            orders="n+m <= 3",
        )

        qn = 3
        series = monodromy_coproduct(fundamental_lax(dim), qn, 3)
        _, qrep = q_generators_and_relations(series, dim)
        worst = max(
            qrep["first_family"], qrep["second_family"],
            qrep["third_family_literal"],
        )
        rep.add(
            f"quadratic-generator-families-dim{dim}",
            law="the three bracket families of the quadratic charges close",
            defect=worst, backend=EXACT, dim=dim, sites=qn,
            swapped_delta_diagnostic=qrep["third_family_swapped"],
        )

        hopf = hopf_checks(dim)
        gated = [
            "coproduct_q1", "coproduct_q2_first_leg_high_site",
            "coassociativity", "counit", "antipode_q1",
            "antipode_q2_vs_derived",
        ]
        worst = max(hopf[k] for k in gated)
        rep.add(
            f"coproduct-log-dim{dim}",
            law="splitting the chain splits the charges: coproduct, counit, "
                "and antipode act on Q1, Q2 as derived",
            defect=worst, backend=EXACT, dim=dim,
            low_site_leg_diagnostic=hopf["coproduct_q2_first_leg_low_site"],
            printed_antipode_diagnostic=hopf["antipode_q2_vs_printed"],
        )

        split_sites = (2, 3) if dim == 2 else (2,)
        worst = F(0)
        for n in split_sites:
            srep = coproduct_tridendriform_residual(fundamental_lax(dim), n)
            worst = max(worst, max(srep.values()))
        rep.add(
            f"coproduct-splitting-dim{dim}",
            law="half-shuffle and pre-Lie recursions reassemble the "
                "split-chain charges",
            defect=worst, backend=EXACT, dim=dim,
            sites=",".join(str(n) for n in split_sites),
        )
    return rep


def boundary_suite(cfg: SuiteConfig) -> VerificationReport:
    sites = 3 if cfg.sites is None else _at_least("sites", cfg.sites, 1, "boundary")
    dim = 2 if cfg.dim is None else cfg.dim
    problems = 25 if cfg.samples is None else cfg.samples
    order = 3 if cfg.order is None else cfg.order
    rep = _report(cfg, "boundary", order)
    root = SampleSource(cfg.seed, cfg.backend)

    gauge_count = problems // 2
    reflect_count = max(1, problems // 5)
    plain_count = max(problems - gauge_count - reflect_count, 1)

    src = root.split("boundary:gauge")
    worst = F(0)
    for _ in range(gauge_count):
        fwd = src.matrix_family(sites, (1, 2), size=dim)
        tgt = src.matrix_family(sites, (1, 2), size=dim)
        g1 = src.invertible_matrix(dim)
        worst = max(worst, gauge_solve(GaugeProblem(fwd, tgt, g1, order)).max_abs())
    rep.add(
        "gauge-difference-equation",
        law="G_{n+1} = Lhat_n G_n L_n^{-1} holds for the prefix-product solution",
        defect=worst, problems=gauge_count, sites=sites, order=order,
    )

    src = root.split("boundary:double-row")
    worst = F(0)
    for k in range(plain_count):
        fwd = src.matrix_family(sites, (1, 2), size=dim)
        bwd = src.matrix_family(sites, (1, 2), size=dim, direction=BACKWARD)
        k0 = src.invertible_matrix(dim)
        if k % 2 == 0:
            boundary = k0
        else:
            boundary = AlphaSeries.from_parts(
                order, {0: k0, 1: src.matrix(dim)}, like=Matrix.identity(dim)
            )
        worst = max(worst, double_row_monodromy(
            BoundaryProblem(fwd, bwd, boundary, order)).max_abs())
    rep.add(
        "double-row-recursion",
        law="B_{n+1} = L_n B_n Lhat_n for B = T K That",
        defect=worst, problems=plain_count, sites=sites, order=order,
    )

    src = root.split("boundary:reflection")
    worst = F(0)
    involution_worst = F(0)
    for _ in range(reflect_count):
        fwd = src.matrix_family(sites, (1,), size=dim)
        bwd = reflection_hat(fwd, order)
        k0 = src.invertible_matrix(dim)
        worst = max(worst, double_row_monodromy(
            BoundaryProblem(fwd, bwd, k0, order)).max_abs())
        back = reflection_hat(bwd, order)
        for site in range(1, sites + 1):
            involution_worst = max(involution_worst, max_abs(
                back.lax_series(site, order) - fwd.lax_series(site, order)))
    rep.add(
        "reflection-double-row",
        law="Lhat(alpha) = L^{-1}(-alpha) yields a valid double-row recursion",
        defect=worst, problems=reflect_count, sites=sites, order=order,
    )
    rep.add(
        "reflection-involution",
        law="applying the reflection map twice returns the family",
        defect=involution_worst, families=reflect_count, order=order,
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
