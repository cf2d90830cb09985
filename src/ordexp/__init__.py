"""Exact engine for ordered-product expansions and their quantum-algebra laws."""

from .boundary import (
    BoundaryProblem,
    BoundaryReport,
    GaugeProblem,
    GaugeReport,
    double_row_monodromy,
    gauge_solve,
    reflection_hat,
)
from .brace import (
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
from .continuum import (
    ConvergenceTable,
    MatrixField,
    bernoulli,
    convergence_study,
    discretize,
    dyson_continuous,
    dyson_simplex_oracle,
    field_prelie,
    magnus_bernoulli_iterate,
    magnus_continuous,
    open_evolution_residual,
)
from .errors import (
    AlgebraError,
    BackendMismatch,
    DimensionMismatch,
    InsufficientSamples,
    SingularOperator,
    UnsupportedOrder,
)
from .expansion import (
    BACKWARD,
    FORWARD,
    ExpansionResult,
    FactorizedResult,
    SiteOperatorFamily,
    closed_form_defects,
    compositions,
    dyson_terms,
    expand_family,
    factorized_direct,
    factorized_expansion,
    factorized_generators,
    magnus_closed_form,
    magnus_from_dyson,
    magnus_oracle,
    monodromy,
    ordered_product,
    pi_table,
    prefix_monodromy,
)
from .freealg import FreeElement, Letter, word_degree
from .matrix import Matrix, aux_block, commutator, kron_embed, partial_trace_first, permutation_op
from .poly import Poly, poly_commutator
from .report import CaseResult, VerificationReport
from .rotabaxter import (
    IntegralOp,
    PartialSumOp,
    SiteSequence,
    check_prelie_left,
    check_prelie_right,
    check_tridendriform,
    partial_sum,
    prelie_left,
    prelie_right,
    rb_residual,
    trid_dot,
    trid_prec,
    trid_star,
    trid_succ,
)
from .sampling import SampleSource
from .series import AlphaSeries, ad, ad_pow
from .suites import SUITES, SuiteConfig, run_suite
from .yangian import (
    DIMENSION_BUDGET,
    RttReport,
    classical_r,
    classical_ybe_residual,
    coproduct_tridendriform_residual,
    fundamental_lax,
    geometric_lax,
    hopf_checks,
    monodromy_coproduct,
    monodromy_family,
    q_generators_and_relations,
    rtt_matching_order_residual,
    rtt_residual,
    transfer_commute_residual,
    yangian_r,
    yangian_relations_residual,
    ybe_residual,
)

__version__ = "0.1.0"
