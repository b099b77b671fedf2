"""Gaussian measures, orthonormal polynomial bases, and projections on
parametrized varieties."""

from .approxlemma import (
    CmRecord,
    cm_brute,
    cm_closed_form,
    cm_record,
    cm_table,
    cstar,
    default_error_grid,
    log_cm,
    uniform_error,
    weighted_error,
)
from .orthobasis import (
    GramBasis,
    ProjectionReport,
    RecoveryReport,
    basis_inner_products,
    classic_recovery,
    gram_matrix,
    orthonormalize,
    project,
    weighted_equivalence_check,
)
from .polyring import (
    Monomial,
    MultiPoly,
    format_poly,
    monomial_values,
    monomials_up_to_degree,
    parse_poly,
    truncated_exponential,
    variables,
)
from .quadrature import (
    IntegrabilityScan,
    MomentTable,
    QuadRule,
    QuadratureError,
    build_rule,
    choose_truncation,
    discretize,
    gaussian_moment,
    integrability_scan,
    integrate,
    moment_table,
    shell_moment_sum,
    tail_budget,
)
from .variety import (
    ChartError,
    GrowthError,
    GrowthEstimate,
    SpecFileError,
    VarietyChart,
    chart_circle,
    chart_euclidean,
    chart_graph,
    chart_modulus_graph,
    chart_revolution,
    estimate_growth,
    load_chart,
    solve_param_bound,
)

__version__ = "0.1.0"
