"""Posterior-feasible linear optimization.

Tools for linear programs whose constraint data is uncertain and
described by a Bayesian posterior: conjugate posterior fitting,
credible-ellipsoid robustification solved by cutting planes, posterior
scenario sampling with exact sample-size bounds, Monte Carlo violation
certificates with exact binomial upper bounds, a self-contained
bounded-variable simplex solver, and reproducible benchmark and panel
selection pipelines on top.
"""

from .certification import (
    Certificate,
    certificate_to_json,
    certify,
    clopper_pearson_upper,
    estimate_violation,
)
from .errors import (
    CountOutOfRange,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    MaxRoundsExceeded,
    NotPositiveDefinite,
    NumericalBreakdown,
    PanelInfeasible,
    PostfeasError,
    RankDeficient,
    SingularPrecision,
)
from .experiments import (
    METHODS,
    ClusterSummary,
    PanelConfig,
    PanelResult,
    SimConfig,
    SimInstance,
    TrialRecord,
    fit_capacity_model,
    gen_instance,
    panel_certify_detail,
    panel_select,
    run_benchmark,
    run_trial,
    summarize_by_alpha,
    summarize_overall,
)
from .lp import (
    CutLog,
    LpProblem,
    LpSolution,
    RhsSequence,
    max_violation,
    problem_from_json,
    solution_from_json,
    solution_to_json,
    solve_cutting_planes,
    solve_lp,
)
from .posterior import (
    BetaCoverage,
    GaussianRows,
    NigPosterior,
    NigPrior,
    OlsFit,
    PanelData,
    StudentTRhs,
    fit_beta_binomial,
    fit_nig,
    fit_ols,
    load_panel_data,
)
from .robustify import (
    RobustLp,
    bonferroni_kappa,
    rb_heuristic_tighten,
    rhs_quantile_tighten,
    robustify_rows,
    soc_support,
    solve_robust_cutting_planes,
)
from .scenario import (
    required_sample_size,
    solve_scenario_lp,
    violation_bound,
)
from .stats import (
    Rng,
    beta_quantile,
    binomial_tail,
    chi2_quantile,
    derive_stream_id,
    log_choose,
    normal_cdf,
    normal_quantile,
    reg_inc_beta,
    reg_lower_gamma,
    student_t_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # certification
    "Certificate", "certificate_to_json", "certify",
    "clopper_pearson_upper", "estimate_violation",
    # errors
    "CountOutOfRange", "DimensionMismatch", "DomainError", "EmptyInput",
    "MaxRoundsExceeded", "NotPositiveDefinite", "NumericalBreakdown",
    "PanelInfeasible", "PostfeasError", "RankDeficient",
    "SingularPrecision",
    # experiments
    "METHODS", "ClusterSummary", "PanelConfig", "PanelResult", "SimConfig",
    "SimInstance", "TrialRecord", "fit_capacity_model", "gen_instance",
    "panel_certify_detail",
    "panel_select", "run_benchmark", "run_trial", "summarize_by_alpha",
    "summarize_overall",
    # lp
    "CutLog", "LpProblem", "LpSolution", "RhsSequence", "max_violation",
    "problem_from_json", "solution_from_json", "solution_to_json",
    "solve_cutting_planes", "solve_lp",
    # posterior
    "BetaCoverage", "GaussianRows", "NigPosterior", "NigPrior", "OlsFit",
    "PanelData", "StudentTRhs", "fit_beta_binomial", "fit_nig", "fit_ols",
    "load_panel_data",
    # robustify
    "RobustLp", "bonferroni_kappa", "rb_heuristic_tighten",
    "rhs_quantile_tighten", "robustify_rows", "soc_support",
    "solve_robust_cutting_planes",
    # scenario
    "required_sample_size", "solve_scenario_lp", "violation_bound",
    # stats
    "Rng", "beta_quantile", "binomial_tail", "chi2_quantile",
    "derive_stream_id", "log_choose", "normal_cdf",
    "normal_quantile", "reg_inc_beta", "reg_lower_gamma",
    "student_t_quantile",
]
