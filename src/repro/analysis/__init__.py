"""Analysis utilities: theory bounds, fairness statistics, t-SNE."""

from repro.analysis.convergence import (
    ProblemConstants,
    fedavg_bound,
    constant_c1,
    constant_c2,
    constant_c3,
    theorem1_bound,
    theorem2_bound,
    theory_schedule,
)
from repro.analysis.fairness import fairness_report, gini_coefficient, worst_k_mean
from repro.analysis.tsne import tsne, client_marginal_discrepancy
from repro.analysis.significance import ComparisonResult, paired_comparison
from repro.analysis.estimation import (
    estimate_curvature_range,
    estimate_gradient_bound,
    estimate_phi_gradient_bound,
    estimate_embedding_diameter,
    estimate_problem_constants,
)

__all__ = [
    "ProblemConstants",
    "fedavg_bound",
    "constant_c1",
    "constant_c2",
    "constant_c3",
    "theorem1_bound",
    "theorem2_bound",
    "theory_schedule",
    "fairness_report",
    "gini_coefficient",
    "worst_k_mean",
    "tsne",
    "client_marginal_discrepancy",
    "ComparisonResult",
    "paired_comparison",
    "estimate_curvature_range",
    "estimate_gradient_bound",
    "estimate_phi_gradient_bound",
    "estimate_embedding_diameter",
    "estimate_problem_constants",
]
