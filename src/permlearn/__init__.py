"""Semi-supervised permutation learning over finite mixing measures.

Given a mixing measure (weighted density atoms) whose decision regions carve
up R^d, a handful of labeled samples suffice to learn which class label
belongs to which region. This package provides the estimators (exact-matching
MLE, majority vote, greedy), the gap / sample-complexity / recovery-bound
analysis around them, optimal-transport distances between mixing measures,
and a seeded Monte-Carlo experiment harness, all behind a CLI.
"""

__version__ = "0.1.0"

from .mixtures import (
    ComponentDensity,
    Gaussian,
    GaussianMixture,
    KernelDensity,
    LabeledData,
    MixingMeasure,
    Permutation,
    classify,
    load_mixture,
    mixture_from_dict,
    mixture_log_density,
    mixture_to_dict,
    region_of,
    sample_labeled,
    save_mixture,
)
from .matching import (
    MatchingResult,
    brute_force_matching,
    max_weight_matching,
)
from .estimators import (
    EstimateOutcome,
    greedy_estimate,
    mle_estimate,
    mv_estimate,
    summarize,
)
from .analysis import (
    DualEstimate,
    GapReport,
    RiskEstimate,
    TransportPlan,
    TvEstimate,
    chernoff_exponent,
    chernoff_exponent_from_scores,
    estimate_gaps,
    min_count_probability,
    misclassification_rate,
    mle_recovery_bound,
    mv_recovery_bound,
    required_sample_size,
    tv_distance,
    wasserstein1,
)
from .harness import (
    ExperimentSpec,
    RecoveryCurve,
    generate_true_mixture,
    perturb_mixture,
    run_recovery_experiment,
)

__all__ = [
    "__version__",
    "ComponentDensity",
    "Gaussian",
    "GaussianMixture",
    "KernelDensity",
    "LabeledData",
    "MixingMeasure",
    "Permutation",
    "classify",
    "load_mixture",
    "mixture_from_dict",
    "mixture_log_density",
    "mixture_to_dict",
    "region_of",
    "sample_labeled",
    "save_mixture",
    "MatchingResult",
    "brute_force_matching",
    "max_weight_matching",
    "EstimateOutcome",
    "greedy_estimate",
    "mle_estimate",
    "mv_estimate",
    "summarize",
    "DualEstimate",
    "GapReport",
    "RiskEstimate",
    "TransportPlan",
    "TvEstimate",
    "chernoff_exponent",
    "chernoff_exponent_from_scores",
    "estimate_gaps",
    "min_count_probability",
    "misclassification_rate",
    "mle_recovery_bound",
    "mv_recovery_bound",
    "required_sample_size",
    "tv_distance",
    "wasserstein1",
    "ExperimentSpec",
    "RecoveryCurve",
    "generate_true_mixture",
    "perturb_mixture",
    "run_recovery_experiment",
]
