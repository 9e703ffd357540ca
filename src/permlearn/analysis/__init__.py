"""Gap estimation, recovery bounds, risk, and distances between measures."""

from .bounds import (
    DualEstimate,
    chernoff_exponent,
    chernoff_exponent_from_scores,
    min_count_probability,
    mle_recovery_bound,
    mv_recovery_bound,
    required_sample_size,
)
from .gaps import GapReport, estimate_gaps
from .risk import RiskEstimate, misclassification_rate
from .transport import MAX_ATOMS, TransportPlan, TvEstimate, tv_distance, wasserstein1

__all__ = [
    "DualEstimate",
    "GapReport",
    "MAX_ATOMS",
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
]
