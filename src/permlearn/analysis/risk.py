"""Monte-Carlo misclassification risk of a plug-in classifier.

The excess risk over the true model's own classifier is estimated in a
paired fashion — both classifiers are evaluated on the same draw — so that
a model identical to the truth reports an excess of exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..mixtures import (
    LabeledData,
    MixingMeasure,
    Permutation,
    _label_from_scores,
    sample_labeled,
)
from .gaps import _check_pair

__all__ = ["RiskEstimate", "misclassification_rate"]


@dataclass(frozen=True)
class RiskEstimate:
    """Error rates with half-widths at three standard errors."""

    rate: float
    half_width: float
    bayes_rate: float
    bayes_half_width: float
    excess: float
    excess_half_width: float
    samples_used: int
    seed: int | None


def _rate_hw(errors: np.ndarray) -> tuple[float, float]:
    n = errors.size
    p = float(errors.mean())
    return p, 3.0 * math.sqrt(p * (1.0 - p) / n)


def _check_risk(
    model: MixingMeasure,
    perm: Permutation,
    truth: MixingMeasure,
    true_perm: Permutation,
    samples: int,
) -> None:
    _check_pair(model, truth, true_perm)
    if perm.size != model.n_atoms:
        raise ValueError("permutation size does not match the measures")
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _risk_from_scores(
    scores: np.ndarray,
    data: LabeledData,
    model: MixingMeasure,
    perm: Permutation,
    truth: MixingMeasure,
    true_perm: Permutation,
    seed: int | np.random.Generator,
) -> RiskEstimate:
    """``misclassification_rate`` on the draw ``data``, given the model's
    (n, K) scores of it: the rates of the candidate's and the truth's errors,
    and their paired difference as the excess. When the candidate pair is the
    true pair, its errors are the Bayes errors; the truth scores the draw
    again only when it is not the model."""
    errs = (_label_from_scores(scores, perm) != data.y).astype(float)
    if model == truth and perm == true_perm:
        bayes_errs = errs
    else:
        truth_scores = scores if truth == model else truth.log_scores(data.x)
        bayes_errs = (_label_from_scores(truth_scores, true_perm) != data.y).astype(float)
    rate, hw = _rate_hw(errs)
    bayes_rate, bayes_hw = _rate_hw(bayes_errs)
    diff = errs - bayes_errs
    return RiskEstimate(
        rate=rate,
        half_width=hw,
        bayes_rate=bayes_rate,
        bayes_half_width=bayes_hw,
        excess=float(diff.mean()),
        excess_half_width=3.0 * float(diff.std(ddof=0)) / math.sqrt(errs.size),
        samples_used=errs.size,
        seed=seed if isinstance(seed, int) else None,
    )


def misclassification_rate(
    model: MixingMeasure,
    perm: Permutation,
    truth: MixingMeasure,
    true_perm: Permutation,
    samples: int = 100_000,
    seed: int | np.random.Generator = 0,
) -> RiskEstimate:
    """Estimate P(classifier(X) != Y) for the plug-in pair (model, perm).

    Draws from the true pair, classifies once with the candidate and once
    with the truth itself, and differences the two error indicators sample
    by sample for the excess. When the candidate pair equals the true pair,
    its errors are the Bayes errors and the draw is classified once; the
    draw is scored twice only when the model is not the truth. The
    draw is ``sample_labeled(truth, true_perm, samples, seed)``, the same one
    ``estimate_gaps`` makes, so ``analyze`` draws and scores once for both
    and reports the values the two functions return.
    """
    _check_risk(model, perm, truth, true_perm, samples)
    data = sample_labeled(truth, true_perm, samples, seed)
    return _risk_from_scores(
        model.log_scores(data.x), data, model, perm, truth, true_perm, seed
    )
