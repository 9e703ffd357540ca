"""Monte-Carlo misclassification risk of a plug-in classifier.

The excess risk over the true model's own classifier is estimated in a
paired fashion — both classifiers are evaluated on the same draw — so that
a model identical to the truth reports an excess of exactly zero.
"""

from __future__ import annotations

import numpy as np

from ..mixtures import MixingMeasure, Permutation
from .gaps import RiskEstimate, _gaps_and_risk

__all__ = ["RiskEstimate", "misclassification_rate"]


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
    draw is scored twice only when the model is not the truth. The draw is
    that of ``_gaps_and_risk``.
    """
    return _gaps_and_risk(model, truth, true_perm, samples, seed, perm=perm)[1]
