"""Monte-Carlo estimates of the score margins that control recovery.

Two margins matter. The likelihood margin is the expected per-sample log
score of the true assignment minus that of the best wrong assignment; the
vote margin is, per decision region, the conditional frequency of the true
class minus the strongest rival class, with the overall gap the worst region's
margin. Both are estimated from one labeled draw out of the true model and
reported with half-widths at three standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..estimators import prefix_summaries
from ..matching import _as_weight_matrix, _best_two
from ..mixtures import MixingMeasure, Permutation, sample_labeled

__all__ = ["GapReport", "estimate_gaps"]


@dataclass(frozen=True)
class GapReport:
    """Gap estimates with their Monte-Carlo half-widths (3 standard errors).

    Fields for a part that was not requested are None. ``mv_gap`` is NaN when
    some region received no Monte-Carlo mass (listed in ``empty_regions``);
    otherwise it equals ``min(region_margins)`` by construction.
    ``region_margins[b-1]`` is region b's margin (NaN when empty).
    """

    mle_gap: float | None
    mle_half_width: float | None
    mv_gap: float | None
    mv_half_width: float | None
    region_margins: tuple[float, ...] | None
    margin_half_widths: tuple[float, ...] | None
    empty_regions: tuple[int, ...]
    samples_used: int
    seed: int | None


def _check_pair(model: MixingMeasure, truth: MixingMeasure, perm: Permutation):
    if model.n_atoms != truth.n_atoms:
        raise ValueError("model and truth must have the same number of atoms")
    if model.dim != truth.dim:
        raise ValueError("model and truth must share one dimension")
    if perm.size != truth.n_atoms:
        raise ValueError("permutation size does not match the measures")


def _mle_part(weights: np.ndarray, scores, labels, true_perm):
    n, k = scores.shape
    cell_mean = weights / n
    # per-class sums of squared scores, the second moment behind the
    # half-width: one bincount per region column, added in sample order
    rows = labels - 1
    cell_sq = np.empty((k, k))
    for r in range(k):
        cell_sq[:, r] = np.bincount(rows, weights=np.square(scores[:, r]), minlength=k)
    cell_sq /= n
    cell_se = np.sqrt(np.maximum(cell_sq - cell_mean**2, 0.0) / n)

    def value(perm: Permutation) -> float:
        cols = np.asarray(perm.to_region) - 1
        return float(cell_mean[np.arange(k), cols].sum())

    # K >= 2 (_check_gaps), so one search yields the optimum and the runner-up
    best, second = _best_two(_as_weight_matrix(cell_mean))
    rival = (second if best.permutation == true_perm else best).permutation
    gap = value(true_perm) - value(rival)
    # Cells in one row share samples, so their errors correlate; the triangle
    # inequality on standard deviations is the safe way to combine them.
    hw = 0.0
    for k0 in range(k):
        bt = true_perm.to_region[k0] - 1
        br = rival.to_region[k0] - 1
        if bt != br:
            hw += float(cell_se[k0, bt] + cell_se[k0, br])
    return gap, 3.0 * hw


def _mv_part(votes: np.ndarray, mass: np.ndarray, true_perm):
    margins, hws, empty = [], [], []
    for b in range(mass.size):
        if mass[b] == 0:
            margins.append(math.nan)
            hws.append(math.nan)
            empty.append(b + 1)
            continue
        freq = votes[b] / mass[b]
        target = true_perm.label_of_region(b + 1) - 1
        rival_freqs = np.delete(freq, target)
        runner = float(rival_freqs.max())
        top = float(freq[target])
        margin = top - runner
        # multinomial difference of two cell frequencies
        var = max(top + runner - margin**2, 0.0) / mass[b]
        margins.append(margin)
        hws.append(3.0 * math.sqrt(var))
    if empty:
        gap, gap_hw = math.nan, math.nan
    else:
        worst = int(np.argmin(margins))
        gap, gap_hw = margins[worst], hws[worst]
    return gap, gap_hw, tuple(margins), tuple(hws), tuple(empty)


def _check_gaps(
    model: MixingMeasure,
    truth: MixingMeasure,
    true_perm: Permutation,
    samples: int,
    which: frozenset[str] | set[str],
) -> None:
    _check_pair(model, truth, true_perm)
    if truth.n_atoms < 2:
        raise ValueError("gaps need K >= 2 atoms: with one atom no wrong assignment exists")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    unknown = set(which) - {"mle", "mv"}
    if unknown or not which:
        raise ValueError(f"which must be a nonempty subset of {{'mle','mv'}}")


def _gaps_from_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    true_perm: Permutation,
    which: frozenset[str] | set[str],
    seed: int | np.random.Generator,
) -> GapReport:
    """The requested margins of a draw's (n, K) model scores and true labels."""
    n, k = scores.shape
    summary = prefix_summaries(scores, labels, k, [n])
    mle_gap = mle_hw = None
    mv_gap = mv_hw = None
    margins = margin_hws = None
    empty: tuple[int, ...] = ()
    if "mle" in which:
        # a score whose square overflows leaves the half-width inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            mle_gap, mle_hw = _mle_part(summary.weights[0], scores, labels, true_perm)
    if "mv" in which:
        mv_gap, mv_hw, margins, margin_hws, empty = _mv_part(
            summary.votes[0], summary.region_counts[0], true_perm
        )
    return GapReport(
        mle_gap=mle_gap,
        mle_half_width=mle_hw,
        mv_gap=mv_gap,
        mv_half_width=mv_hw,
        region_margins=margins,
        margin_half_widths=margin_hws,
        empty_regions=empty,
        samples_used=n,
        seed=seed if isinstance(seed, int) else None,
    )


def estimate_gaps(
    model: MixingMeasure,
    truth: MixingMeasure,
    true_perm: Permutation,
    samples: int = 100_000,
    seed: int | np.random.Generator = 0,
    which: frozenset[str] | set[str] = frozenset({"mle", "mv"}),
) -> GapReport:
    """Estimate the likelihood and/or vote margins of ``model`` in one draw.

    Samples (X, Y) from the true model, scores X under every atom of
    ``model`` once, and reads both margins off one summary of the scores.
    The draw is ``sample_labeled(truth, true_perm, samples, seed)``, the same
    one ``misclassification_rate`` makes, so ``analyze`` draws and scores once
    for both and reports the values the two functions return.
    """
    _check_gaps(model, truth, true_perm, samples, which)
    data = sample_labeled(truth, true_perm, samples, seed)
    return _gaps_from_scores(model.log_scores(data.x), data.y, true_perm, which, seed)
