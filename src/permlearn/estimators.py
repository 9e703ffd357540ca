"""Permutation estimators: exact matching MLE, majority vote, greedy.

All three consume the same one-pass summary of the data under a given mixing
measure (per-sample atom scores, region memberships, and their per-class
aggregates), so running several estimators on one dataset costs one density
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching import max_weight_assignments, max_weight_matching
from .mixtures import LabeledData, MixingMeasure, Permutation

__all__ = [
    "FAIL_EMPTY_REGION",
    "FAIL_MAJORITY_TIE",
    "FAIL_NON_BIJECTIVE",
    "FAILURES",
    "CODE_OK",
    "CODE_EMPTY_REGION",
    "CODE_MAJORITY_TIE",
    "CODE_NON_BIJECTIVE",
    "EstimateOutcome",
    "PrefixSummaries",
    "summarize",
    "prefix_summaries",
    "mle_estimate",
    "mv_estimate",
    "greedy_estimate",
    "mle_prefixes",
    "mv_prefixes",
    "greedy_prefixes",
]

FAIL_EMPTY_REGION = "empty_region"
FAIL_MAJORITY_TIE = "majority_tie"
FAIL_NON_BIJECTIVE = "non_bijective"

# Integer outcome codes of the batched *_prefixes rules; FAILURES[code] is
# the matching failure string (None for success).
CODE_OK, CODE_EMPTY_REGION, CODE_MAJORITY_TIE, CODE_NON_BIJECTIVE = range(4)
FAILURES = (None, FAIL_EMPTY_REGION, FAIL_MAJORITY_TIE, FAIL_NON_BIJECTIVE)


@dataclass(frozen=True)
class EstimateOutcome:
    """Result of one estimator run.

    Exactly one of ``permutation`` / ``failure`` is set. ``log_likelihood``
    is the mean per-sample log joint score of the returned permutation (None
    on failure). ``class_counts[k-1]`` counts label k in the data;
    ``region_counts[b-1]`` counts samples falling in region b.
    ``unconstrained_classes`` lists labels with no samples, whose assignment
    the data cannot pin down. ``unique`` is the matching's tie flag for the
    MLE and None for the other methods.
    """

    method: str
    permutation: Permutation | None
    failure: str | None
    log_likelihood: float | None
    class_counts: tuple[int, ...]
    region_counts: tuple[int, ...]
    unconstrained_classes: tuple[int, ...] = ()
    unique: bool | None = None

    @property
    def ok(self) -> bool:
        return self.permutation is not None


@dataclass(frozen=True)
class PrefixSummaries:
    """One-pass sufficient statistics of the prefixes of one dataset.

    Entry g of weights (G, K, K), votes (G, K, K), class_counts (G, K) and
    region_counts (G, K) describes the first ns[g] samples under a K-atom
    measure: weights[g, k-1, b-1] sums log(weight_b f_b(x_i)) over samples
    with label k; votes[g, b-1, k-1] counts samples with label k falling in
    region b; class_counts[g, k-1] counts label k and region_counts[g, b-1]
    the samples in region b. A whole dataset is the one-prefix case
    (summarize). Summaries of several trials stack their prefixes
    trial-major, and ns repeats the grid once per trial.
    """

    ns: np.ndarray
    k: int
    weights: np.ndarray
    votes: np.ndarray
    class_counts: np.ndarray
    region_counts: np.ndarray

    def loglik(self, cols: np.ndarray) -> np.ndarray:
        """Mean per-sample log joint score of prefix g under columns cols[g]."""
        picked = np.take_along_axis(self.weights, cols[:, :, np.newaxis], axis=2)
        return picked[:, :, 0].sum(axis=1) / self.ns


def summarize(measure: MixingMeasure, data: LabeledData) -> PrefixSummaries:
    """Score every sample under every atom and aggregate by class and region.

    The result is the one-prefix summary of the whole dataset, which every
    estimator reads.
    """
    if not isinstance(data, LabeledData):
        raise ValueError("data must be a LabeledData")
    if data.n == 0:
        raise ValueError("data must be non-empty")
    if data.dim != measure.dim:
        raise ValueError(f"data dim {data.dim} does not match measure dim {measure.dim}")
    return prefix_summaries(measure.log_scores(data.x), data.y, measure.n_atoms, [data.n])


def prefix_summaries(
    scores: np.ndarray, labels: np.ndarray, k: int, ns
) -> PrefixSummaries:
    """Summaries of the prefixes scores[..., :n, :], labels[..., :n] for every n in ns.

    A leading trial axis, scores (T, n, K) and labels (T, n), gives T len(ns)
    prefixes, trial-major, each with the bits its trial gives alone. One
    pass: each sample is counted once, in its trial's segment between the
    grid sizes that enclose it, and a cumulative sum over each trial's
    segments gives the prefixes. Beyond the scores, memory is
    O(n + T len(ns) K^2).
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    ns = np.asarray(ns, dtype=np.int64)
    if ns.ndim != 1 or ns.size == 0 or ns[0] < 1 or np.any(np.diff(ns) <= 0):
        raise ValueError("ns must be strictly increasing positive sizes")
    n = int(ns[-1])
    if labels.ndim not in (1, 2) or labels.shape[-1] < n:
        raise ValueError(f"need at least {n} labels")
    if scores.shape != (*labels.shape, k):
        raise ValueError(f"scores must have shape {(*labels.shape, k)}")
    scores, labels = scores[..., :n, :], labels[..., :n]
    if int(labels.max()) > k or int(labels.min()) < 1:
        raise ValueError(f"labels must lie in 1..{k}")
    t = labels.size // n
    g = ns.size
    # Bin (trial, segment, row, column) of a flat (t, g, k, k) array is
    # ((trial * g + segment) * k + row) * k + column; seg_k holds
    # (trial * g + segment) * k per sample.
    seg_k = np.repeat(np.arange(t * g) * k, np.tile(np.diff(ns, prepend=0), t))
    labels = labels.ravel()
    by_class = seg_k + labels - 1
    size = t * g * k * k
    weights = np.empty(size)
    for r in range(k):
        # column r fills bins r::k, each adding its samples in sample order
        weights[r::k] = np.bincount(by_class, scores[..., r].ravel(), minlength=size // k)
    regions0 = np.argmax(scores, axis=-1).ravel()
    votes = np.bincount((seg_k + regions0) * k + labels - 1, minlength=size)
    for field in (weights, votes):
        field.reshape(t, g, -1).cumsum(axis=1, out=field.reshape(t, g, -1))
    votes = votes.reshape(-1, k, k)
    return PrefixSummaries(
        ns=np.tile(ns, t),
        k=k,
        weights=weights.reshape(-1, k, k),
        votes=votes,
        class_counts=votes.sum(axis=1),
        region_counts=votes.sum(axis=2),
    )


def _codes(empty: np.ndarray, tie: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Outcome code per prefix: empty, then tie, then non-bijective cols."""
    ordered = np.sort(cols, axis=1)
    collide = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    return np.select(
        [empty, tie, collide], [CODE_EMPTY_REGION, CODE_MAJORITY_TIE, CODE_NON_BIJECTIVE],
        CODE_OK,
    )


def _mle_weights(weights: np.ndarray) -> np.ndarray:
    """weights as the MLE and its gap read them. A class's sum is -inf when the
    model scores one of its samples -inf or when finite scores overflow in the
    sum; both are refused here in the model's terms."""
    if not np.all(np.isfinite(weights)):
        raise ValueError("the model's log scores of some class sum to -inf: a sample scores "
                         "-inf, or the sum overflows")
    return weights


def mle_prefixes(p: PrefixSummaries) -> tuple[np.ndarray, np.ndarray]:
    """Matching MLE of every prefix: outcome codes (all CODE_OK) and columns.

    Unlike mle_estimate it makes no runner-up solve, so it has no tie flag.
    """
    cols = max_weight_assignments(_mle_weights(p.weights))
    return np.full(p.ns.size, CODE_OK), cols


def mv_prefixes(p: PrefixSummaries) -> tuple[np.ndarray, np.ndarray]:
    """Majority vote of every prefix: outcome codes and columns (see mv_estimate)."""
    elected = np.argmax(p.votes, axis=2)  # the class each region elects
    top = np.take_along_axis(p.votes, elected[:, :, np.newaxis], axis=2)
    tie = np.any(np.sum(p.votes == top, axis=2) > 1, axis=1)
    codes = _codes(np.any(p.region_counts == 0, axis=1), tie, elected)
    # where elected is a bijection region -> class, its argsort is class -> region
    return codes, np.argsort(elected, axis=1)


def greedy_prefixes(p: PrefixSummaries) -> tuple[np.ndarray, np.ndarray]:
    """Greedy row argmax of every prefix: outcome codes and columns.

    A class with no samples is reported as CODE_EMPTY_REGION.
    """
    cols = np.argmax(p.weights, axis=2)  # ties resolve to the lowest index
    empty = np.any(p.class_counts == 0, axis=1)
    return _codes(empty, np.zeros_like(empty), cols), cols


def _estimate(method: str, p: PrefixSummaries) -> EstimateOutcome:
    """EstimateOutcome of the named rule on a one-prefix summary (summarize).

    MV and greedy read prefix 0 of their *_prefixes rule. The MLE solves its
    one matching with max_weight_matching, whose runner-up search sets the
    ``unique`` tie flag.
    """
    unique = None
    if method == "mle":
        result = max_weight_matching(_mle_weights(p.weights[0]))
        code, unique = CODE_OK, result.is_unique
        cols = np.array(result.permutation.to_region) - 1
    else:
        codes, cols = {"mv": mv_prefixes, "greedy": greedy_prefixes}[method](p)
        code, cols = int(codes[0]), cols[0]
    perm = Permutation(tuple(int(c) + 1 for c in cols)) if code == CODE_OK else None
    class_counts = p.class_counts[0]
    return EstimateOutcome(
        method=method,
        permutation=perm,
        failure=FAILURES[code],
        log_likelihood=None if perm is None else float(p.loglik(cols[np.newaxis])[0]),
        class_counts=tuple(int(c) for c in class_counts),
        region_counts=tuple(int(c) for c in p.region_counts[0]),
        unconstrained_classes=tuple(
            int(k + 1) for k in np.flatnonzero(class_counts == 0)
        ),
        unique=unique,
    )


def mle_estimate(measure: MixingMeasure, data) -> EstimateOutcome:
    """Likelihood-maximizing permutation, found by exact matching.

    Always returns a permutation. Classes absent from the data leave all-zero
    score rows; the matching assigns them deterministically and they are
    reported in ``unconstrained_classes``.
    """
    return _estimate("mle", summarize(measure, data))


def mv_estimate(measure: MixingMeasure, data) -> EstimateOutcome:
    """Majority vote: each region elects its most frequent label.

    Fails (in this order of checks) when a region holds no samples, when some
    region's vote is tied, or when two regions elect the same class.
    """
    return _estimate("mv", summarize(measure, data))


def greedy_estimate(measure: MixingMeasure, data) -> EstimateOutcome:
    """Independent per-class argmax of the score rows; no matching step.

    Fails when a class has no samples (its argmax is undefined) or when the
    row argmaxes collide, which exact matching would have repaired. The first
    failure is reported as ``empty_region`` although it concerns a class, so
    recovery curves count it in ``fail_empty``.
    """
    return _estimate("greedy", summarize(measure, data))
