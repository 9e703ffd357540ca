import json
import tracemalloc

import numpy as np
import pytest

from permlearn import (
    Gaussian,
    LabeledData,
    MixingMeasure,
    Permutation,
    greedy_estimate,
    mle_estimate,
    mv_estimate,
    sample_labeled,
    summarize,
)
from permlearn.estimators import (
    FAIL_EMPTY_REGION,
    FAIL_MAJORITY_TIE,
    FAIL_NON_BIJECTIVE,
    _estimate,
    prefix_summaries,
)
from permlearn.analysis.gaps import _gaps_from_scores
from permlearn.mixtures import _json_text


def separated(k=2, gap=30.0):
    comps = [Gaussian([gap * i], [[1.0]]) for i in range(k)]
    return MixingMeasure(np.full(k, 1.0 / k), comps)


def data_from(xs, ys):
    return LabeledData(np.asarray(xs, dtype=float).reshape(len(ys), -1), np.asarray(ys))


def flat_bincount_weights(scores, labels, k, ns):
    """The weights of prefix_summaries from one bincount over flat (sample,
    column) keys, bin ((trial * len(ns) + segment) * k + row) * k + column."""
    ns = np.asarray(ns)
    n = ns[-1]
    scores, labels = scores[..., :n, :], labels[..., :n]
    t, g = labels.size // n, ns.size
    seg_k = np.repeat(np.arange(t * g) * k, np.tile(np.diff(ns, prepend=0), t))
    by_class = (seg_k + labels.ravel() - 1)[:, np.newaxis] * k + np.arange(k)
    weights = np.bincount(by_class.ravel(), weights=scores.ravel(), minlength=t * g * k * k)
    weights.reshape(t, g, -1).cumsum(axis=1, out=weights.reshape(t, g, -1))
    return weights.reshape(-1, k, k)


def loglik(s, perm):
    """The one-prefix summary's mean log joint score under perm."""
    return s.loglik(np.array([perm.to_region]) - 1)[0]


class TestSummarize:
    def test_counts_and_votes(self):
        m = separated(2)
        data = data_from([0.0, 30.0, 30.1, -0.2], [1, 2, 2, 1])
        s = summarize(m, data)
        np.testing.assert_array_equal(s.class_counts[0], [2, 2])
        np.testing.assert_array_equal(s.region_counts[0], [2, 2])
        np.testing.assert_array_equal(s.votes[0], [[2, 0], [0, 2]])
        assert s.ns.tolist() == [4] and s.ns[0] == 4 and s.k == 2

    def test_weights_are_summed_log_scores(self):
        m = separated(2)
        data = data_from([0.0, 30.0], [1, 2])
        s = summarize(m, data)
        scores = m.log_scores(data.x)
        np.testing.assert_allclose(s.weights[0][0], scores[0])
        np.testing.assert_allclose(s.weights[0][1], scores[1])

    def test_matches_the_whole_data_prefix_of_a_grid(self):
        m = separated(3)
        data = sample_labeled(m, Permutation.identity(3), 200, seed=0)
        a = summarize(m, data)
        b = prefix_summaries(m.log_scores(data.x).T, data.y, 3, [50, 120, 200])
        np.testing.assert_array_equal(a.votes[0], b.votes[-1])
        np.testing.assert_allclose(a.weights[0], b.weights[-1])

    @pytest.mark.parametrize(
        "t,n,k,ns",
        [(1, 5, 2, [1, 5]), (3, 40, 4, [1, 2, 3, 17, 40]), (5, 30, 16, [1, 7, 29]),
         (4, 9, 1, [1, 9])],
    )
    def test_trial_axis_stacks_the_trials(self, t, n, k, ns):
        # every field of one (T, n, K) call equals T 2-d calls stacked
        # trial-major; n is one more than the grid needs, so slicing is hit
        rng = np.random.default_rng([t, n, k])
        scores = rng.normal(size=(t, n + 1, k))
        labels = rng.integers(1, k + 1, size=(t, n + 1))
        batch = prefix_summaries(np.moveaxis(scores, -1, 0), labels, k, ns)
        alone = [prefix_summaries(scores[i].T, labels[i], k, ns) for i in range(t)]
        assert batch.k == k
        for field in ("ns", "weights", "votes", "class_counts", "region_counts"):
            stacked = np.concatenate([getattr(a, field) for a in alone])
            assert np.array_equal(getattr(batch, field), stacked), field
        cols = np.tile(np.arange(k), (t * len(ns), 1))
        stacked = np.concatenate([a.loglik(cols[: len(ns)]) for a in alone])
        assert np.array_equal(batch.loglik(cols), stacked)

    @pytest.mark.parametrize("trials", [None, 1, 3])
    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_weights_equal_one_flat_bincount(self, trials, negative_zero):
        # the per-column bincounts add each bin's samples in sample order, as
        # one bincount over flat (sample, column) keys does
        k, n, ns = 5, 700, [1, 2, 40, 699]
        rng = np.random.default_rng([k, n, trials or 0])
        shape = (n,) if trials is None else (trials, n)
        scores = rng.normal(0.0, 30.0, (*shape, k))
        labels = rng.integers(1, k + 1, shape)
        if negative_zero:
            scores[rng.random(scores.shape) < 0.5] = -0.0
            scores[..., 0] = -0.0
        got = prefix_summaries(np.moveaxis(scores, -1, 0), labels, k, ns).weights
        want = flat_bincount_weights(scores, labels, k, ns)
        assert got.tobytes() == want.tobytes()

    def test_scratch_memory_is_below_one_copy_of_the_scores(self):
        # the binning allocates per-sample keys and one column at a time, never
        # an (n, K) array beside the scores
        n, k = 100_000, 9
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(n, k))
        labels = rng.integers(1, k + 1, n)
        for call in (
            lambda: prefix_summaries(scores.T, labels, k, [n]),
            lambda: _gaps_from_scores(
                scores.T, labels, Permutation.identity(k), {"mle", "mv"}, 0
            ),
        ):
            tracemalloc.start()
            try:
                call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * k * 8

    def test_rejects_scores_that_do_not_match_the_trial_axis(self):
        with pytest.raises(ValueError, match="shape"):
            prefix_summaries(np.zeros((2, 2, 3)), np.ones((3, 3), dtype=int), 2, [3])
        with pytest.raises(ValueError, match="labels"):
            prefix_summaries(np.zeros((2, 1, 2, 3)), np.ones((1, 2, 3), dtype=int), 2, [3])
        for count in (1, 3):  # one column too few or too many
            with pytest.raises(ValueError, match="2 columns"):
                prefix_summaries(np.zeros((count, 3)), np.ones(3, dtype=int), 2, [3])

    def test_rejects_label_above_k(self):
        m = separated(2)
        with pytest.raises(ValueError, match="label"):
            summarize(m, data_from([0.0], [3]))

    def test_rejects_empty(self):
        m = separated(2)
        with pytest.raises(ValueError, match="non-empty"):
            summarize(m, LabeledData(np.zeros((0, 1)), np.zeros(0, dtype=int)))


class TestMLE:
    def test_recovers_identity(self):
        m = separated(3)
        data = sample_labeled(m, Permutation.identity(3), 30, seed=1)
        out = mle_estimate(m, data)
        assert out.ok
        assert out.method == "mle"
        assert out.permutation == Permutation.identity(3)
        assert out.unique is True

    def test_recovers_a_swap(self):
        m = separated(2)
        swap = Permutation((2, 1))
        data = sample_labeled(m, swap, 20, seed=2)
        assert mle_estimate(m, data).permutation == swap

    def test_never_fails_even_on_one_sample(self):
        m = separated(4)
        out = mle_estimate(m, data_from([0.0], [2]))
        assert out.ok
        assert out.failure is None
        # classes 1, 3, 4 contributed no samples
        assert out.unconstrained_classes == (1, 3, 4)
        assert out.permutation.region_of_label(2) == 1

    def test_loglik_is_the_matching_value(self):
        m = separated(2)
        data = sample_labeled(m, Permutation.identity(2), 50, seed=3)
        out = mle_estimate(m, data)
        s = summarize(m, data)
        assert out.log_likelihood == pytest.approx(loglik(s, out.permutation))

    def test_duplicating_data_changes_nothing(self):
        m = separated(3)
        data = sample_labeled(m, Permutation((2, 3, 1)), 40, seed=4)
        doubled = LabeledData(
            np.vstack([data.x, data.x]), np.concatenate([data.y, data.y])
        )
        a, b = mle_estimate(m, data), mle_estimate(m, doubled)
        assert a.permutation == b.permutation
        assert a.log_likelihood == pytest.approx(b.log_likelihood)


class TestMajorityVote:
    def test_recovers_identity(self):
        m = separated(3)
        data = sample_labeled(m, Permutation.identity(3), 60, seed=5)
        out = mv_estimate(m, data)
        assert out.ok and out.permutation == Permutation.identity(3)

    def test_empty_region_fails_first(self):
        m = separated(2)
        # both samples land in region 2; region 1 is empty AND there is a
        # label tie in region 2 — the empty region must win the report
        out = mv_estimate(m, data_from([30.0, 30.2], [1, 2]))
        assert not out.ok
        assert out.failure == FAIL_EMPTY_REGION
        assert out.permutation is None

    def test_majority_tie(self):
        m = separated(2)
        out = mv_estimate(m, data_from([0.0, 0.1, 30.0], [1, 2, 2]))
        assert out.failure == FAIL_MAJORITY_TIE

    def test_non_bijective_vote(self):
        m = separated(2)
        # label 2 wins both regions
        out = mv_estimate(m, data_from([0.0, 0.1, 30.0], [2, 2, 2]))
        assert out.failure == FAIL_NON_BIJECTIVE

    def test_vote_inverts_to_assignment(self):
        m = separated(2)
        # region 1 elects label 2, region 2 elects label 1 => labels 1,2 -> regions 2,1
        out = mv_estimate(m, data_from([0.0, 30.0], [2, 1]))
        assert out.ok
        assert out.permutation == Permutation((2, 1))

    def test_loglik_reported_for_recovered_assignment(self):
        m = separated(2)
        data = sample_labeled(m, Permutation.identity(2), 40, seed=6)
        out = mv_estimate(m, data)
        s = summarize(m, data)
        assert out.log_likelihood == pytest.approx(loglik(s, out.permutation))


class TestGreedy:
    def test_happy_path(self):
        m = separated(3)
        data = sample_labeled(m, Permutation.identity(3), 60, seed=7)
        out = greedy_estimate(m, data)
        assert out.ok and out.permutation == Permutation.identity(3)

    def test_collision_is_non_bijective(self):
        # both rows prefer column 1: greedy collides where matching succeeds
        s = prefix_summaries(
            np.log(np.array([[4.0, 1.0], [5.0, 3.0]]) / 10.0).T,
            np.array([1, 2]),
            2,
            [2],
        )
        greedy = _estimate("greedy", s)
        assert greedy.failure == FAIL_NON_BIJECTIVE
        mle = _estimate("mle", s)
        assert mle.ok and mle.permutation == Permutation.identity(2)

    def test_unseen_class_fails(self):
        m = separated(2)
        out = greedy_estimate(m, data_from([0.0], [1]))
        assert out.failure == FAIL_EMPTY_REGION

    def test_mv_from_same_summary(self):
        m = separated(2)
        data = sample_labeled(m, Permutation.identity(2), 30, seed=8)
        s = summarize(m, data)
        assert _estimate("mv", s).permutation == _estimate("greedy", s).permutation


class TestOutcomeShape:
    def test_to_dict_is_json_ready(self):
        m = separated(2)
        data = sample_labeled(m, Permutation.identity(2), 10, seed=9)
        for out in (mle_estimate(m, data), mv_estimate(m, data), greedy_estimate(m, data)):
            d = json.loads(_json_text(out))
            assert d["method"] in ("mle", "mv", "greedy")
            assert d["class_counts"] == list(np.bincount(data.y, minlength=3)[1:])

    def test_failure_outcome_fields(self):
        m = separated(2)
        out = mv_estimate(m, data_from([30.0], [1]))
        d = json.loads(_json_text(out))
        assert d["failure"] == FAIL_EMPTY_REGION
        assert d["permutation"] is None
        assert d["log_likelihood"] is None
