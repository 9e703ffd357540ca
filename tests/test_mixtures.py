import json
import math
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import multivariate_normal, norm

from permlearn import (
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
from permlearn import mixtures
from permlearn.analysis import tv_distance
from permlearn.mixtures import _categorical, _json_text, _logsumexp


def two_atom(mu=1.0):
    return MixingMeasure(
        [0.5, 0.5], [Gaussian([-mu], [[1.0]]), Gaussian([mu], [[1.0]])]
    )


def solve_triangular_log_density(g, x):
    """Gaussian log density whitened by ``scipy.linalg.solve_triangular``."""
    pts = np.asarray(x, dtype=float).reshape(-1, g.dim)
    chol = np.linalg.cholesky(g.cov)
    z = solve_triangular(chol, (pts - g.mean).T, lower=True, check_finite=False)
    log_norm = float(-0.5 * g.dim * np.log(2.0 * np.pi) - np.log(np.diag(chol)).sum())
    return log_norm - 0.5 * np.einsum("dn,dn->n", z, z)


def mask_loop_sample(density, rng, n):
    """A density's draw as a boolean mask and scatter per nested part."""
    if isinstance(density, Gaussian):
        z = rng.standard_normal((n, density.dim))
        return density.mean + z @ np.linalg.cholesky(density.cov).T
    if isinstance(density, GaussianMixture):
        out = np.empty((n, density.dim))
        which = rng.choice(len(density.parts), size=n, p=density.weights)
        for j, part in enumerate(density.parts):
            mask = which == j
            cnt = int(mask.sum())
            if cnt:
                out[mask] = mask_loop_sample(part, rng, cnt)
        return out
    return density.sample(rng, n)


def mask_loop_sample_labeled(measure, perm, n, seed):
    """Labeled draws as a boolean mask and scatter per class label."""
    rng = np.random.default_rng(seed)
    # the prior of label k is the weight of its region perm(k)
    y0 = rng.choice(measure.n_atoms, size=n, p=measure.weights[np.asarray(perm.to_region) - 1])
    x = np.empty((n, measure.dim))
    for k0 in range(measure.n_atoms):
        mask = y0 == k0
        cnt = int(mask.sum())
        if cnt:
            comp = measure.components[perm.region_of_label(k0 + 1) - 1]
            x[mask] = mask_loop_sample(comp, rng, cnt)
    return x, y0 + 1


def random_gaussian(rng, d, diagonal):
    if diagonal:
        cov = np.diag(rng.uniform(0.2, 3.0, d))
    else:
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.3 * np.eye(d)
    return Gaussian(rng.normal(0.0, 2.0, d), cov)


class TestGaussian:
    def test_matches_scipy_1d(self):
        g = Gaussian([0.3], [[2.0]])
        xs = np.linspace(-4, 5, 40).reshape(-1, 1)
        expected = norm.logpdf(xs.ravel(), loc=0.3, scale=np.sqrt(2.0))
        np.testing.assert_allclose(g.log_density(xs), expected, rtol=1e-12)

    def test_matches_scipy_3d(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.normal(size=3)
        g = Gaussian(mean, cov)
        xs = rng.normal(size=(25, 3))
        np.testing.assert_allclose(
            g.log_density(xs),
            multivariate_normal(mean, cov).logpdf(xs),
            rtol=1e-10,
        )

    def test_standard_normal_at_zero(self):
        assert Gaussian([0.0], [[1.0]]).density(np.array([[0.0]]))[0] == pytest.approx(
            0.3989422804014327, abs=1e-15
        )

    @pytest.mark.parametrize(
        "cov,message",
        [
            ([[1.0, 0.5], [0.4, 1.0]], "symmetric"),
            ([[1.0, 2.0], [2.0, 1.0]], "positive definite"),
            ([[np.inf]], "finite"),
        ],
    )
    def test_rejects_bad_covariance(self, cov, message):
        dim = len(cov)
        with pytest.raises(ValueError, match=message):
            Gaussian(np.zeros(dim), cov)

    @pytest.mark.parametrize("diagonal", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_whitening_equals_solve_triangular_bit_for_bit(self, d, diagonal):
        # Bit for bit on 1-d batches, which LAPACK whitens by the reciprocal
        # of the factor as the forward substitution does. A lone right-hand
        # side LAPACK divides by it, and from 2-d its blocked solve rounds
        # otherwise, so there within 1e-12 (1 + |reference|).
        rng = np.random.default_rng(10 * d + diagonal)
        g = random_gaussian(rng, d, diagonal)
        for n in (0, 1, 2, 63, 64, 4096, 4097):
            x = rng.normal(0.0, 3.0, (n, d))
            got, ref = g.log_density(x), solve_triangular_log_density(g, x)
            assert got.shape == (n,)
            if d == 1 and n > 1:
                assert np.array_equal(got, ref)
            else:
                assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))
        for point in rng.normal(0.0, 3.0, (5, d)):
            got, ref = g.log_density(point), float(solve_triangular_log_density(g, point)[0])
            assert type(got) is float
            assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_log_density_leaves_the_callers_points_alone(self, d):
        rng = np.random.default_rng(d)
        g = random_gaussian(rng, d, diagonal=False)
        x = rng.normal(size=(50, d))
        transposed = np.ascontiguousarray(x.T).T  # an F-ordered view of the same values
        for pts in (x, transposed, x[0]):
            before = pts.copy()
            g.log_density(pts)
            assert np.array_equal(pts, before)
        assert np.array_equal(g.log_density(x), g.log_density(transposed))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sample_equals_mean_plus_chol_z_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        g = random_gaussian(rng, d, diagonal=False)
        for n in (0, 1, 2, 11_000):
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            got = g.sample(a, n)
            assert got.shape == (n, d) and got.flags.c_contiguous
            assert np.array_equal(got, mask_loop_sample(g, b, n))
            assert a.random() == b.random()

    def test_sampling_moments(self):
        g = Gaussian([1.0, -2.0], [[2.0, 0.6], [0.6, 1.0]])
        x = g.sample(np.random.default_rng(7), 200_000)
        np.testing.assert_allclose(x.mean(axis=0), [1.0, -2.0], atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), [[2.0, 0.6], [0.6, 1.0]], atol=0.03)


class TestGaussianMixtureDensity:
    def test_mixture_of_identical_parts_collapses(self):
        part = Gaussian([0.0], [[1.0]])
        gm = GaussianMixture([0.3, 0.7], [part, part])
        xs = np.linspace(-3, 3, 11).reshape(-1, 1)
        np.testing.assert_allclose(gm.log_density(xs), part.log_density(xs), rtol=1e-12)

    def test_two_part_value(self):
        gm = GaussianMixture(
            [0.5, 0.5], [Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])]
        )
        # 0.5 phi(-1) + 0.5 phi(1) at x = 0
        assert gm.density(np.array([[0.0]]))[0] == pytest.approx(
            0.24197072451914337, abs=1e-15
        )

    def test_sampling_hits_both_parts(self):
        gm = GaussianMixture(
            [0.2, 0.8], [Gaussian([-5.0], [[0.1]]), Gaussian([5.0], [[0.1]])]
        )
        x = gm.sample(np.random.default_rng(1), 50_000).ravel()
        frac = (x > 0).mean()
        assert frac == pytest.approx(0.8, abs=0.01)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.5, 0.6], [Gaussian([0.0], [[1.0]])] * 2)


def cdist_log_density(kd, x):
    """KernelDensity.log_density from squared distances by ``cdist``."""
    sq = cdist(x, kd.points, "sqeuclidean")
    h = kd.bandwidth
    m, d = kd.points.shape
    out = scipy_logsumexp(-0.5 * sq / (h * h), axis=1)
    return out - math.log(m) - d * (math.log(h) + 0.5 * math.log(2.0 * math.pi))


def row_major_log_density(mix, pts):
    """GaussianMixture.log_density as an (n, P) stack reduced over axis 1."""
    per_part = np.stack([p.log_density(pts) for p in mix.parts], axis=1)
    return _logsumexp(per_part, axis=1, b=mix.weights[np.newaxis, :])


@st.composite
def nested_mixtures_and_points(draw):
    """P = 1..12 parts with some zero weights, in 1 or 2 dimensions, and
    points that include far ones where some or all part scores are -inf."""
    p = draw(st.integers(1, 12))
    dim = draw(st.sampled_from([1, 2]))
    raw = draw(st.lists(st.integers(0, 4), min_size=p, max_size=p).filter(any))
    weights = np.array(raw, dtype=float) / sum(raw)
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    # a 1e20 variance keeps a part finite at 1e155, where unit parts are -inf
    var = st.sampled_from([1e-4, 0.3, 1.0, 10.0, 1e20])
    parts = [
        Gaussian(draw(st.lists(coord, min_size=dim, max_size=dim)),
                 np.diag(draw(st.lists(var, min_size=dim, max_size=dim))))
        for _ in range(p)
    ]
    n = draw(st.integers(1, 20))
    near = draw(st.lists(st.floats(-30.0, 30.0, allow_nan=False),
                         min_size=n * dim, max_size=n * dim))
    far = [1e155, -1e155, 1e200, 40.0]
    pts = np.vstack([np.reshape(near, (n, dim)), np.repeat(far, dim).reshape(-1, dim)])
    return GaussianMixture(weights, parts), pts


class TestGaussianMixtureKernel:
    """The part-major (P, n) layout equals the row layout bit for bit below 8
    parts, where numpy adds a row in order, and to rounding from 8 on."""

    @settings(max_examples=300, deadline=None)
    @given(nested_mixtures_and_points())
    def test_equals_the_row_major_formula(self, case):
        mix, pts = case
        old = row_major_log_density(mix, pts)
        new = mix.log_density(pts)
        one, one_old = mix.log_density(pts[0]), row_major_log_density(mix, pts[:1])[0]
        if len(mix.parts) < 8:
            assert np.array_equal(new, old)
            assert one == one_old
        else:
            np.testing.assert_allclose(new, old, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(one, one_old, rtol=1e-14, atol=0.0)

    def test_far_points_underflow_like_the_row_formula(self):
        parts = [Gaussian([0.0], [[1.0]]), Gaussian([3.0], [[1e20]]), Gaussian([1.0], [[2.0]])]
        mix = GaussianMixture([0.5, 0.0, 0.5], parts)
        pts = np.array([[1e155], [1e200], [0.5]])
        out = mix.log_density(pts)
        assert np.array_equal(out, row_major_log_density(mix, pts))
        assert out[0] == out[1] == -np.inf and np.isfinite(out[2])
        wide = GaussianMixture([0.5, 0.5, 0.0], parts)
        assert np.isfinite(wide.log_density(pts[:1])).all()


class TestKernelDensity:
    def test_single_point_is_gaussian(self):
        kd = KernelDensity([[1.0, 0.0]], bandwidth=0.7)
        g = Gaussian([1.0, 0.0], 0.49 * np.eye(2))
        xs = np.random.default_rng(3).normal(size=(10, 2))
        np.testing.assert_allclose(kd.log_density(xs), g.log_density(xs), rtol=1e-12)

    def test_integrates_to_one(self):
        from scipy.integrate import quad

        kd = KernelDensity([[-1.0], [0.5], [2.0]], bandwidth=0.4)
        # 10 bandwidths beyond the outermost points
        total, _ = quad(lambda x: float(kd.density(np.array([[x]]))[0]), -5.0, 6.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_the_cdist_formula(self, d):
        rng = np.random.default_rng(d)
        for m in (1, 7, 8, 60):
            kd = KernelDensity(rng.normal(0.0, 2.0, (m, d)), rng.uniform(0.05, 2.0))
            x = rng.normal(0.0, 3.0, (300, d))
            got, ref = kd.log_density(x), cdist_log_density(kd, x)
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


class TestMixingMeasure:
    def test_density_is_weighted_sum(self):
        m = two_atom()
        xs = np.linspace(-3, 3, 17)
        direct = 0.5 * norm.pdf(xs, -1, 1) + 0.5 * norm.pdf(xs, 1, 1)
        np.testing.assert_allclose(
            np.exp(mixture_log_density(m, xs.reshape(-1, 1))), direct, rtol=1e-12
        )
        np.testing.assert_allclose(
            mixture_log_density(m, xs.reshape(-1, 1)), np.log(direct), rtol=1e-12
        )

    def test_single_atom_allowed(self):
        m = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        assert m.n_atoms == 1
        assert np.exp(mixture_log_density(m, np.array([[0.0]])))[0] == pytest.approx(
            0.3989422804014327
        )

    @pytest.mark.parametrize(
        "weights",
        [[0.5, 0.4], [0.0, 1.0], [-0.1, 1.1], [0.6, 0.6]],
    )
    def test_rejects_bad_weights(self, weights):
        comps = [Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])]
        with pytest.raises(ValueError):
            MixingMeasure(weights, comps)

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            MixingMeasure(
                [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([0.0, 0.0], np.eye(2))]
            )

    # a working density of another type: refused for its type, in every
    # dimension, where a mixing measure or TV takes an atom
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("taker", ["measure", "tv"])
    def test_an_atom_of_another_type_is_refused(self, taker, d):
        class Laplace(ComponentDensity):
            dim = d

            def log_density(self, x):
                return -np.abs(np.asarray(x, dtype=float)).sum(axis=-1) - d * math.log(2.0)

            def sample(self, rng, n):
                return rng.laplace(size=(n, d))

        gaussian = Gaussian(np.zeros(d), np.eye(d))
        message = "^atoms must be Gaussian, GaussianMixture or KernelDensity instances$"
        with pytest.raises(ValueError, match=message):
            if taker == "measure":
                MixingMeasure([0.25, 0.75], [gaussian, Laplace()])
            else:
                tv_distance(Laplace(), gaussian, mc_samples=100)

    def test_log_scores_shape_and_value(self):
        m = two_atom()
        s = m.log_scores(np.array([[0.0], [1.0]]))
        assert s.shape == (2, 2)
        np.testing.assert_allclose(
            s[0], np.log(0.5) + norm.logpdf([0.0, 0.0], [-1.0, 1.0], 1.0), rtol=1e-12
        )


class TestRegionsAndClassify:
    def test_region_of_tie_goes_to_lowest_index(self):
        m = two_atom()
        # symmetric measure: x = 0 is an exact tie
        assert region_of(m, np.array([[0.0]]))[0] == 1
        assert region_of(m, np.array([[-1.2]]))[0] == 1
        assert region_of(m, np.array([[0.7]]))[0] == 2

    def test_weights_shift_the_boundary(self):
        lop = MixingMeasure(
            [0.9, 0.1], [Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])]
        )
        # at x slightly right of 0 the heavy atom still wins
        assert region_of(lop, np.array([[0.4]]))[0] == 1

    def test_classify_inverts_the_permutation(self):
        m = two_atom()
        swap = Permutation((2, 1))
        x = np.array([[-1.2], [1.2]])
        np.testing.assert_array_equal(classify(m, Permutation((1, 2)), x), [1, 2])
        np.testing.assert_array_equal(classify(m, swap, x), [2, 1])


def symmetric_pd(draw, d):
    a = np.reshape(draw(st.lists(st.floats(-2.0, 2.0), min_size=d * d, max_size=d * d)), (d, d))
    return a @ a.T + draw(st.sampled_from([1e-3, 0.3, 1.0])) * np.eye(d)


@st.composite
def atoms(draw, d):
    """A Gaussian, a 1..12-part Gaussian mixture or a 1..20-point KDE in d dims."""
    coord = st.floats(-5.0, 5.0)
    kind = draw(st.sampled_from(["gaussian", "mixture", "kde"]))
    if kind == "kde":
        m = draw(st.integers(1, 20))
        points = draw(st.lists(coord, min_size=m * d, max_size=m * d))
        return KernelDensity(np.reshape(points, (m, d)), draw(st.floats(0.05, 3.0)))
    gaussians = [
        Gaussian(draw(st.lists(coord, min_size=d, max_size=d)), symmetric_pd(draw, d))
        for _ in range(1 if kind == "gaussian" else draw(st.integers(1, 12)))
    ]
    if kind == "gaussian":
        return gaussians[0]
    raw = draw(st.lists(st.integers(0, 4), min_size=len(gaussians),
                        max_size=len(gaussians)).filter(any))
    return GaussianMixture(np.array(raw, dtype=float) / sum(raw), gaussians)


@st.composite
def measures_and_points(draw):
    """1..4 atoms of one dimension 1..3, and points near and far from them."""
    d = draw(st.integers(1, 3))
    comps = draw(st.lists(atoms(d), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=len(comps),
                                     max_size=len(comps))), dtype=float)
    n = draw(st.integers(1, 12))
    near = draw(st.lists(st.floats(-30.0, 30.0), min_size=n * d, max_size=n * d))
    pts = np.vstack([np.reshape(near, (n, d)), np.full((1, d), 1e155)])
    return MixingMeasure(weights / weights.sum(), comps), pts


class TestAloneEqualsBatch:
    """A point scores the same bits alone as inside any batch."""

    @settings(max_examples=200, deadline=None)
    @given(measures_and_points())
    def test_a_point_scores_alike_alone_and_in_a_batch(self, case):
        m, x = case
        batch = [c.log_density(x) for c in m.components]
        scores = m.log_scores(x)
        assert np.array_equal(scores, np.column_stack(batch) + m.log_weights)
        regions = region_of(m, x)
        for i in range(len(x)):
            for c, column in zip(m.components, batch):
                assert c.log_density(x[i]) == column[i]
            assert np.array_equal(m.log_scores(x[i]), scores[i])
            assert region_of(m, x[i]) == regions[i]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_score_like_the_halves_scored_apart(self, d):
        rng = np.random.default_rng(d)
        m = nested_measure(rng, 5, d, with_zero_parts=True)
        kde = KernelDensity(rng.normal(size=(40, d)), 0.6)
        for score, comps in ((m.log_scores, m.components), (kde.log_density, [kde])):
            block = mixtures._block(sum(len(c._table.weights) for c in comps))
            for n in (block - 1, block + 1):
                x = rng.normal(0.0, 3.0, (n, d))
                whole = score(x)
                for half in (1, n // 2, n - 1):
                    assert np.array_equal(whole, np.concatenate([score(x[:half]), score(x[half:])]))


NON_FINITE = [np.nan, np.inf, -np.inf]
ATOMS_2D = {
    "gaussian": Gaussian([0.0, 0.0], np.eye(2)),
    "mixture": GaussianMixture(
        [0.4, 0.6],
        [Gaussian([0.0, 0.0], np.eye(2)), Gaussian([1.0, -1.0], 0.5 * np.eye(2))],
    ),
    "kde": KernelDensity([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]], 0.7),
}
REFUSAL = "^query points must be finite$"


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("kind", sorted(ATOMS_2D))
    def test_every_atom_refuses_with_one_message(self, kind, bad):
        atom = ATOMS_2D[kind]
        for x in ([[0.0, 0.0], [bad, 1.0]], [0.0, bad]):
            with pytest.raises(ValueError, match=REFUSAL):
                atom.log_density(x)
            with pytest.raises(ValueError, match=REFUSAL):
                atom.density(x)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_one_dimensional_atoms_refuse_scalars_and_batches(self, bad):
        # a KDE used to return nan for the bad row and a density for the rest
        for atom in (
            Gaussian([0.0], [[1.0]]),
            GaussianMixture([0.5, 0.5], [Gaussian([-1.0], [[1.0]]), Gaussian([1.0], [[1.0]])]),
            KernelDensity([0.0, 1.0], 0.5),
        ):
            for x in (bad, [[bad], [0.0]]):
                with pytest.raises(ValueError, match=REFUSAL):
                    atom.log_density(x)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_measure_level_calls_refuse(self, bad):
        m = MixingMeasure([0.2, 0.3, 0.5], [ATOMS_2D[k] for k in sorted(ATOMS_2D)])
        perm = Permutation.identity(3)
        calls = (
            m.log_scores,
            lambda x: region_of(m, x),
            lambda x: mixture_log_density(m, x),
            lambda x: classify(m, perm, x),
        )
        for call in calls:
            for x in (np.array([[0.0, 0.0], [1.0, bad]]), np.array([bad, bad])):
                with pytest.raises(ValueError, match=REFUSAL):
                    call(x)

    def test_finite_points_are_still_scored(self):
        m = MixingMeasure([0.2, 0.3, 0.5], [ATOMS_2D[k] for k in sorted(ATOMS_2D)])
        x = np.array([[0.0, 0.0], [1e300, -1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = m.log_scores(x)
        assert np.all(np.isfinite(scores[0]))
        assert np.all(scores[1] == -np.inf)
        assert region_of(m, x).tolist() == [region_of(m, x[0]), 1]

    def test_overflowing_whitening_scores_minus_inf_without_warnings(self):
        # z overflows, and 0 * inf in the substitution would leave NaN
        narrow = [Gaussian([0.0, 0.0], 1e-6 * np.eye(2)),
                  Gaussian([0.0, 0.0], [[1e-6, 5e-7], [5e-7, 1e-6]])]
        m = MixingMeasure([0.2, 0.2, 0.2, 0.2, 0.2], [*narrow, *ATOMS_2D.values()])
        x = np.array([[1.7e308, -1.7e308], [-1.7e308, -1.7e308], [1e300, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = m.log_scores(x)
            for atom in m.components:
                assert np.all(atom.log_density(x) == -np.inf)
        assert np.all(scores == -np.inf)


# scipy 1.15 rewrote logsumexp around log1p; the kernel copies that algorithm
SCIPY_LOG1P = tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 15)


def assert_matches_scipy(a, axis, b=None):
    want = scipy_logsumexp(a, axis=axis, b=b)
    got = _logsumexp(a, axis=axis, b=b)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    if SCIPY_LOG1P:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14)


# a few exact values make ties at the maximum common
LSE_ENTRIES = st.one_of(
    st.floats(-60.0, 60.0),
    st.sampled_from([-2.5, 0.0, 1.0, 3.75]),
    st.just(-np.inf),
)
LSE_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.sampled_from([0.25, 1.0]))


@st.composite
def lse_cases(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    size = rows * cols
    a = np.array(draw(st.lists(LSE_ENTRIES, min_size=size, max_size=size)))
    a = a.reshape(rows, cols) + draw(st.sampled_from([0.0, 700.0, -700.0]))
    shape = draw(st.sampled_from(["none", "full", "row"]))
    b = None
    if shape != "none":
        n_b = size if shape == "full" else cols
        b = np.array(draw(st.lists(LSE_WEIGHTS, min_size=n_b, max_size=n_b)))
        b = b.reshape(a.shape if shape == "full" else (1, cols))
    return a, b, draw(st.sampled_from([0, 1, -1]))


class TestLogSumExpKernel:
    @given(lse_cases())
    def test_matches_scipy_on_matrices(self, case):
        a, b, axis = case
        assert_matches_scipy(a, axis, b)

    @given(
        st.lists(LSE_ENTRIES, min_size=1, max_size=40),
        st.sampled_from([None, 0, -1]),
        st.sampled_from([0.0, 700.0, -700.0]),
    )
    def test_matches_scipy_on_vectors(self, entries, axis, shift):
        assert_matches_scipy(np.array(entries) + shift, axis)

    @pytest.mark.parametrize(
        "a, b, axis",
        [
            # a zero weight on the max
            ([[3.0, 1.0, 2.0], [0.5, 4.0, 4.0]], [[0.0, 0.5, 0.5]], 1),
            ([[3.0, 1.0], [3.0, 2.0]], [[0.0, 1.0], [0.0, 1.0]], 0),
            ([[2.0, 2.0, 1.0], [0.0, 0.0, 0.0]], None, 1),  # ties at the max
            ([[2.0, 2.0, 2.0]], [[0.1, 0.2, 0.7]], 1),
            ([[-np.inf, 0.0, 1.0], [-np.inf, -np.inf, -np.inf]], None, 1),  # -inf entries
            ([[1.0, 2.0]], [[0.0, 0.0]], -1),  # every weight zero
            ([4.2], None, None),  # a single element
            ([[4.2]], None, 0),
            ([[4.2]], [[0.5]], -1),
            ([[700.0, 699.0, 710.0]], None, 1),  # shifts that overflow exp unshifted
            ([[-700.0, -745.0, -710.0]], [[0.3, 0.3, 0.4]], 1),
        ],
    )
    def test_edge_cases_match_scipy(self, a, b, axis):
        assert_matches_scipy(np.array(a), axis, None if b is None else np.array(b))

    # the part-major stacks of GaussianMixture.log_density: one weight per row
    @pytest.mark.parametrize("zero_weight", [False, True])
    @pytest.mark.parametrize("parts, n", [(1, 5), (2, 1), (3, 1000), (5, 64), (9, 300)])
    def test_matches_scipy_on_part_major_stacks(self, parts, n, zero_weight):
        rng = np.random.default_rng(parts * n)
        a = rng.normal(-20.0, 15.0, (parts, n))
        a[:, : n // 4] = a[0, : n // 4]  # ties at the maximum
        if n > 1:
            a[rng.integers(parts), 1] = -np.inf
        b = rng.dirichlet(np.ones(parts))[:, np.newaxis]
        if zero_weight:
            b[parts // 2] = 0.0
            a[parts // 2, 0] = np.inf  # a dropped term even where a is infinite
        assert_matches_scipy(a, 0, b)

    # rows long enough for numpy's blocked pairwise summation
    @pytest.mark.parametrize(
        "shape, axis",
        [((1000,), None), ((1000, 3), 1), ((61, 1000), 1), ((1000, 50), 1), ((300, 4), 0)],
    )
    def test_matches_scipy_at_working_shapes(self, shape, axis):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(0.0, 30.0, shape)
        assert_matches_scipy(a, axis)
        if len(shape) == 2:
            assert_matches_scipy(a, axis, rng.dirichlet(np.ones(shape[1]))[np.newaxis, :])


class TestPermutation:
    def test_identity(self):
        p = Permutation.identity(4)
        assert p.to_region == (1, 2, 3, 4)
        assert p.is_identity

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((0, 1))
        with pytest.raises(ValueError):
            Permutation((2, 3))

    def test_inverse_and_lookup(self):
        p = Permutation((3, 1, 2))
        assert p.region_of_label(1) == 3
        assert p.label_of_region(3) == 1
        assert p.inverse().to_region == (2, 3, 1)

    @given(st.permutations(list(range(1, 7))))
    def test_inverse_roundtrip(self, order):
        p = Permutation(tuple(order))
        assert p.inverse().inverse() == p
        for label in range(1, len(order) + 1):
            assert p.label_of_region(p.region_of_label(label)) == label

    @given(st.permutations(list(range(1, 6))))
    def test_map_labels_then_regions(self, order):
        p = Permutation(tuple(order))
        labels = np.arange(1, 6)
        np.testing.assert_array_equal(p.map_regions(p.map_labels(labels)), labels)


class TestSampling:
    def test_label_frequencies(self):
        m = MixingMeasure(
            [0.2, 0.3, 0.5],
            [Gaussian([float(i)], [[1.0]]) for i in range(3)],
        )
        data = sample_labeled(m, Permutation.identity(3), 120_000, seed=5)
        freqs = np.bincount(data.y, minlength=4)[1:] / data.n
        np.testing.assert_allclose(freqs, [0.2, 0.3, 0.5], atol=0.01)

    def test_samples_come_from_the_right_component(self):
        m = MixingMeasure(
            [0.5, 0.5], [Gaussian([-30.0], [[1.0]]), Gaussian([30.0], [[1.0]])]
        )
        data = sample_labeled(m, Permutation.identity(2), 5000, seed=0)
        signs = np.where(data.x[:, 0] > 0, 2, 1)
        np.testing.assert_array_equal(signs, data.y)

    def test_swapped_assignment_relabels(self):
        m = MixingMeasure(
            [0.5, 0.5], [Gaussian([-30.0], [[1.0]]), Gaussian([30.0], [[1.0]])]
        )
        data = sample_labeled(m, Permutation((2, 1)), 2000, seed=0)
        # label 1 now means region 2 (the +30 region)
        assert np.all(data.x[data.y == 1, 0] > 0)
        assert np.all(data.x[data.y == 2, 0] < 0)

    def test_same_seed_same_draw(self):
        m = two_atom()
        a = sample_labeled(m, Permutation.identity(2), 50, seed=9)
        b = sample_labeled(m, Permutation.identity(2), 50, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_prefix_of_larger_draw_matches(self):
        # nested prefixes: the first n rows of a bigger draw are the draw itself
        m = two_atom()
        small = sample_labeled(m, Permutation.identity(2), 40, seed=3)
        big = sample_labeled(m, Permutation.identity(2), 200, seed=3)
        prefix = big.prefix(40)
        assert prefix.n == 40
        # the two draws need not agree sample-for-sample; what matters is
        # that prefix slicing preserves rows of its own parent
        np.testing.assert_array_equal(prefix.x, big.x[:40])
        np.testing.assert_array_equal(prefix.y, big.y[:40])
        assert small.n == 40


class TestCategorical:
    def test_equals_generator_choice(self):
        for k in range(1, 71):
            weights = np.random.default_rng(k).random(k)
            weights[1::3] = 0.0  # zero weights, also on the last entry
            weights[0] += 0.1
            weights /= weights.sum()
            for seed in range(8):
                for n in (0, 1, 3000):
                    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = _categorical(a, weights, n)
                    assert got.dtype == np.min_scalar_type(k - 1)
                    assert np.array_equal(got, b.choice(k, size=n, p=weights))
                    assert a.random() == b.random()  # one draw of n uniforms

    @pytest.mark.parametrize("k", [255, 256, 257, 300])
    def test_wide_index_equals_generator_choice(self, k):
        weights = np.full(k, 1.0 / k)
        for seed in range(4):
            got = _categorical(np.random.default_rng(seed), weights, 50_000)
            expected = np.random.default_rng(seed).choice(k, size=50_000, p=weights)
            assert np.array_equal(got, expected)
            assert got.max() == k - 1


def nested_measure(rng, k, d, with_zero_parts):
    """K atoms of dimension d, every other one a 3-part Gaussian mixture."""
    comps = []
    for b in range(k):
        if b % 2:
            w = np.array([0.0, 0.4, 0.6]) if with_zero_parts else np.array([0.2, 0.3, 0.5])
            parts = [random_gaussian(rng, d, diagonal=False) for _ in range(3)]
            comps.append(GaussianMixture(rng.permutation(w), parts))
        else:
            comps.append(random_gaussian(rng, d, diagonal=b % 4 == 0))
    weights = rng.uniform(0.5, 1.5, k)
    return MixingMeasure(weights / weights.sum(), comps)


class TestSamplingIsPinned:
    """Every draw equals the per-group boolean mask and scatter loop bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("with_zero_parts", [False, True])
    def test_sample_labeled_equals_the_mask_loop(self, d, with_zero_parts):
        rng = np.random.default_rng(10 * d + with_zero_parts)
        m = nested_measure(rng, 9, d, with_zero_parts)
        perms = [Permutation.identity(9), Permutation(tuple(rng.permutation(9) + 1))]
        for perm in perms:
            for n in (0, 1, 2, 5000):
                data = sample_labeled(m, perm, n, seed=n + d)
                x, y = mask_loop_sample_labeled(m, perm, n, seed=n + d)
                assert np.array_equal(data.x, x)
                assert data.y.dtype == np.int64 and np.array_equal(data.y, y)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixture_sample_equals_the_mask_loop(self, d):
        rng = np.random.default_rng(d)
        parts = [random_gaussian(rng, d, diagonal=False) for _ in range(5)]
        for weights in ([0.1, 0.2, 0.3, 0.15, 0.25], [0.0, 0.5, 0.0, 0.5, 0.0]):
            mix = GaussianMixture(weights, parts)
            for n in (0, 1, 2, 20_000):
                a, b = np.random.default_rng(n), np.random.default_rng(n)
                assert np.array_equal(mix.sample(a, n), mask_loop_sample(mix, b, n))
                assert a.random() == b.random()

    def test_more_than_256_atoms(self):
        # a 16-bit index, and labels past 256 that an 8-bit sum would wrap
        rng = np.random.default_rng(0)
        k = 300
        comps = [Gaussian(rng.normal(size=2), np.eye(2)) for _ in range(k)]
        comps[7] = GaussianMixture([0.5, 0.0, 0.5], [comps[0], comps[1], comps[2]])
        m = MixingMeasure(np.full(k, 1.0 / k), comps)
        perm = Permutation(tuple(rng.permutation(k) + 1))
        data = sample_labeled(m, perm, 30_000, seed=1)
        x, y = mask_loop_sample_labeled(m, perm, 30_000, seed=1)
        assert data.y.max() == k and data.y.min() == 1
        assert np.array_equal(data.x, x) and np.array_equal(data.y, y)


class TestLabeledDataLabels:
    @pytest.mark.parametrize(
        "y, message",
        [
            ([1.5, 2.0], "labels must be integers"),
            ([1.0, np.nan], "labels must be integers"),
            ([1.0, np.inf], "labels must be integers"),
            ([True, False], "labels must be integers"),
            (["1", "2"], "labels must be integers"),
            ([0, 1], r"labels must be in 1\.\.K"),
            ([2.0, -1.0], r"labels must be in 1\.\.K"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_bad_labels_keep_their_messages(self, y, message):
        with pytest.raises(ValueError, match=message):
            LabeledData(np.zeros((2, 1)), np.array(y))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.float64])
    def test_integral_labels_become_a_private_int64_copy(self, dtype):
        y = np.array([3, 1, 2], dtype=dtype)
        data = LabeledData(np.zeros((3, 1)), y)
        y[0] = 2
        assert data.y.dtype == np.int64 and data.y.tolist() == [3, 1, 2]
        assert not data.y.flags.writeable


class TestLabeledDataIO:
    def test_csv_roundtrip(self, tmp_path):
        m = two_atom()
        data = sample_labeled(m, Permutation.identity(2), 37, seed=1)
        path = tmp_path / "data.csv"
        data.save_csv(path)
        back = LabeledData.load_csv(path)
        np.testing.assert_allclose(back.x, data.x, rtol=1e-15)
        np.testing.assert_array_equal(back.y, data.y)

    def test_header_names_dimensions(self, tmp_path):
        data = LabeledData(np.zeros((2, 3)), np.array([1, 1]))
        path = tmp_path / "d.csv"
        data.save_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x_1,x_2,x_3,y"

    def test_load_rejects_bad_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,y\n0.5,0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2"):
            LabeledData.load_csv(path)


class TestMixtureJSON:
    def build(self):
        return MixingMeasure(
            [0.25, 0.75],
            [
                Gaussian([0.0, 1.0], [[1.0, 0.2], [0.2, 2.0]]),
                GaussianMixture(
                    [0.4, 0.6],
                    [Gaussian([3.0, 0.0], np.eye(2)), Gaussian([4.0, 0.5], 0.5 * np.eye(2))],
                ),
            ],
            labels=("left", "right"),
        )

    def test_dict_roundtrip(self):
        m = self.build()
        back = mixture_from_dict(mixture_to_dict(m))
        assert back.n_atoms == m.n_atoms
        np.testing.assert_array_equal(back.weights, m.weights)
        assert back.components == m.components
        assert back.labels == m.labels

    def test_file_roundtrip(self, tmp_path):
        m = self.build()
        path = tmp_path / "mix.json"
        save_mixture(m, path)
        back = load_mixture(path)
        assert back.components == m.components
        # deterministic bytes: saving again reproduces the file exactly
        text = path.read_text()
        save_mixture(back, path)
        assert path.read_text() == text

    def test_kde_roundtrip(self):
        m = MixingMeasure(
            [1.0], [KernelDensity([[0.0, 0.0], [1.0, 1.0]], bandwidth=0.3)]
        )
        back = mixture_from_dict(mixture_to_dict(m))
        assert back.components[0] == m.components[0]

    def test_from_dict_reports_path_on_error(self):
        d = mixture_to_dict(self.build())
        del d["atoms"][0]["density"]["cov"]
        with pytest.raises(ValueError, match=r"atoms\[0\]"):
            mixture_from_dict(d)
        d2 = mixture_to_dict(self.build())
        d2["atoms"][1]["density"]["type"] = "cauchy"
        with pytest.raises(ValueError, match=r"atoms\[1\].*cauchy"):
            mixture_from_dict(d2)

    def test_strict_json(self):
        text = json.dumps(mixture_to_dict(self.build()))
        json.loads(text)

    def test_save_mixture_writes_the_sorted_two_space_text(self, tmp_path):
        m = self.build()
        path = tmp_path / "mix.json"
        save_mixture(m, path)
        expected = json.dumps(mixture_to_dict(m), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected


@dataclass(frozen=True)
class _Inner:
    perm: Permutation
    grid: np.ndarray


@dataclass(frozen=True)
class _Outer:
    zeta: tuple
    inner: _Inner
    alpha: float | None


def test_json_text_of_a_nested_result():
    obj = {
        "b": _Outer(
            (1, math.nan, math.inf),
            _Inner(Permutation((2, 3, 1)), np.array([[1.5, -math.inf], [0.25, 2.0]])),
            None,
        ),
        "a": -math.inf,
    }
    assert _json_text(obj) == (
        "{\n"
        '  "a": null,\n'
        '  "b": {\n'
        '    "alpha": null,\n'
        '    "inner": {\n'
        '      "grid": [\n'
        "        [\n"
        "          1.5,\n"
        "          null\n"
        "        ],\n"
        "        [\n"
        "          0.25,\n"
        "          2.0\n"
        "        ]\n"
        "      ],\n"
        '      "perm": [\n'
        "        2,\n"
        "        3,\n"
        "        1\n"
        "      ]\n"
        "    },\n"
        '    "zeta": [\n'
        "      1,\n"
        "      null,\n"
        "      null\n"
        "    ]\n"
        "  }\n"
        "}\n"
    )


def _plain(obj):
    """obj as the JSON values _json_text writes: the oracle's conversions."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, Permutation):
        return list(obj.to_region)
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    return obj


def _dumps_text(obj) -> str:
    """The writer's oracle: json.dumps of obj's plain values."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


@dataclass
class _Pair:
    first: object
    second: object


_SPECIAL_FLOATS = [-0.0, 0.0, 1e-05, 1e-07, 1e16, 1e22, 0.1, -2.5e-300, math.nan, math.inf, -math.inf]
_JSON_TEXT = st.text() | st.text(st.characters(max_codepoint=0x2FF)) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/', "\u2028\u00e9", "\U0001F600", "\ud800"]
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats().map(np.float64),
    _JSON_TEXT,
    st.permutations(range(1, 5)).map(lambda p: Permutation(tuple(p))),
    st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS), max_size=4).map(np.array),
    st.lists(st.floats(), min_size=6, max_size=6).map(lambda v: np.reshape(v, (2, 3))),
    st.lists(st.integers(-(2**62), 2**62), max_size=3).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=3).map(np.array),
    st.floats().map(np.array),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_text_equals_json_dumps_of_the_plain_values(obj):
    assert _json_text(obj) == _dumps_text(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2},
        [np.int64(3)],
        {"a": np.float32(1.0)},
        np.array([1j]),
        np.bool_(True),
        {"a": 1, 2: 3},
        _Pair(object(), 1),
    ],
    ids=["set", "np-int", "np-float32", "complex", "np-bool", "mixed-keys", "object-field"],
)
def test_json_text_raises_what_json_dumps_raises(obj):
    with pytest.raises(Exception) as expected:
        _dumps_text(obj)
    with pytest.raises(expected.type) as got:
        _json_text(obj)
    assert str(got.value) == str(expected.value)


# json.dumps converts int, float, bool and None keys to strings; the writer
# converts none, since no file it writes has one.
@pytest.mark.parametrize(
    "key",
    [(1, 2), math.nan, np.float64(-math.inf), 1, 2.5, True, None, np.int64(3), b"a"],
    ids=["tuple-key", "nan-key", "inf-key", "int-key", "float-key", "bool-key", "none-key",
         "np-int-key", "bytes-key"],
)
def test_json_text_refuses_a_key_that_is_not_a_str(key):
    message = f"^keys must be str, not {type(key).__name__}$"
    for obj in ({key: 1}, [{"a": {key: [1.5]}}]):
        with pytest.raises(TypeError, match=message):
            _json_text(obj)
