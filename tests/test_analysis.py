import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, linprog
from scipy.stats import norm

from permlearn import (
    ComponentDensity,
    Gaussian,
    GaussianMixture,
    KernelDensity,
    MixingMeasure,
    Permutation,
    chernoff_exponent,
    chernoff_exponent_from_scores,
    estimate_gaps,
    greedy_estimate,
    min_count_probability,
    misclassification_rate,
    mixture_from_dict,
    mixture_to_dict,
    mle_estimate,
    mle_recovery_bound,
    mv_estimate,
    mv_recovery_bound,
    perturb_mixture,
    required_sample_size,
    sample_labeled,
    tv_distance,
    wasserstein1,
)
from permlearn import matching
from permlearn.analysis import bounds, transport
from permlearn.analysis.bounds import (
    ESS_FLOOR,
    _effective_sample_sizes,
    _largest_stable_tilt,
)
from permlearn.analysis.transport import MAX_ATOMS, _optimal_coupling
from permlearn.mixtures import _json_text


def two_atom(mu, weights=(0.5, 0.5)):
    return MixingMeasure(
        list(weights), [Gaussian([-mu], [[1.0]]), Gaussian([mu], [[1.0]])]
    )


def gaussian_tv(m1, m2, sigma=1.0):
    """Closed-form total variation between equal-variance 1-d Gaussians."""
    return 2.0 * norm.cdf(abs(m1 - m2) / (2.0 * sigma)) - 1.0


def trapezoid_tv(f, g, points=1_000_001, chunk=200_000):
    """TV by the trapezoid rule on the atoms' own densities over both envelopes."""
    lo = min(f.envelope_1d()[0], g.envelope_1d()[0])
    hi = max(f.envelope_1d()[1], g.envelope_1d()[1])
    x = np.linspace(lo, hi, points)
    total = 0.0
    for start in range(0, points - 1, chunk):
        xs = x[start : start + chunk + 1, np.newaxis]
        total += np.trapezoid(np.abs(f.density(xs) - g.density(xs)), xs[:, 0])
    return 0.5 * total


def quad_tv(f, g):
    """TV by scipy's ``quad``, and half its error estimate: an oracle for the
    1-d rule.

    f - g is the signed sum of the atoms' Gaussian parts. Breakpoints sit at
    each part's centre and 8 of its standard deviations either side, so no
    part is narrower than the pieces around it, and at the sign changes of
    f - g on a grid that also resolves every part, so |f - g| is smooth on
    each piece. quad integrates each piece in the offset from the part centre
    nearest to it: near x = 6, x itself rounds by 1e-7 of the standard
    deviation of a part 1e-8 wide, which moved such a part's integral by
    1.5e-8 of its weight.
    """
    parts = [transport._gaussian_parts(d) for d in (f, g)]
    w = np.concatenate([parts[0][0], -parts[1][0]])
    mu = np.concatenate([parts[0][1], parts[1][1]])
    sd = np.concatenate([parts[0][2], parts[1][2]])
    coef = w / (sd * math.sqrt(2.0 * math.pi))

    def h(u, shift=-mu):
        z = np.add.outer(u, shift) / sd
        return (coef * np.exp(-0.5 * z * z)).sum(axis=-1)

    lo = min(f.envelope_1d()[0], g.envelope_1d()[0])
    hi = max(f.envelope_1d()[1], g.envelope_1d()[1])
    local = (mu[:, np.newaxis] + sd[:, np.newaxis] * np.linspace(-12, 12, 241)).ravel()
    grid = np.unique(np.clip(np.concatenate([np.linspace(lo, hi, 4001), local]), lo, hi))
    values = h(grid)
    roots = [
        brentq(h, grid[k], grid[k + 1]) for k in np.flatnonzero(values[:-1] * values[1:] < 0.0)
    ]
    graded = (mu[:, np.newaxis] + sd[:, np.newaxis] * np.array([-8.0, 0.0, 8.0])).ravel()
    points = np.unique(np.clip(np.concatenate([roots, graded, [lo, hi]]), lo, hi))
    total = err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        centre = mu[np.argmin(np.abs(mu - 0.5 * (a + b)))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            piece, piece_err = quad(
                lambda u: abs(h(u, centre - mu)), a - centre, b - centre,
                epsabs=1e-14, epsrel=1e-13,
            )
        total, err = total + piece, err + piece_err
    return 0.5 * total, 0.5 * err


def jittered_kde_pair(seed):
    """Two KDEs (h = 0.3) of 50 normal quantiles, each shifted and jittered."""
    rng = np.random.default_rng(seed)
    quantiles = norm.ppf((np.arange(50) + 0.5) / 50)
    return [
        KernelDensity(shift + quantiles + rng.normal(0.0, 0.05, 50), 0.3)
        for shift in rng.uniform(-3.0, 3.0, 2)
    ]


@st.composite
def tv_pairs(draw):
    """A 1-d Gaussian mixture, at times with a spike 1e-2 to 1e-8 wide, and a
    Gaussian, a Gaussian mixture or a KDE."""
    unit = st.floats(0.0, 1.0)

    def weights(n):
        w = np.array([0.1 + draw(unit) for _ in range(n)])
        return w / w.sum()

    def parts(n, lo, hi):
        # n Gaussians centred in [-4, 4] with standard deviations in [lo, hi]
        sds = [lo + (hi - lo) * draw(unit) for _ in range(n)]
        return [Gaussian([-4.0 + 8.0 * draw(unit)], [[sd * sd]]) for sd in sds]

    f_parts = parts(draw(st.integers(1, 5)), 0.04, 2.0)
    if draw(st.booleans()):
        sd = 10.0 ** -draw(st.floats(2.0, 8.0))
        f_parts.append(Gaussian([-6.0 + 12.0 * draw(unit)], [[sd * sd]]))
    f = GaussianMixture(weights(len(f_parts)), f_parts)
    kind = draw(st.sampled_from(["gaussian", "mixture", "kde"]))
    if kind == "kde":
        points = [[-3.0 + 6.0 * draw(unit)] for _ in range(draw(st.integers(2, 20)))]
        g = KernelDensity(points, 0.04 + 0.96 * draw(unit))
    else:
        g_parts = parts(draw(st.integers(1, 1 if kind == "gaussian" else 5)), 0.1, 2.0)
        g = g_parts[0] if kind == "gaussian" else GaussianMixture(weights(len(g_parts)), g_parts)
    return f, g


class TestChernoffExponent:
    def test_gaussian_closed_form(self):
        # for N(mu, sigma^2) the centered exponent at t is t^2 / (2 sigma^2)
        u = np.random.default_rng(7).normal(3.0, 2.0, 200_000)
        for t in (0.5, 1.0, 2.0):
            est = chernoff_exponent_from_scores(u, t)
            assert not est.diverged
            assert est.value == pytest.approx(t * t / 8.0, rel=0.05)

    def test_bernoulli_closed_form(self):
        # KL(p + t || p) is the exact rate for a centered Bernoulli(p)
        p, t = 0.3, 0.2
        u = (np.random.default_rng(1).random(400_000) < p).astype(float)
        q = p + t
        oracle = q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))
        est = chernoff_exponent_from_scores(u, t)
        assert est.value == pytest.approx(oracle, rel=0.05)

    def test_zero_margin_is_exactly_zero(self):
        est = chernoff_exponent_from_scores(np.array([1.0, 2.0, 3.0]), 0.0)
        assert est.value == 0.0
        assert not est.diverged

    def test_constant_scores_diverge(self):
        est = chernoff_exponent_from_scores(np.full(500, 4.2), 0.7)
        assert math.isinf(est.value)
        assert est.diverged

    def test_too_few_samples_report_divergence(self):
        est = chernoff_exponent_from_scores(np.random.default_rng(0).normal(size=10), 1.0)
        assert est.value == 0.0
        assert est.diverged

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chernoff_exponent_from_scores(np.array([1.0, np.nan]), 0.5)
        with pytest.raises(ValueError):
            chernoff_exponent_from_scores(np.array([1.0, 2.0]), -0.5)

    def test_from_measure(self):
        m = two_atom(2.0)
        est = chernoff_exponent(m, atom=1, t=0.5, samples=50_000, seed=3)
        assert est.value > 0.0
        assert est.samples_used == 50_000
        with pytest.raises(ValueError, match="atom"):
            chernoff_exponent(m, atom=3, t=0.5)


def nested_measure():
    """Three 2-d atoms, each an unequal mixture of three Gaussian parts."""
    atoms = []
    for j, centre in enumerate(([0.0, 0.0], [3.0, 0.5], [1.0, 3.0])):
        parts = [
            Gaussian(np.add(centre, off), (0.3 + 0.1 * j) * np.eye(2))
            for off in ([0.0, 0.0], [0.8, -0.4], [-0.5, 0.6])
        ]
        atoms.append(GaussianMixture([0.5, 0.3, 0.2], parts))
    return MixingMeasure([0.3, 0.3, 0.4], atoms)


CHERNOFF_MEASURES = {
    "gaussian": lambda: MixingMeasure(
        [0.3, 0.7],
        [Gaussian([0.0, 0.0], np.eye(2)), Gaussian([1.5, -1.0], [[1.0, 0.3], [0.3, 0.5]])],
    ),
    "nested_mixture": nested_measure,
    "kde": lambda: MixingMeasure([0.45, 0.55], jittered_kde_pair(4)),
}


def full_grid_tilt(grid, v, floor, ess=None):
    """The largest stable tilt from ESS on every grid row at once.

    ``ess`` passes in that full-grid ESS when it is already computed.
    """
    if ess is None:
        ess = _effective_sample_sizes(grid[:, np.newaxis] * v[np.newaxis, :])
    stable = grid[ess >= floor]
    return float(stable.max()) if stable.size else None


def centred_grid(u):
    v = u - u.mean()
    return np.geomspace(1e-3, 1e3, bounds._GRID_POINTS) / float(v.std()), v


class TestChernoffScan:
    @pytest.mark.parametrize("kind", sorted(CHERNOFF_MEASURES))
    def test_equals_the_estimate_from_the_log_scores_column(self, kind):
        m = CHERNOFF_MEASURES[kind]()
        for atom in range(1, m.n_atoms + 1):
            seed = 40 + atom
            est = chernoff_exponent(m, atom, 0.05, samples=20_000, seed=seed)
            x = sample_labeled(
                m, Permutation.identity(m.n_atoms), 20_000, np.random.default_rng(seed)
            ).x
            ref = chernoff_exponent_from_scores(m.log_scores(x)[:, atom - 1], 0.05, seed=seed)
            assert est.value == ref.value and est.s_star == ref.s_star
            assert est == ref
            assert est.value > 0.0 and not est.diverged

    def test_scores_only_the_requested_atom(self, monkeypatch):
        m = nested_measure()
        called = []
        for cls in (Gaussian, GaussianMixture, KernelDensity):
            original = cls.log_density

            def recorder(self, x, _original=original):
                called.append(self)
                return _original(self, x)

            monkeypatch.setattr(cls, "log_density", recorder)

        def no_log_scores(self, x):
            raise AssertionError("chernoff_exponent scored every atom")

        monkeypatch.setattr(MixingMeasure, "log_scores", no_log_scores)
        atom = m.components[1]
        chernoff_exponent(m, 2, 0.05, samples=5_000, seed=3)
        assert called[0] is atom
        assert len(called) == 1 + len(atom.parts)
        assert all(c is p for c, p in zip(called[1:], atom.parts))

    @pytest.mark.parametrize("n", [2, 7, 49])
    def test_fewer_samples_than_the_floor_diverge_like_the_full_grid(self, n):
        u = np.random.default_rng(n).standard_t(2.0, n)
        grid, v = centred_grid(u)
        floor = min(ESS_FLOOR, n)
        assert full_grid_tilt(grid, v, floor) is None
        assert _largest_stable_tilt(grid, v, floor) is None
        est = chernoff_exponent_from_scores(u, 0.5)
        assert est.diverged and est.value == 0.0

    def test_all_unstable_grid_matches_the_full_grid(self):
        grid, v = centred_grid(np.random.default_rng(1).pareto(1.2, 5_000))
        assert full_grid_tilt(grid, v, 5_000.0) is None
        assert _largest_stable_tilt(grid, v, 5_000.0) is None

    def test_crossings_on_block_edges_match_the_full_grid(self):
        # every row is a scan step; heavy tails spread the ESS fall over many
        # rows, and a floor equal to one row's ESS puts the crossing exactly
        # there when later rows fall below
        grid, v = centred_grid(np.random.default_rng(2).pareto(1.5, 20_000))
        ess = _effective_sample_sizes(grid[:, np.newaxis] * v[np.newaxis, :])
        crossing = [r for r in range(grid.size - 1) if ess[r] > ess[r + 1 :].max()]
        assert len(crossing) >= 8
        for r in range(grid.size):
            for floor in (ess[r], np.nextafter(ess[r], np.inf)):
                want = full_grid_tilt(grid, v, floor, ess)
                assert _largest_stable_tilt(grid, v, floor) == want
        for r in crossing:
            assert full_grid_tilt(grid, v, ess[r], ess) == grid[r]

    def test_a_stable_top_tilt_costs_one_ess_row(self, monkeypatch):
        # a Gaussian log score has a bounded upper tail, so its top tilt keeps
        # enough effective samples and the scan stops there
        u = -np.random.default_rng(6).exponential(1.0, 100_000)
        shapes = []
        original = bounds._effective_sample_sizes

        def recorder(log_w):
            shapes.append(log_w.shape)
            return original(log_w)

        monkeypatch.setattr(bounds, "_effective_sample_sizes", recorder)
        grid, v = centred_grid(u)
        assert _largest_stable_tilt(grid, v, ESS_FLOOR) == grid[-1]
        assert shapes == [(1, u.size)]
        shapes.clear()
        est = chernoff_exponent_from_scores(u, 0.5)
        assert not est.diverged
        assert shapes == [(1, u.size)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.8, 1.5, 3.0, 30.0]),
        st.integers(2, 400),
        st.floats(1.0, 400.0),
    )
    def test_scan_equals_the_full_grid(self, seed, tail, n, floor):
        u = np.random.default_rng(seed).pareto(tail, n)
        if u.std() == 0.0:
            return
        grid, v = centred_grid(u)
        assert _largest_stable_tilt(grid, v, floor) == full_grid_tilt(grid, v, floor)


class TestRecoveryBounds:
    def test_mle_bound_values(self):
        # 1 - 2 k^2 exp(-min_n * beta)
        val = mle_recovery_bound(2, [50, 60], 0.3)
        assert val == pytest.approx(1.0 - 8.0 * math.exp(-15.0))
        assert mle_recovery_bound(3, [10], math.inf) == 1.0
        assert mle_recovery_bound(3, [10, 0], 0.5) == 0.0
        assert mle_recovery_bound(4, [1, 1], 0.0) == 0.0

    def test_mv_bound_values(self):
        val = mv_recovery_bound(2, [200, 300], 0.5)
        assert val == pytest.approx(1.0 - 8.0 * math.exp(-2.0 * 0.25 * 200.0 / 9.0))
        assert mv_recovery_bound(4, [5] * 4, 0.0) == 0.0
        with pytest.raises(ValueError):
            mv_recovery_bound(2, [10, 10], 1.5)

    def test_bounds_clamped_to_unit_interval(self):
        assert 0.0 <= mle_recovery_bound(10, [1] * 10, 1e-9) <= 1.0
        assert 0.0 <= mv_recovery_bound(10, [1] * 10, 1e-6) <= 1.0

    @pytest.mark.parametrize(
        "k,delta,method,value,expected",
        [
            (4, 0.05, "mv", 0.3, 3524),
            (2, 0.5, "mv", 1.0, 53),
        ],
    )
    def test_required_n_worked_examples(self, k, delta, method, value, expected):
        assert required_sample_size(k, delta, method, value) == expected

    def test_required_n_mle_formula(self):
        n = required_sample_size(3, 0.1, "mle", 0.25)
        assert n == math.ceil(3 * math.log(30) * (1 + 16.0))

    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=1e-6, max_value=0.999),
        st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_required_n_dominates_k(self, k, delta, margin):
        for method, value in (("mv", margin), ("mle", margin * 10)):
            n = required_sample_size(k, delta, method, value)
            assert n >= 1
            assert n >= k * math.log(k / delta)

    def test_required_n_monotone_in_difficulty(self):
        easier = required_sample_size(4, 0.1, "mv", 0.8)
        harder = required_sample_size(4, 0.1, "mv", 0.2)
        assert harder > easier
        assert required_sample_size(4, 0.01, "mv", 0.5) > required_sample_size(
            4, 0.2, "mv", 0.5
        )

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            required_sample_size(0, 0.1, "mv", 0.5)
        with pytest.raises(ValueError):
            required_sample_size(3, 1.5, "mv", 0.5)
        with pytest.raises(ValueError):
            required_sample_size(3, 0.1, "mv", 0.0)
        with pytest.raises(ValueError):
            required_sample_size(3, 0.1, "nope", 0.5)


class TestMinCountProbability:
    def test_formula_value(self):
        n, p, m = 200, np.array([0.3, 0.3, 0.4]), 40
        expect = n * p
        terms = np.exp(-2.0 * (expect - m) ** 2 / expect)
        assert min_count_probability(n, p, m) == pytest.approx(1.0 - terms.sum())

    def test_unreachable_count_contributes_full_unit(self):
        # class with n p_k <= m gives no guarantee at all
        assert min_count_probability(10, [0.5, 0.5], 5) == 0.0
        assert min_count_probability(100, [0.01, 0.99], 2) == 0.0

    def test_monte_carlo_never_below_bound(self):
        rng = np.random.default_rng(0)
        n, p, m = 300, np.array([0.25, 0.35, 0.4]), 40
        bound = min_count_probability(n, p, m)
        draws = rng.multinomial(n, p, size=20_000)
        freq = (draws.min(axis=1) >= m).mean()
        assert freq >= bound - 0.01
        assert 0.0 <= bound <= 1.0

    def test_rejects_non_probabilities(self):
        with pytest.raises(ValueError):
            min_count_probability(10, [0.5, 0.6], 1)
        with pytest.raises(ValueError):
            min_count_probability(10, [-0.5, 1.5], 1)


class TestGapEstimates:
    def test_symmetric_pair_closed_forms(self):
        # two unit Gaussians at +-mu: the vote margin is P(|Z| < mu) and the
        # likelihood margin is 2 mu^2
        mu = 1.0
        m = two_atom(mu)
        rep = estimate_gaps(m, m, Permutation.identity(2), samples=200_000, seed=11)
        assert rep.mv_gap == pytest.approx(norm.cdf(mu) - norm.cdf(-mu), abs=rep.mv_half_width)
        assert rep.mle_gap == pytest.approx(2.0 * mu * mu, abs=rep.mle_half_width)
        assert rep.samples_used == 200_000
        assert rep.empty_regions == ()

    def test_mv_gap_is_min_of_margins(self):
        m = MixingMeasure(
            [0.3, 0.3, 0.4],
            [Gaussian([0.0], [[1.0]]), Gaussian([2.0], [[1.0]]), Gaussian([5.0], [[1.0]])],
        )
        rep = estimate_gaps(m, m, Permutation.identity(3), samples=50_000, seed=2, which={"mv"})
        assert rep.mv_gap == pytest.approx(min(rep.region_margins))
        assert rep.mle_gap is None

    def test_empty_region_marks_gap_undefined(self):
        truth = two_atom(0.5)
        model = MixingMeasure(
            [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([80.0], [[1.0]])]
        )
        rep = estimate_gaps(
            model, truth, Permutation.identity(2), samples=2000, seed=0, which={"mv"}
        )
        assert rep.empty_regions == (2,)
        assert math.isnan(rep.mv_gap)
        assert math.isnan(rep.region_margins[1])
        d = json.loads(_json_text(rep))
        assert d["mv_gap"] is None
        assert d["region_margins"][1] is None

    def test_misassigned_model_has_negative_gap(self):
        truth = two_atom(1.0)
        swapped = MixingMeasure(
            [0.5, 0.5], [Gaussian([1.0], [[1.0]]), Gaussian([-1.0], [[1.0]])]
        )
        rep = estimate_gaps(
            swapped, truth, Permutation.identity(2), samples=50_000, seed=4, which={"mle"}
        )
        assert rep.mle_gap < 0
        assert rep.mv_gap is None

    def test_validates_shapes(self):
        m2, m3 = two_atom(1.0), MixingMeasure(
            [1.0], [Gaussian([0.0], [[1.0]])]
        )
        with pytest.raises(ValueError):
            estimate_gaps(m3, m2, Permutation.identity(2))
        with pytest.raises(ValueError):
            estimate_gaps(m2, m2, Permutation.identity(3))
        with pytest.raises(ValueError):
            estimate_gaps(m2, m2, Permutation.identity(2), which=set())

    @pytest.mark.parametrize("which", [{"mle", "mv"}, {"mle"}, {"mv"}], ids=["mle-mv", "mle", "mv"])
    def test_one_atom_has_no_wrong_assignment(self, which):
        one = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        with pytest.raises(ValueError, match="gaps need K >= 2 atoms"):
            estimate_gaps(one, one, Permutation.identity(1), samples=100, seed=0, which=which)


class TestTvDistance:
    @pytest.mark.parametrize("delta", [0.25, 1.0, 3.0])
    def test_quadrature_matches_closed_form(self, delta):
        est = tv_distance(Gaussian([0.0], [[1.0]]), Gaussian([delta], [[1.0]]))
        assert est.method == "quadrature"
        assert est.value == pytest.approx(gaussian_tv(0.0, delta), abs=1e-9)

    def test_mc_matches_closed_form_in_2d(self):
        f = Gaussian([0.0, 0.0], np.eye(2))
        g = Gaussian([1.5, 0.0], np.eye(2))
        est = tv_distance(f, g, mc_samples=400_000, seed=9)
        assert est.method == "mc"
        assert est.value == pytest.approx(gaussian_tv(0.0, 1.5), abs=max(est.half_width, 3e-3))

    def test_identical_densities(self):
        g = Gaussian([0.5], [[2.0]])
        assert tv_distance(g, g).value == pytest.approx(0.0, abs=1e-12)

    def test_identical_mixture_and_kde_atoms_are_exactly_zero(self):
        mix = GaussianMixture([0.3, 0.7], [Gaussian([-1.0], [[0.5]]), Gaussian([2.0], [[1.5]])])
        kde = jittered_kde_pair(2)[0]
        for atom in (mix, kde):
            assert tv_distance(atom, atom).value == 0.0
            measure = MixingMeasure([0.4, 0.6], [atom, Gaussian([0.0], [[1.0]])])
            assert wasserstein1(measure, measure)[0] == 0.0

    def test_unequal_variance_gaussians_match_trapezoid(self):
        f = Gaussian([1.5472250586387055], [[1.9836064922952248]])
        g = Gaussian([-0.7544585173559542], [[1.97944657187744]])
        est = tv_distance(f, g)
        assert est.value == pytest.approx(trapezoid_tv(f, g), abs=1e-9)
        assert est.half_width == 0.0

    def test_narrow_far_peak_is_not_missed(self):
        f = GaussianMixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([7.3], [[1e-4]])])
        g = Gaussian([0.0], [[1.0]])
        assert tv_distance(f, g).value == pytest.approx(trapezoid_tv(f, g), abs=1e-9)
        assert tv_distance(g, f).value == pytest.approx(0.5, abs=1e-9)

    # quad's first rule on a subinterval ~1e3 times longer than a spike at its
    # end never sees it; a window of its own, integrated in the offset from
    # its centre, gets it right to rounding. At 50 the spike is the outermost
    # centre, ten of its standard deviations from the envelope's end.
    @pytest.mark.parametrize("centre", [7.3, 50.0])
    @pytest.mark.parametrize("sd", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_narrow_far_peak_of_any_width(self, sd, centre):
        f = GaussianMixture([0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([centre], [[sd * sd]])])
        g = Gaussian([0.0], [[1.0]])
        for est in (tv_distance(f, g), tv_distance(g, f)):
            assert est.value == pytest.approx(0.5, abs=1e-9)
            assert est.half_width < 1e-8

    def test_narrow_peaks_sharing_or_splitting_centres(self):
        g = Gaussian([0.0], [[1.0]])
        spikes = [
            [Gaussian([7.3], [[1e-12]]), Gaussian([7.3], [[1e-6]])],
            [Gaussian([7.3], [[1e-12]]), Gaussian([-6.1], [[1e-10]])],
            [Gaussian([50.0], [[1e-12]]), Gaussian([50.0 + 3e-6], [[1e-12]])],
            # thinned onto the narrower spike's centre, 5e-9 below or above
            [Gaussian([7.3], [[1e-16]]), Gaussian([7.3 + 5e-9], [[1e-12]])],
            [Gaussian([7.3], [[1e-16]]), Gaussian([7.3 - 5e-9], [[1e-12]])],
            [Gaussian([50.0], [[1e-16]]), Gaussian([50.0 + 5e-9], [[1e-6]])],
        ]
        for pair in spikes:
            est = tv_distance(GaussianMixture([0.5, 0.25, 0.25], [g, *pair]), g)
            assert est.value == pytest.approx(0.5, abs=1e-9)
            assert est.half_width < 1e-8
        # the same spike on both sides at two widths: half the Gaussian TV
        f = GaussianMixture([0.5, 0.5], [g, Gaussian([7.3], [[1e-12]])])
        h = GaussianMixture([0.5, 0.5], [g, Gaussian([7.3], [[4e-12]])])
        est = tv_distance(f, h)
        unit = tv_distance(g, Gaussian([0.0], [[4.0]])).value
        assert est.value == pytest.approx(0.5 * unit, abs=max(est.half_width, 1e-9))

    def test_pairs_without_a_narrow_part_keep_one_centre_partition(self, monkeypatch):
        calls, original = [], transport._integrate_abs

        def counted(fn, a, b, points):
            calls.append((a, b, points))
            return original(fn, a, b, points)

        monkeypatch.setattr(transport, "_integrate_abs", counted)
        mix = GaussianMixture([0.3, 0.7], [Gaussian([-1.0], [[0.5]]), Gaussian([2.0], [[1.5]])])
        for f, g in [jittered_kde_pair(16), (mix, Gaussian([0.4], [[0.8]]))]:
            calls.clear()
            tv_distance(f, g)
            w_f, mu_f, sd_f = transport._gaussian_parts(f)
            w_g, mu_g, sd_g = transport._gaussian_parts(g)
            sds = np.concatenate([sd_f, sd_g])
            points = transport._breakpoints(np.concatenate([mu_f, mu_g]), float(sds.min()))
            lo = min(f.envelope_1d()[0], g.envelope_1d()[0])
            hi = max(f.envelope_1d()[1], g.envelope_1d()[1])
            assert calls == [(lo, hi, points)]

    # A 20-point KDE with h in [0.04, 0.08] against a 5-part mixture: quad
    # spent its whole subinterval limit on 15 of these 30 pairs and warned,
    # since |f - g| has a kink at each of its many roots.
    def test_narrow_bandwidth_kde_pairs_converge_without_warning(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            kde = KernelDensity(rng.normal(0.0, 1.0, (20, 1)), rng.uniform(0.04, 0.08))
            means, sds = rng.uniform(-2.0, 2.0, 5), rng.uniform(0.2, 1.0, 5)
            parts = [Gaussian([m], [[s * s]]) for m, s in zip(means, sds)]
            mix = GaussianMixture(rng.dirichlet(np.ones(5)), parts)
            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                est = tv_distance(kde, mix)
            value, half_width = quad_tv(kde, mix)
            assert abs(est.value - value) <= est.half_width + half_width

    # Two roots of f - g between neighbouring nodes leave no sign change among
    # them, so neither the integral nor the sign-change partition sees the
    # dip of f - g through 0 between them: quad's value read 3.9e-5 low here,
    # with a half-width of 5e-11.
    def test_a_dip_through_zero_between_two_nodes_is_not_missed(self):
        points = [-0.99, -0.73, 0.35, -0.15, 1.77, -0.4, 0.28, -0.44]
        kde = KernelDensity(np.array(points)[:, np.newaxis], 0.067)
        mix = GaussianMixture(
            [0.5, 0.5], [Gaussian([0.38], [[0.75**2]]), Gaussian([0.78], [[0.91**2]])]
        )
        value, half_width = quad_tv(kde, mix)
        for est in (tv_distance(kde, mix), tv_distance(mix, kde)):
            assert est.value == pytest.approx(value, abs=1e-12 + half_width)

    @settings(max_examples=40, deadline=None)
    @given(tv_pairs())
    def test_agrees_with_quad_and_is_symmetric(self, pair):
        f, g = pair
        est, swapped = tv_distance(f, g), tv_distance(g, f)
        value, half_width = quad_tv(f, g)
        assert abs(est.value - value) <= max(1e-9, est.half_width + half_width)
        assert 0.0 <= est.value <= 1.0
        assert abs(est.value - swapped.value) <= 1e-9

    def test_the_subinterval_cap_warns_and_the_half_width_covers_the_error(self, monkeypatch):
        monkeypatch.setattr(transport, "_LIMIT", 2)
        for seed in (16, 173):
            f, g = jittered_kde_pair(seed)
            with pytest.warns(IntegrationWarning, match="limit of"):
                est = tv_distance(f, g)
            value, half_width = quad_tv(f, g)
            assert est.half_width > 1e-9
            assert abs(est.value - value) <= est.half_width + half_width

    # Integrating |f - g| from the atoms' log densities without breakpoints
    # errs by 5e-7 on seed 173. On seed 16, the breakpointed quad without the
    # sign-change partition errs by 1e-8: a kink of |f - g| sits next to a
    # subinterval end.
    @pytest.mark.parametrize("seed", [16, 173])
    def test_jittered_kde_pairs_match_trapezoid(self, seed):
        f, g = jittered_kde_pair(seed)
        assert tv_distance(f, g).value == pytest.approx(trapezoid_tv(f, g), abs=1e-9)

    def test_far_apart_saturates(self):
        est = tv_distance(Gaussian([0.0], [[1.0]]), Gaussian([100.0], [[1.0]]))
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_quadrature_needs_gaussian_parts(self):
        class Laplace(ComponentDensity):
            dim = 1

            def log_density(self, x):
                return -np.abs(np.asarray(x, dtype=float)).ravel() - math.log(2.0)

            def envelope_1d(self):
                return -40.0, 40.0

        with pytest.raises(ValueError, match="method='mc'"):
            tv_distance(Laplace(), Gaussian([0.0], [[1.0]]))

    def test_quadrature_refused_beyond_1d(self):
        f = Gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="one dimension"):
            tv_distance(f, f, method="quadrature")


class TestTransportationSimplex:
    """``_optimal_coupling``: the transportation simplex behind ``wasserstein1``.

    With uniform weights and m = n an optimal plan is a permutation matrix / n
    (Birkhoff), so brute force over permutations gives the optimum. With cost
    |x_i - y_j| the optimum is the 1-d Wasserstein distance, the integral of
    |F - G| between the two CDFs. Up to 64 x 64, HiGHS (scipy's ``linprog``,
    used only here) solves the same linear program as an oracle.
    """

    @pytest.mark.parametrize("trial", range(20))
    def test_agrees_with_lp_oracle(self, trial):
        rng = np.random.default_rng(trial)
        if trial % 2 == 0:
            m = n = int(rng.integers(2, 7))
            cost = rng.uniform(0.0, 1.0, (m, n))
            supply = demand = np.full(n, 1.0 / n)
            best = min(
                cost[np.arange(n), list(p)].sum() for p in itertools.permutations(range(n))
            ) / n
        else:
            m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            xs, ys = rng.uniform(-2.0, 2.0, m), rng.uniform(-2.0, 2.0, n)
            cost = np.abs(xs[:, np.newaxis] - ys[np.newaxis, :])
            supply = rng.uniform(0.1, 1.0, m)
            supply /= supply.sum()
            demand = rng.uniform(0.1, 1.0, n)
            demand /= demand.sum()
            grid = np.sort(np.concatenate([xs, ys]))
            cdf_gap = [
                supply[xs <= t].sum() - demand[ys <= t].sum() for t in grid[:-1]
            ]
            best = float(np.abs(cdf_gap) @ np.diff(grid))
        plan, total = _optimal_coupling(cost, supply, demand)
        assert total == pytest.approx(best, abs=1e-10)
        np.testing.assert_allclose(plan.sum(axis=1), supply, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), demand, atol=1e-9)
        assert plan.min() >= -1e-12

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (4, 1)])
    def test_single_row_or_column_has_one_plan(self, m, n):
        # every unit of a lone atom's mass must go to (or come from) the others
        rng = np.random.default_rng(10 * m + n)
        cost = rng.uniform(0.0, 1.0, (m, n))
        supply = rng.uniform(0.1, 1.0, m)
        supply /= supply.sum()
        demand = rng.uniform(0.1, 1.0, n)
        demand /= demand.sum()
        plan, total = _optimal_coupling(cost, supply, demand)
        np.testing.assert_allclose(plan.sum(axis=1), supply, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), demand, atol=1e-12)
        assert total == pytest.approx(float((plan * cost).sum()), abs=1e-15)
        expected = cost @ demand if m == 1 else supply @ cost
        assert total == pytest.approx(float(np.sum(expected)), abs=1e-12)

    def test_single_atom_still_validates(self):
        with pytest.raises(ValueError, match="mass"):
            _optimal_coupling(np.ones((1, 2)), [1.0], [0.5, 0.6])
        with pytest.raises(ValueError, match="finite"):
            _optimal_coupling(np.array([[np.inf], [0.0]]), [0.5, 0.5], [1.0])
        with pytest.raises(ValueError, match="shape"):
            _optimal_coupling(np.ones((1, 2)), [1.0], [1.0])

    def test_degenerate_equal_masses(self):
        # exact ties everywhere: every feasible plan is optimal
        cost = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        supply = demand = np.full(3, 1.0 / 3.0)
        plan, total = _optimal_coupling(cost, supply, demand)
        assert total == pytest.approx(1.0)

    def test_rejects_mass_mismatch(self):
        with pytest.raises(ValueError, match="mass"):
            _optimal_coupling(np.ones((2, 2)), [0.7, 0.31], [0.5, 0.5])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12) | st.sampled_from([40, 64]),
        st.integers(1, 12) | st.sampled_from([40, 64]),
        st.sampled_from(["uniform", "grid", "equal", "equal_grid"]),
        st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_highs(self, m, n, kind, seed):
        # "grid" costs on a 0.1 grid tie often; "equal" masses make the
        # least-cost start exhaust a row and a column at once (zero cells)
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 1.0, (m, n))
        if kind.endswith("grid"):
            cost = np.round(cost, 1)
        if kind.startswith("equal"):
            supply, demand = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        else:
            supply, demand = rng.uniform(0.1, 1.0, m), rng.uniform(0.1, 1.0, n)
            supply, demand = supply / supply.sum(), demand / demand.sum()
        plan, total = _optimal_coupling(cost, supply, demand)
        a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
        res = linprog(
            cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([supply, demand]),
            bounds=(0.0, None), method="highs",
        )
        assert res.status == 0
        assert abs(total - float(res.x @ cost.ravel())) <= 1e-12
        np.testing.assert_allclose(plan.sum(axis=1), supply, rtol=0, atol=1e-12)
        np.testing.assert_allclose(plan.sum(axis=0), demand, rtol=0, atol=1e-12)
        assert plan.min() >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_a_measure_against_itself_costs_exactly_zero(self, k, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 1.0, k)
        atoms = [
            Gaussian([m], [[v]]) for m, v in zip(rng.uniform(-5, 5, k), rng.uniform(0.2, 3, k))
        ]
        a = MixingMeasure(weights / weights.sum(), atoms)
        value, plan = wasserstein1(a, a)
        assert value == 0.0
        assert np.array_equal(plan.matrix, np.diag(a.weights))


class TestWasserstein:
    def atoms(self, means):
        k = len(means)
        return MixingMeasure(
            np.full(k, 1.0 / k), [Gaussian([m], [[1.0]]) for m in means]
        )

    def test_identity(self):
        m = self.atoms([0.0, 3.0, 7.0])
        value, plan = wasserstein1(m, m)
        assert value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(np.diag(plan.matrix), m.weights, atol=1e-9)

    def test_symmetry(self):
        a, b = self.atoms([0.0, 3.0]), self.atoms([1.0, 2.5])
        ab, _ = wasserstein1(a, b)
        ba, _ = wasserstein1(b, a)
        assert ab == pytest.approx(ba, abs=1e-9)

    def test_invariant_to_atom_order(self):
        a = self.atoms([0.0, 3.0, 7.0])
        b = MixingMeasure(
            [1 / 3.0] * 3, [Gaussian([7.0], [[1.0]]), Gaussian([0.0], [[1.0]]), Gaussian([3.0], [[1.0]])]
        )
        value, _ = wasserstein1(a, b)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_single_atom_reduces_to_tv(self):
        a = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        b = MixingMeasure([1.0], [Gaussian([1.2], [[1.0]])])
        value, plan = wasserstein1(a, b)
        assert value == pytest.approx(gaussian_tv(0.0, 1.2), abs=1e-3)
        assert plan.matrix.shape == (1, 1)

    def test_uniform_weights_match_assignment_oracle(self):
        # with uniform weights the optimal coupling is a permutation, so the
        # distance equals the best assignment of the cost matrix / k
        rng = np.random.default_rng(5)
        for _ in range(5):
            means_a = rng.uniform(-4, 4, 4)
            means_b = rng.uniform(-4, 4, 4)
            a, b = self.atoms(means_a), self.atoms(means_b)
            value, plan = wasserstein1(a, b)
            cost = np.array(
                [[gaussian_tv(x, y) for y in means_b] for x in means_a]
            )
            best = min(
                sum(cost[i, p[i]] for i in range(4))
                for p in itertools.permutations(range(4))
            )
            assert value == pytest.approx(best / 4.0, abs=2e-3)

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ms = [self.atoms(rng.uniform(-3, 3, 3)) for _ in range(3)]
            d01, p01 = wasserstein1(ms[0], ms[1])
            d12, p12 = wasserstein1(ms[1], ms[2])
            d02, p02 = wasserstein1(ms[0], ms[2])
            slack = 3.0 * (p01.total_half_width + p12.total_half_width + p02.total_half_width)
            assert d02 <= d01 + d12 + slack + 1e-9

    def test_atom_limit(self):
        means = np.linspace(0, 100, MAX_ATOMS + 1)
        big = self.atoms(means)
        small = self.atoms([0.0])
        with pytest.raises(ValueError, match="atoms"):
            wasserstein1(big, MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])]))

    def test_dimension_mismatch(self):
        a = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        b = MixingMeasure([1.0], [Gaussian([0.0, 0.0], np.eye(2))])
        with pytest.raises(ValueError, match="dimension"):
            wasserstein1(a, b)


class TestRisk:
    def test_symmetric_two_atom_rate(self):
        mu = 1.0
        m = two_atom(mu)
        est = misclassification_rate(
            m, Permutation.identity(2), m, Permutation.identity(2),
            samples=200_000, seed=13,
        )
        assert est.rate == pytest.approx(norm.cdf(-mu), abs=est.half_width)
        assert est.excess == 0.0
        assert est.excess_half_width == 0.0

    def test_swapped_assignment_is_catastrophic(self):
        m = two_atom(1.0)
        est = misclassification_rate(
            m, Permutation((2, 1)), m, Permutation.identity(2), samples=50_000, seed=1
        )
        assert est.rate == pytest.approx(1.0 - norm.cdf(-1.0), abs=est.half_width)
        assert est.excess > 0.5

    def test_misspecified_model_pays_positive_excess(self):
        truth = two_atom(1.0)
        model = MixingMeasure(
            [0.5, 0.5], [Gaussian([-0.2], [[1.0]]), Gaussian([1.8], [[1.0]])]
        )
        est = misclassification_rate(
            model, Permutation.identity(2), truth, Permutation.identity(2),
            samples=100_000, seed=2,
        )
        assert est.excess > 0.0
        assert est.rate > est.bayes_rate

    def _count_scorings(self, monkeypatch):
        calls, original = [], MixingMeasure.log_scores

        def counted(measure, x):
            calls.append(measure)
            return original(measure, x)

        monkeypatch.setattr(MixingMeasure, "log_scores", counted)
        return calls

    def test_true_pair_classifies_once_with_the_same_estimate(self, monkeypatch):
        truth, true_perm = nested_measure(), Permutation.identity(3)
        copy = mixture_from_dict(mixture_to_dict(truth))
        # labels never change a classification but make the measures unequal,
        # so this model takes the two-classification path on the same classifier
        renamed = MixingMeasure(truth.weights, truth.components, labels=("a", "b", "c"))
        assert copy is not truth and copy == truth and renamed != truth
        calls = self._count_scorings(monkeypatch)
        once = misclassification_rate(copy, true_perm, truth, true_perm, 30_000, seed=5)
        assert len(calls) == 1 and calls[0] is copy
        twice = misclassification_rate(renamed, true_perm, truth, true_perm, 30_000, seed=5)
        assert len(calls) == 3 and calls[1] is renamed and calls[2] is truth
        assert once == twice
        assert once.excess == 0.0 and once.excess_half_width == 0.0
        assert once.rate == once.bayes_rate > 0.0

    def test_other_pairs_still_classify_under_the_truth(self, monkeypatch):
        truth, true_perm = two_atom(1.0), Permutation.identity(2)
        model = two_atom(1.2)
        swap = Permutation((2, 1))
        calls = self._count_scorings(monkeypatch)
        # a swap of the truth's own labels reuses its one scoring of the draw
        swapped = misclassification_rate(truth, swap, truth, true_perm, 5_000, seed=1)
        assert len(calls) == 1 and calls[0] is truth
        other = misclassification_rate(model, true_perm, truth, true_perm, 5_000, seed=1)
        assert len(calls) == 3 and calls[1] is model and calls[2] is truth
        assert swapped.excess > 0.5
        assert other.bayes_rate == swapped.bayes_rate

    def test_shape_validation(self):
        m = two_atom(1.0)
        single = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        with pytest.raises(ValueError):
            misclassification_rate(single, Permutation.identity(1), m, Permutation.identity(2))


def _planar_pair():
    a = MixingMeasure(
        [0.5, 0.5], [Gaussian([0.0, 0.0], np.eye(2)), Gaussian([1.5, 0.5], np.eye(2))]
    )
    b = MixingMeasure(
        [0.3, 0.7], [Gaussian([0.2, 0.0], np.eye(2)), Gaussian([1.0, 1.0], np.eye(2))]
    )
    return a, b


_SEEDED = {
    "perturb_mixture": lambda a, b, seed: tuple(
        perturb_mixture(a, seed, mean_shift_scale=0.3).components[0].mean
    ),
    "tv_distance": lambda a, b, seed: tv_distance(
        a.components[0], b.components[1], mc_samples=400, seed=seed
    ).value,
    "wasserstein1": lambda a, b, seed: wasserstein1(a, b, mc_samples=400, seed=seed)[0],
    "chernoff_exponent": lambda a, b, seed: chernoff_exponent(
        a, 1, 0.1, samples=400, seed=seed
    ).value,
}


@pytest.mark.parametrize("name", sorted(_SEEDED))
def test_a_generator_seed_is_drawn_from_not_copied(name):
    draw = _SEEDED[name]
    a, b = _planar_pair()
    assert draw(a, b, np.random.default_rng(11)) == draw(a, b, 11)
    rng = np.random.default_rng(11)
    assert draw(a, b, rng) != draw(a, b, rng)


def test_mle_gap_makes_one_runner_up_search(monkeypatch):
    truth = MixingMeasure(
        [0.3, 0.3, 0.4],
        [Gaussian([0.0], [[1.0]]), Gaussian([2.0], [[1.0]]), Gaussian([5.0], [[1.0]])],
    )
    true_perm = Permutation.identity(3)
    expected = estimate_gaps(truth, truth, true_perm, samples=5_000, seed=3, which={"mle"})
    solves = []
    original = matching.linear_sum_assignment

    def counted(cost):
        solves.append(1)
        return original(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counted)
    rep = estimate_gaps(truth, truth, true_perm, samples=5_000, seed=3, which={"mle"})
    # the optimum is the true assignment: one solve plus one per forbidden edge
    assert len(solves) == 3 + 1
    assert rep == expected


def compose(p, q):
    """The permutation k -> p(q(k))."""
    return Permutation(tuple(p.to_region[b - 1] for b in q.to_region))


def permutations(k):
    return st.permutations(range(1, k + 1)).map(Permutation)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(min_value=0.25, max_value=1.0), min_size=k, max_size=k),
            permutations(k),
            permutations(k),
            permutations(k),
        )
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_relabelling_the_atoms_moves_every_result_by_sigma(case, seed):
    # Reordering the atoms by sigma (atom j of m2 is atom sigma(j) of m) and
    # the true assignment with them (pi2 = sigma^-1 o pi) leaves the model
    # the same: the draw is the same bits, each estimated assignment moves by
    # sigma^-1, and gaps and risk read the same values with region-indexed
    # entries reordered.
    raw, pi, sigma, rho = case
    k = len(raw)
    weights = np.array(raw) / sum(raw)
    m = MixingMeasure(weights, [Gaussian([1.5 * b], [[1.0 + 0.2 * b]]) for b in range(k)])
    order = np.asarray(sigma.to_region) - 1
    m2 = MixingMeasure(weights[order], [m.components[b] for b in order])
    inv = sigma.inverse()
    pi2 = compose(inv, pi)

    data = sample_labeled(m, pi, 200, seed)
    data2 = sample_labeled(m2, pi2, 200, seed)
    assert np.array_equal(data.x, data2.x) and np.array_equal(data.y, data2.y)

    for estimate in (mle_estimate, mv_estimate, greedy_estimate):
        one, two = estimate(m, data), estimate(m2, data)
        moved = None if one.permutation is None else compose(inv, one.permutation)
        assert two.permutation == moved
        assert two.region_counts == tuple(one.region_counts[b] for b in order)
        fields = ("failure", "log_likelihood", "class_counts", "unique")
        assert [getattr(two, f) for f in fields] == [getattr(one, f) for f in fields]

    rep = estimate_gaps(m, m, pi, samples=500, seed=seed)
    expected = dataclasses.replace(
        rep,
        region_margins=tuple(rep.region_margins[b] for b in order),
        margin_half_widths=tuple(rep.margin_half_widths[b] for b in order),
        empty_regions=tuple(sorted(inv.to_region[b - 1] for b in rep.empty_regions)),
    )
    assert _json_text(estimate_gaps(m2, m2, pi2, samples=500, seed=seed)) == _json_text(expected)
    risk = misclassification_rate(m, rho, m, pi, samples=500, seed=seed)
    assert misclassification_rate(m2, compose(inv, rho), m2, pi2, samples=500, seed=seed) == risk


def _atom_1d(kind, rng):
    """A 1-d atom of the given kind with continuous random parameters."""
    centre = rng.uniform(-3.0, 3.0)
    if kind == "gaussian":
        return Gaussian([centre], [[rng.uniform(0.3, 1.5)]])
    if kind == "mixture":
        parts = [Gaussian([centre + off], [[rng.uniform(0.2, 0.8)]])
                 for off in rng.uniform(-1.0, 1.0, 2)]
        return GaussianMixture(rng.dirichlet(np.ones(2)), parts)
    return KernelDensity(centre + rng.normal(0.0, 0.7, 4), rng.uniform(0.2, 0.6))


def atom_kinds_and_order():
    kinds = st.lists(st.sampled_from(("gaussian", "mixture", "kde")), min_size=1, max_size=3)
    return kinds.flatmap(lambda ks: st.tuples(st.just(ks), permutations(len(ks))))


@given(atom_kinds_and_order(), atom_kinds_and_order(), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_relabelling_both_measures_moves_the_w1_plan_with_them(a_case, b_case, seed):
    # Atom i of a2 is atom sigma_a(i) of a, and likewise for b: the TV costs
    # are the same bits, reordered, so W1 keeps its value and the plan's rows
    # and columns move with the atoms. Continuous random parameters keep the
    # optimal plan unique.
    rng = np.random.default_rng(seed)
    measures, relabelled, orders = [], [], []
    for kinds, sigma in (a_case, b_case):
        m = MixingMeasure(rng.dirichlet(np.ones(len(kinds))), [_atom_1d(k, rng) for k in kinds])
        order = np.asarray(sigma.to_region) - 1
        measures.append(m)
        relabelled.append(MixingMeasure(m.weights[order], [m.components[b] for b in order]))
        orders.append(order)
    value, plan = wasserstein1(*measures)
    value2, plan2 = wasserstein1(*relabelled)
    rows, cols = orders
    assert abs(value2 - value) <= 1e-12
    np.testing.assert_array_equal(plan2.cost_matrix, plan.cost_matrix[np.ix_(rows, cols)])
    np.testing.assert_allclose(plan2.matrix, plan.matrix[np.ix_(rows, cols)], rtol=0, atol=1e-12)
