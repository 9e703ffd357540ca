import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq, linear_sum_assignment, linprog, minimize_scalar
from scipy.special import ndtr
from scipy.stats import binom, norm

from permlearn import (
    ExperimentSpec,
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
    run_recovery_experiment,
    sample_labeled,
    tv_distance,
    wasserstein1,
)
from permlearn import matching
from permlearn.analysis import bounds, gaps, transport
from permlearn.analysis.bounds import ESS_FLOOR, _largest_stable_tilt
from permlearn.analysis.transport import MAX_ATOMS, _optimal_coupling
from permlearn.mixtures import _EXP_DEAD, _TiltedLogSumExp, _json_text, _logsumexp


def two_atom(mu, weights=(0.5, 0.5)):
    return MixingMeasure(
        list(weights), [Gaussian([-mu], [[1.0]]), Gaussian([mu], [[1.0]])]
    )


def gaussian_tv(m1, m2, sigma=1.0):
    """Closed-form total variation between equal-variance 1-d Gaussians."""
    return 2.0 * norm.cdf(abs(m1 - m2) / (2.0 * sigma)) - 1.0


def envelope(f, g):
    """The 1-d rule's interval: 10 standard deviations beyond the outermost
    Gaussian parts of both atoms."""
    parts = [transport._gaussian_parts(d) for d in (f, g)]
    mu = np.concatenate([parts[0][1], parts[1][1]])
    sd = np.concatenate([parts[0][2], parts[1][2]])
    return float((mu - 10.0 * sd).min()), float((mu + 10.0 * sd).max())


def trapezoid_tv(f, g, points=1_000_001, chunk=200_000):
    """TV by the trapezoid rule on the atoms' own densities over both envelopes."""
    lo, hi = envelope(f, g)
    x = np.linspace(lo, hi, points)
    total = 0.0
    for start in range(0, points - 1, chunk):
        xs = x[start : start + chunk + 1, np.newaxis]
        diff = np.exp(f.log_density(xs)) - np.exp(g.log_density(xs))
        total += np.trapezoid(np.abs(diff), xs[:, 0])
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

    lo, hi = envelope(f, g)
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


def _effective_sample_sizes(log_w: np.ndarray) -> np.ndarray:
    # (sum w)^2 / sum w^2, rows = grid points
    return np.exp(2.0 * _logsumexp(log_w, axis=1) - _logsumexp(2.0 * log_w, axis=1))


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
        chernoff_exponent(m, 2, 0.05, samples=5_000, seed=3)
        assert len(called) == 1 and called[0] is m.components[1]

    @pytest.mark.parametrize("n", [2, 7, 49])
    def test_fewer_samples_than_the_floor_diverge_like_the_full_grid(self, n):
        u = np.random.default_rng(n).standard_t(2.0, n)
        grid, v = centred_grid(u)
        floor = min(ESS_FLOOR, n)
        assert full_grid_tilt(grid, v, floor) is None
        assert _largest_stable_tilt(grid, _TiltedLogSumExp(v), floor) is None
        est = chernoff_exponent_from_scores(u, 0.5)
        assert est.diverged and est.value == 0.0

    def test_all_unstable_grid_matches_the_full_grid(self):
        grid, v = centred_grid(np.random.default_rng(1).pareto(1.2, 5_000))
        assert full_grid_tilt(grid, v, 5_000.0) is None
        assert _largest_stable_tilt(grid, _TiltedLogSumExp(v), 5_000.0) is None

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
                assert _largest_stable_tilt(grid, _TiltedLogSumExp(v), floor) == want
        for r in crossing:
            assert full_grid_tilt(grid, v, ess[r], ess) == grid[r]

    def test_a_stable_top_tilt_costs_one_ess_row(self, monkeypatch):
        # a Gaussian log score has a bounded upper tail, so its top tilt keeps
        # enough effective samples and the scan stops there
        u = -np.random.default_rng(6).exponential(1.0, 100_000)
        tilts = []
        original = _TiltedLogSumExp.ess

        def recorder(self, s):
            tilts.append(s)
            return original(self, s)

        monkeypatch.setattr(_TiltedLogSumExp, "ess", recorder)
        grid, v = centred_grid(u)
        assert _largest_stable_tilt(grid, _TiltedLogSumExp(v), ESS_FLOOR) == grid[-1]
        assert tilts == [grid[-1]]
        tilts.clear()
        est = chernoff_exponent_from_scores(u, 0.5)
        assert not est.diverged
        assert tilts == [grid[-1]]

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
        want = full_grid_tilt(grid, v, floor)
        assert _largest_stable_tilt(grid, _TiltedLogSumExp(v), floor) == want


def same_bits(a, b) -> bool:
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.tobytes() == b.tobytes()


def assert_kernel_is_the_oracle(v, tilts):
    """At every tilt the kernel gives ``_logsumexp(s * v)`` and the ESS row bit for bit."""
    lse = _TiltedLogSumExp(v)
    for s in tilts:
        # an overflowing row warns in the oracle and in the kernel alike
        with np.errstate(all="ignore"):
            want = float(_logsumexp(s * v))
            want_ess = _effective_sample_sizes(s * v[np.newaxis, :])[0]
            assert same_bits(lse(s), want), s
            assert same_bits(lse.ess(s), want_ess), s


@st.composite
def tilted_rows(draw):
    """Centred heavy-tailed, rounded or near-constant scores and tilts for them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2_000))
    kind = draw(st.sampled_from(["normal", "exponential", "pareto", "t", "rounded", "flat"]))
    if kind == "normal":
        u = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 40.0])), n)
    elif kind == "exponential":
        u = -rng.exponential(1.0, n)
    elif kind == "pareto":
        u = rng.pareto(draw(st.sampled_from([0.8, 1.5, 3.0])), n)
    elif kind == "t":
        u = rng.standard_t(draw(st.sampled_from([1.0, 2.0])), n)
    elif kind == "rounded":
        # many lanes tie at the top, often more than 32
        u = np.round(rng.normal(0.0, draw(st.sampled_from([0.3, 3.0])), n))
    else:
        # seven values a few ulps apart, each shared by many lanes
        u = 7.0 + rng.integers(-3, 4, n) * np.spacing(7.0)
    v = u - u.mean()
    sd = float(v.std())
    grid = np.geomspace(1e-3, 1e3, bounds._GRID_POINTS) / (sd if sd > 0.0 else 1.0)
    picked = draw(st.lists(st.sampled_from(grid.tolist()), min_size=1, max_size=6))
    # interior points of a bounded search up to some grid tilt
    fractions = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=6))
    return v, picked + [f * draw(st.sampled_from(grid.tolist())) for f in fractions]


class TestTiltedLogSumExp:
    @settings(max_examples=150, deadline=None)
    @given(tilted_rows())
    def test_equals_the_oracle_at_grid_and_search_tilts(self, case):
        v, tilts = case
        assert_kernel_is_the_oracle(v, tilts)

    def test_every_grid_tilt_of_a_chernoff_sample(self):
        grid, v = centred_grid(np.random.default_rng(9).standard_t(3.0, 20_000))
        assert_kernel_is_the_oracle(v, grid)

    @pytest.mark.parametrize("tied", [32, 33, 40, 500])
    def test_tied_maxima_beyond_the_sorted_lanes(self, tied):
        # 32 to 500 lanes tie at the top, and the one == 0.0 pass must find them all
        v = np.random.default_rng(tied).normal(size=2_000)
        v[:tied] = 10.0
        grid, v = centred_grid(v)
        assert np.count_nonzero(grid[0] * v == grid[0] * v.max()) == tied
        assert_kernel_is_the_oracle(v, grid)

    def test_rounding_ties_distinct_lanes(self):
        # 40 distinct values one ulp apart tie at the top once scaled into
        # the subnormal range
        v = np.concatenate([1.0 + np.arange(40) * np.spacing(1.0), np.linspace(-5.0, 0.0, 900)])
        tilts = [2.0**-1070, 3.0 * 2.0**-1071, 1.5, 1.9, 1.0]
        assert np.count_nonzero(tilts[0] * v == tilts[0] * v.max()) == 40
        assert_kernel_is_the_oracle(v, tilts)

    def test_dead_lanes(self):
        v = np.random.default_rng(4).normal(0.0, 300.0, 5_000)
        tilts = [0.5, 1.0, 2.0, 9.0]
        for s in tilts:
            shifted = s * v - s * v.max()
            assert (shifted < -746.0).any() and (shifted >= -746.0).sum() > 1
        assert_kernel_is_the_oracle(v, tilts)

    def test_subnormal_result_lanes(self):
        # exp of these shifted lanes is subnormal or rounds to zero near -745
        v = np.array([0.0, -709.0, -720.5, -740.0, -744.9, -745.1, -745.5, -746.0, -750.0])
        assert_kernel_is_the_oracle(v, [1.0, 0.999, 1.0001, 0.5])
        with np.errstate(under="ignore"):
            assert (np.exp(v[2:5]) < np.finfo(float).tiny).all() and np.exp(v[4]) > 0.0

    def test_zero_tilt(self):
        assert_kernel_is_the_oracle(np.array([-1.5, 0.0, 0.25, 2.0]), [0.0])
        assert_kernel_is_the_oracle(np.array([-0.0, 0.0]), [0.0])

    @pytest.mark.parametrize(
        "v, s",
        [
            ([1e300, -1e300, 0.0], 1e10),  # the top overflows to inf
            ([1.0, -1e300, 0.0], 1e10),  # a lane overflows to -inf
            ([5e307, -5e307, 0.0], 1.5),  # only the doubled row overflows
            ([1.0, -6e307, 0.0], 1.0),  # the doubled shifted row overflows
        ],
    )
    def test_overflowing_rows_fall_back(self, v, s):
        assert_kernel_is_the_oracle(np.array(v), [s])

    def test_exp_is_zero_below_the_dead_threshold(self):
        # the kernel skips exp on these lanes; a numpy whose exp rounds any of
        # them to a nonzero value must fail here
        x = np.concatenate(
            [
                [np.nextafter(-746.0, -np.inf), -1e300, -np.finfo(float).max],
                np.linspace(np.nextafter(-746.0, -np.inf), -760.0, 200_003),
                -746.0 - np.geomspace(1e-9, 1e6, 1_001),
            ]
        )
        with np.errstate(under="ignore"):
            out = np.exp(x)
            alone = [np.exp(xi) for xi in x[::997]]
        assert (out == 0.0).all() and not np.signbit(out).any()
        assert all(a == 0.0 and not np.signbit(a) for a in alone)



@pytest.mark.parametrize(
    "x", [_EXP_DEAD, np.nextafter(_EXP_DEAD, -np.inf), -1000.0, -1e308, -np.inf]
)
def test_exp_gives_plus_zero_from_the_kernel_mask_down(x):
    # the kernel masks lanes below _EXP_DEAD to +0.0 without exp; the bits
    # hold only while exp gives +0.0 there, on 64 lanes and on a scalar alike
    with np.errstate(under="ignore"):
        lanes, alone = np.exp(np.full(64, x)), np.exp(np.float64(x))
    assert (lanes == 0.0).all() and not np.signbit(lanes).any()
    assert alone == 0.0 and not np.signbit(alone)


def test_exp_is_positive_just_above_the_kernel_mask():
    # the mask sits just past float64's underflow edge
    with np.errstate(under="ignore"):
        assert np.exp(-745.0) > 0.0 and (np.exp(np.full(64, -745.0)) > 0.0).all()


# chernoff_exponent at t = 0.05 on 20,000 samples, seed 40 + atom: (value,
# s_star) as float.hex() and diverged, recorded before the one-tilt kernel
_CHERNOFF_PINS = {
    ("gaussian", 1): ("0x1.0605db99fbb6ep-11", "0x1.4a28c7ade8d24p-6", False),
    ("gaussian", 2): ("0x1.acb4be3b59798p-14", "0x1.0dd64a7f67f5fp-8", False),
    ("kde", 1): ("0x1.5cde00be91bb2p-16", "0x1.b5f6cdfd9b14fp-11", False),
    ("kde", 2): ("0x1.edaf28f31251ap-16", "0x1.36134844ddb98p-10", False),
    ("nested_mixture", 1): ("0x1.0b267e8e33b42p-16", "0x1.4e2d7e83b0509p-11", False),
    ("nested_mixture", 2): ("0x1.25e7b3bf71a6ap-15", "0x1.6fcfe4793f082p-10", False),
    ("nested_mixture", 3): ("0x1.8a41e2a8263f8p-15", "0x1.ed8b1578ffe7bp-10", False),
}


@pytest.mark.parametrize("kind, atom", sorted(_CHERNOFF_PINS))
def test_chernoff_values_are_pinned_bit_for_bit(kind, atom):
    est = chernoff_exponent(CHERNOFF_MEASURES[kind](), atom, 0.05, samples=20_000, seed=40 + atom)
    assert (est.value.hex(), est.s_star.hex(), est.diverged) == _CHERNOFF_PINS[kind, atom]


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


# Each bound function with valid arguments, and the positions of its numeric
# ones; a list argument gets NaN in one entry.
_BOUND_CALLS = {
    "mle_recovery_bound": (mle_recovery_bound, (2, [50, 60], 0.3), (0, 1, 2)),
    "mv_recovery_bound": (mv_recovery_bound, (2, [200, 300], 0.5), (0, 1, 2)),
    "required_sample_size": (required_sample_size, (3, 0.1, "mle", 0.25), (0, 1, 3)),
    "min_count_probability": (min_count_probability, (200, [0.3, 0.3, 0.4], 40), (0, 1, 2)),
}


@pytest.mark.parametrize(
    "name,position",
    [(name, i) for name, (_, _, numeric) in _BOUND_CALLS.items() for i in numeric],
)
def test_a_nan_argument_raises_the_argument_check(name, position):
    fn, args, _ = _BOUND_CALLS[name]
    args = list(args)
    if isinstance(args[position], list):
        args[position] = [math.nan, *args[position][1:]]
    else:
        args[position] = math.nan
    with pytest.raises(ValueError, match=" must "):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (min_count_probability, (math.inf, [0.5, 0.5], 1), "n must be a finite float"),
        (min_count_probability, (10, [0.5, 0.5], math.inf), "m must be a finite float"),
        (min_count_probability, (10**400, [0.5, 0.5], 1), "n must be a finite float"),
        (min_count_probability, (10, [0.5, 0.5], 10**400), "m must be a finite float"),
        (mle_recovery_bound, (math.inf, [50, 60], 0.3), "k must be a finite float"),
        (mle_recovery_bound, (10**400, [50, 60], 0.3), "k must be a finite float"),
        (mle_recovery_bound, (3, [10**400, 60], 0.3), "counts must be finite"),
        (mv_recovery_bound, (math.inf, [50, 60], 0.3), "k must be a finite float"),
        (required_sample_size, (math.inf, 0.1, "mle", 0.3), "k must be a finite float"),
        (required_sample_size, (3, 0.1, "mle", 1e-320), "sample size too large"),
        (required_sample_size, (3, 0.1, "mv", 1e-200), "sample size too large"),
        (required_sample_size, (3, 5e-324, "mle", 0.3), "sample size too large"),
    ],
)
def test_an_argument_beyond_the_floats_raises_its_check(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_a_nan_bound_raises_instead_of_reading_0():
    with pytest.raises(ValueError, match="NaN"):
        bounds._clamp01(math.nan)
    # 2 k^2 overflows to inf and exp(-inf) is 0: the product is NaN
    with pytest.raises(ValueError, match="NaN"):
        mle_recovery_bound(10**200, [1e300], math.inf)
    # an infinite exponent stays a bound of 1 when every class was seen
    assert mle_recovery_bound(3, [5, 5, 5], math.inf) == 1.0


def test_a_model_score_whose_square_overflows_leaves_a_nan_half_width():
    truth = MixingMeasure([0.5, 0.5], [Gaussian([0.0, 0.0], np.eye(2)),
                                       Gaussian([3.0, 0.0], np.eye(2))])
    model = MixingMeasure([0.5, 0.5], [Gaussian([0.0, 0.0], np.diag([1e-300, 1.0])),
                                       Gaussian([3.0, 0.0], np.eye(2))])
    report = estimate_gaps(model, truth, Permutation.identity(2), 2000, seed=0)
    assert report.mle_gap > 1e299 and math.isnan(report.mle_half_width)


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

    @pytest.mark.parametrize("negative_zero", [False, True])
    def test_mle_half_width_from_one_flat_bincount(self, negative_zero):
        # the per-column bincounts of squared scores give the bits of one
        # bincount over flat (class, region) cells; with K = 2 every row of
        # the true and rival assignments differs
        n, k = 5_000, 2
        rng = np.random.default_rng(5)
        scores = rng.normal(-3.0, 2.0, (n, k))
        labels = rng.integers(1, k + 1, n)
        if negative_zero:
            scores[rng.random(scores.shape) < 0.3] = -0.0
        cells = (labels - 1)[:, np.newaxis] * k + np.arange(k)
        cell_sq = np.bincount(cells.ravel(), weights=(scores**2).ravel(), minlength=k * k)
        cell_mean = np.bincount(cells.ravel(), weights=scores.ravel(), minlength=k * k) / n
        se = np.sqrt(np.maximum(cell_sq / n - cell_mean**2, 0.0) / n).reshape(k, k)
        want = 3.0 * (float(se[0, 0] + se[0, 1]) + float(se[1, 1] + se[1, 0]))
        rep = gaps._gaps_from_scores(scores, labels, Permutation.identity(k), {"mle"}, 0)
        assert rep.mle_half_width == want

    @pytest.mark.parametrize("which", [{"mle", "mv"}, {"mle"}, {"mv"}], ids=["mle-mv", "mle", "mv"])
    def test_one_atom_has_no_wrong_assignment(self, which):
        one = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        with pytest.raises(ValueError, match="gaps need K >= 2 atoms"):
            estimate_gaps(one, one, Permutation.identity(1), samples=100, seed=0, which=which)


class TestTvDistance:
    @pytest.mark.parametrize(
        "f, g",
        [
            # a kernel at 1e300 and one at 0: no float lies 10 bandwidths past 1e300
            (KernelDensity([[1e300], [0.0]], 0.14), Gaussian([0.0], [[1.0 / 3.0]])),
            # a part 1e150 wide beside parts 1 wide
            (GaussianMixture([0.5, 0.5], [Gaussian([0.0], [[1e300]]), Gaussian([0.0], [[1.0]])]),
             Gaussian([1.0], [[1.0]])),
            # a part 1e-160 wide beside a part 1 wide
            (GaussianMixture([0.5, 0.5], [Gaussian([0.0], [[1e-320]]), Gaussian([1.0], [[1.0]])]),
             Gaussian([1.0], [[1.0]])),
        ],
    )
    def test_a_part_the_rule_cannot_resolve_is_refused(self, f, g):
        with pytest.raises(ValueError, match="1-d TV cannot resolve"):
            tv_distance(f, g)

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
            assert calls == [(*envelope(f, g), points)]

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


def _brentq_battery(rng: np.random.Generator, per_family: int):
    """Seeded (f, a, b, maxiter) brackets for comparing root finders.

    Families: cubics scaled from 1e-200 to 1e200, signed Gaussian sums written
    as _tv_quadrature's integrand, steep tanh, sines, staircases whose flat
    steps make Brent's divisors 0, tiny-valued steps whose products
    underflow, and a function that turns nan past a point. Most brackets
    straddle a root; a random one may not, and one in ten runs at most 5
    iterations, so both of brentq's errors come up.
    """

    def cubic():
        r0, r1, r2 = np.sort(rng.normal(size=3) * 3).tolist()
        s = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-200, 200))
        return lambda x: s * (x - r0) * (x - r1) * (x - r2)

    def gaussian_sum():
        mu = rng.normal(size=5) * 2
        sds = 10.0 ** rng.uniform(-2, 0.5, size=5)
        weights = rng.dirichlet(np.ones(5)) * rng.choice([-1.0, 1.0], size=5)
        coef = weights / (sds * math.sqrt(2.0 * math.pi))
        scale = 1.0 / (sds * math.sqrt(2.0))
        return lambda x: float(np.exp(-(((x - mu) * scale) ** 2)) @ coef)

    def steep_tanh():
        c, k = float(rng.normal()), float(10.0 ** rng.uniform(0, 4))
        return lambda x: math.tanh(k * (x - c))

    def sine():
        w, phase = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.0, 2 * math.pi))
        return lambda x: math.sin(w * x + phase)

    def staircase():
        c, k = float(rng.normal()), float(rng.uniform(1, 8))
        off = float(rng.choice([0.0, 0.25, 0.5]))
        return lambda x: math.floor(k * (x - c)) + off

    def tiny_step():
        c, level = float(rng.normal()), float(10.0 ** rng.uniform(-320, -290))
        return lambda x: (level if x > c else -2.0 * level) * (1.0 + abs(x - c))

    def nan_beyond():
        c, cut = float(rng.normal()), float(rng.normal() + 1.0)
        return lambda x: x - c if x < cut else math.nan

    def straddles(f, a, b):
        return math.copysign(1.0, f(a)) != math.copysign(1.0, f(b))

    for family in (cubic, gaussian_sum, steep_tanh, sine, staircase, tiny_step, nan_beyond):
        for i in range(per_family):
            f = family()
            a, b = (float(v) for v in rng.normal(size=2) * 4)
            for _ in range(20 if rng.random() < 0.8 else 0):
                if straddles(f, a, b):
                    break
                centre = float(rng.normal())
                a, b = centre - float(rng.exponential(2)), centre + float(rng.exponential(2))
            yield f, a, b, int(rng.integers(1, 6)) if i % 10 == 0 else 100


def _root_outcome(solver, f, a, b, maxiter):
    """The root's bits, or the type of the error the solver raised."""
    try:
        return float(solver(f, a, b, maxiter=maxiter)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


class TestBrentq:
    def test_matches_scipy_bit_for_bit(self, monkeypatch):
        zero_divisors = []
        div = transport._div
        monkeypatch.setattr(
            transport, "_div", lambda num, den: zero_divisors.append(den == 0.0) or div(num, den)
        )
        outcomes = {}
        for f, a, b, maxiter in _brentq_battery(np.random.default_rng(2024), 1_500):
            want = _root_outcome(brentq, f, a, b, maxiter)
            assert _root_outcome(transport._brentq, f, a, b, maxiter) == want, (a, b, maxiter)
            kind = want if want.endswith("Error") else "root"
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert sum(outcomes.values()) == 10_500
        assert outcomes["root"] > 5_000
        assert outcomes["ValueError"] > 500 and outcomes["RuntimeError"] > 500
        # the flat steps reached Brent's divisions with a zero divisor
        assert sum(zero_divisors) > 1_000

    def test_defaults_and_errors_match_scipy(self):
        f = lambda x: x**3 - 2.0 * x - 5.0
        assert transport._brentq(f, 2.0, 3.0) == brentq(f, 2.0, 3.0)
        assert transport._brentq(f, 2.0, 3.0, xtol=1e-3) == brentq(f, 2.0, 3.0, xtol=1e-3)
        with pytest.raises(ValueError, match="different signs"):
            transport._brentq(f, 3.0, 4.0)
        with pytest.raises(ValueError, match="NaN"):
            transport._brentq(lambda x: math.nan, 0.0, 1.0)
        with pytest.raises(RuntimeError, match="converge"):
            transport._brentq(f, 2.0, 3.0, maxiter=2)
        # a zero at an end is returned without iterating
        assert transport._brentq(lambda x: x - 1.0, 1.0, 4.0) == 1.0


def _fminbound_battery(rng, count):
    """(func, a, b) triples: the Chernoff objective on normal, rounded and Pareto
    scores at scales 1e-3 to 1e3 over its own tilt range, and quadratic,
    |x - c|, cosine, constant and stepped quadratic functions on random
    intervals. The steps make the exact ties between values that decide the
    search's comparisons."""
    for i in range(count):
        kind = i % 8
        if kind < 3:
            n = int(rng.integers(2, 400))
            draw = (rng.normal(size=n), np.round(rng.normal(size=n), 1), rng.pareto(2.5, size=n))
            v = draw[kind] * 10.0 ** rng.uniform(-3, 3)
            v = v - v.mean()
            sd = float(v.std())
            if sd == 0.0:
                continue
            lse, t, log_n = _TiltedLogSumExp(v), float(rng.uniform(0.0, 2.0)) * sd, math.log(n)
            yield (lambda s, lse=lse, t=t, log_n=log_n: -(s * t - (lse(s) - log_n)), 0.0,
                   float(10.0 ** rng.uniform(-3, 3) / sd))
            continue
        a, b = sorted(float(x) for x in rng.normal(size=2) * 10.0 ** rng.uniform(-6, 3))
        c = float(rng.normal()) * (b - a) + a
        yield [lambda x, c=c: (x - c) * (x - c), lambda x, c=c: abs(x - c),
               lambda x, w=float(rng.uniform(0.1, 20.0)) / (b - a): math.cos(w * x),
               lambda x: 1.5,
               lambda x, c=c, h=10.0 ** float(rng.uniform(0, 8)) / (b - a) ** 2:
                   math.floor(h * (x - c) * (x - c))][kind - 3], a, b


class TestFminbound:
    @staticmethod
    def _both(f, a, b):
        """float.hex of (x, fun) from the port and from scipy."""
        got = bounds._fminbound(f, a, b)
        with np.errstate(all="ignore"):  # scipy's numpy scalars warn on inf and nan
            res = minimize_scalar(f, bounds=(a, b), method="bounded")
        return tuple(float(v).hex() for v in got), (float(res.x).hex(), float(res.fun).hex())

    def test_matches_scipy_bit_for_bit(self):
        battery = list(_fminbound_battery(np.random.default_rng(29), 1_000))
        assert len(battery) > 990
        for f, a, b in battery:
            got, want = self._both(f, a, b)
            assert got == want, (a, b)

    @pytest.mark.parametrize("f,a,b", [
        (lambda x: abs(x + 0.1), -1e250, 3e250),  # stops at scipy's 500 evaluations
        (lambda x: math.nan, 0.0, 1.0),
        (lambda x: math.inf if x > 0.5 else x, 0.0, 1.0),
        (lambda x: -math.inf if x > 0.5 else x, 0.0, 1.0),
        (lambda x: -x, 0.0, 1.0),
        (lambda x: (x - 0.3) ** 2, 0.3, 0.3),
        # a parabolic step of exactly 0, and exact ties with the second and
        # third best points
        (lambda x: math.floor(8.0 * (x + 0.5) ** 2), -4.0, 3.0),
        (lambda x: round(((x + 2.0) ** 2 + 0.1 * (x + 2.0) ** 3) / 0.125) * 0.125, -4.0, 7.0),
        (lambda x: round((x**2 + 0.1 * x**3) / 0.03125) * 0.03125, -7.0, 4.0),
        # parabolic steps that land exactly on b and on a
        (lambda x: (x * x - 1.0) ** 2 * 3 + x, -8.0, 7.0),
        (lambda x: max(x - 1.5, 4.0 * (1.5 - x), -1.0), -6.0, 8.0),
    ])
    def test_edges_match_scipy(self, f, a, b):
        got, want = self._both(f, a, b)
        assert got == want


class TestTvCoverage:
    """Monte-Carlo TV half-widths cover the exact value at their nominal rate.

    f = f1 (x) h against g = g1 (x) h share one independent second
    coordinate h, so TV(f, g) = TV(f1, g1) exactly: the closed form for two
    Gaussians, the 1-d quadrature for two mixtures. A 3-SE interval misses
    with probability 2 norm.sf(3) ~ 0.0027. The allowed miss count is the
    0.999 quantile of the binomial at that rate over the fixed pairs, set
    before the first run; the pairs and their seeds are never redrawn.
    """

    PAIRS = 200
    SAMPLES = 20_000

    @staticmethod
    def _pair(i):
        """(f1, g1, f, g) of pair i; every fourth pair is two-part mixtures."""
        rng = np.random.default_rng([4, i])
        h_mean, h_var = rng.normal(), rng.uniform(0.25, 4.0)

        def line_and_plane():
            parts = 2 if i % 4 == 3 else 1
            weights = rng.dirichlet(np.ones(parts))
            means, variances = rng.normal(0.0, 1.5, parts), rng.uniform(0.25, 4.0, parts)
            line = [Gaussian([m], [[v]]) for m, v in zip(means, variances)]
            plane = [
                Gaussian([m, h_mean], np.diag([v, h_var])) for m, v in zip(means, variances)
            ]
            if parts == 1:
                return line[0], plane[0]
            return GaussianMixture(weights, line), GaussianMixture(weights, plane)

        (f1, f), (g1, g) = line_and_plane(), line_and_plane()
        return f1, g1, f, g

    def test_three_se_intervals_miss_at_most_the_binomial_tail(self):
        allowed = int(binom.ppf(0.999, self.PAIRS, 2.0 * norm.sf(3.0)))
        misses = []
        for i in range(self.PAIRS):
            f1, g1, f, g = self._pair(i)
            exact = tv_distance(f1, g1)
            est = tv_distance(f, g, mc_samples=self.SAMPLES, seed=i)
            assert est.method == "mc" and exact.half_width < 1e-9
            if abs(est.value - exact.value) > est.half_width + exact.half_width:
                misses.append(i)
        assert len(misses) <= allowed, (misses, allowed)


class TestW1Coverage:
    """W1 half-widths against the exact W1 of product-form 2-d measures.

    Atoms N((m_i, 0), diag(v_i, 1)) share their second coordinate, so each
    Monte-Carlo cost c^ estimates the exact TV c of the first coordinates
    (the 1-d closed form), and the exact W1 is W = <pi*, c> for the optimal
    plan pi* of c. Where every cost is covered, |c^ - c| <= hw, the reported
    W^ = <pi^, c^> obeys W - W^ <= <pi^, hw> = total_half_width, but
    W^ - W <= <pi*, hw> only: the total half-width is guaranteed on one side.
    A cost misses with probability 2 norm.sf(3), and the K^2 costs of an
    instance are drawn apart, so an instance has an uncovered cost with
    probability 1 - (1 - 2 norm.sf(3))^(K^2). The allowed count of instances
    with |W^ - W| > total_half_width is the 0.999 quantile of the binomial at
    that rate, set before the first run; the instances and their seeds are
    never redrawn.
    """

    INSTANCES = 100
    K = 2
    SAMPLES = 20_000

    @staticmethod
    def _measure(rng, k):
        """k random 1-d Gaussians, and the 2-d measure of their products."""
        means, variances = rng.normal(0.0, 1.5, k), rng.uniform(0.25, 4.0, k)
        line = [Gaussian([m], [[v]]) for m, v in zip(means, variances)]
        plane = [Gaussian([m, 0.0], np.diag([v, 1.0])) for m, v in zip(means, variances)]
        return line, MixingMeasure(rng.dirichlet(np.ones(k)), plane)

    def test_total_half_width_covers_the_exact_w1(self):
        rate = 1.0 - (1.0 - 2.0 * norm.sf(3.0)) ** (self.K**2)
        allowed = int(binom.ppf(0.999, self.INSTANCES, rate))
        misses = []
        for i in range(self.INSTANCES):
            rng = np.random.default_rng([22, i])
            (line_a, a), (line_b, b) = self._measure(rng, self.K), self._measure(rng, self.K)
            cost = np.array([[transport._tv_gaussians(f, g) for g in line_b] for f in line_a])
            best, exact = transport._optimal_coupling(cost, a.weights, b.weights)
            value, plan = wasserstein1(a, b, mc_samples=self.SAMPLES, seed=i)
            assert plan.method == "mc"
            hw = plan.cost_half_widths
            if np.all(np.abs(plan.cost_matrix - cost) <= hw):
                # 1e-12 holds both simplex stops, each within 1e-13 of its
                # optimum per unit mass, and the rounding of the sums
                assert exact - value <= plan.total_half_width + 1e-12
                assert value - exact <= float((best * hw).sum()) + 1e-12
            if abs(value - exact) > plan.total_half_width:
                misses.append(i)
        assert len(misses) <= allowed, (misses, allowed)


class TestGapsAndRiskCoverage1d:
    """Half-widths of ``estimate_gaps`` and ``misclassification_rate`` against
    exact values on 1-d Gaussian truth/model pairs.

    In 1-d the decision regions of w_b N(m_b, s_b^2) are unions of the
    intervals between the real roots of the pairwise quadratics
    log w_a f_a - log w_b f_b, so the truth's joint mass of (class c,
    region r) is a sum of ``ndtr`` differences. The Bayes rate, the plug-in
    rate, the excess and every region's vote margin follow from those masses,
    and the MLE cell means are w_c E_{f_c}[log w^_r f^_r(X)], a Gaussian
    expectation of a quadratic. Each of those values is one check of a 3-SE
    half-width; a check misses with probability about 2 norm.sf(3), so the
    allowed misses are the 0.999 binomial quantile over all checks, set before
    the first run. Instances come from seeds [23, i]; one is dropped, by a
    rule fixed before the first run, when a model region holds less than 5%
    of the truth's mass, where its margin's normal approximation is poor. The
    instances and seeds are never redrawn.
    """

    INSTANCES = 60
    SAMPLES = 20_000

    @staticmethod
    def _regions(weights, means, sds):
        """Interval edges (-inf first, inf last) and the region of each interval."""
        roots = []
        for a, b in itertools.combinations(range(len(weights)), 2):
            va, vb = sds[a] ** 2, sds[b] ** 2
            quadratic = [
                0.5 / vb - 0.5 / va,
                means[a] / va - means[b] / vb,
                math.log(weights[a] / sds[a]) - math.log(weights[b] / sds[b])
                - 0.5 * means[a] ** 2 / va + 0.5 * means[b] ** 2 / vb,
            ]
            roots += [r.real for r in np.roots(quadratic) if r.imag == 0.0]
        edges = [-math.inf, *sorted(roots), math.inf]
        inner = [x for x in edges if math.isfinite(x)] or [0.0]
        mids = [
            inner[0] - 1.0 if lo == -math.inf else inner[-1] + 1.0 if hi == math.inf
            else 0.5 * (lo + hi)
            for lo, hi in zip(edges, edges[1:])
        ]
        scores = [np.log(weights) + norm.logpdf(x, means, sds) for x in mids]
        return edges, [int(np.argmax(row)) for row in scores]

    @classmethod
    def _joint_mass(cls, truth, regions_of):
        """(class c, region r) -> P(atom c of truth, X in region r of regions_of)."""
        edges, owner = cls._regions(*regions_of)
        w, m, s = truth
        mass = np.zeros((len(w), len(w)))
        for (lo, hi), r in zip(zip(edges, edges[1:]), owner):
            mass[:, r] += w * (ndtr((hi - m) / s) - ndtr((lo - m) / s))
        return mass

    @staticmethod
    def _parameters(measure):
        means = np.array([c.mean[0] for c in measure.components])
        sds = np.array([math.sqrt(c.cov[0, 0]) for c in measure.components])
        return measure.weights, means, sds

    def _instances(self):
        i = 0
        while True:
            rng = np.random.default_rng([23, i])
            i += 1
            k = 2 + int(rng.integers(0, 2))
            means = 2.0 * np.arange(k) + rng.normal(0.0, 0.3, k)
            sds = rng.uniform(0.6, 1.4, k)
            atoms = [Gaussian([m], [[v * v]]) for m, v in zip(means, sds)]
            truth = MixingMeasure(rng.dirichlet(np.full(k, 4.0)), atoms)
            model = perturb_mixture(truth, rng)
            exact = self._parameters(truth), self._parameters(model)
            if self._joint_mass(*exact).sum(axis=0).min() >= 0.05:
                yield truth, model, self._exact(*exact)

    def _exact(self, truth, model):
        k = len(truth[0])
        bayes = 1.0 - np.trace(self._joint_mass(truth, truth))
        plugin_mass = self._joint_mass(truth, model)
        rate = 1.0 - np.trace(plugin_mass)
        rivals = plugin_mass.copy()
        np.fill_diagonal(rivals, -np.inf)
        margins = (np.diag(plugin_mass) - rivals.max(axis=0)) / plugin_mass.sum(axis=0)
        (w, m, s), (w_hat, m_hat, s_hat) = truth, model
        cell = w[:, None] * (
            np.log(w_hat) - 0.5 * np.log(2.0 * math.pi * s_hat**2)
            - (s[:, None] ** 2 + (m[:, None] - m_hat) ** 2) / (2.0 * s_hat**2)
        )
        values = {p: cell[np.arange(k), list(p)].sum() for p in itertools.permutations(range(k))}
        identity = tuple(range(k))
        rival = max(v for p, v in values.items() if p != identity)
        return {"bayes": bayes, "rate": rate, "excess": rate - bayes, "margins": margins,
                "mle_gap": values[identity] - rival}

    def test_half_widths_cover_the_exact_values(self):
        instances = list(itertools.islice(self._instances(), self.INSTANCES))
        checks = sum(4 + len(exact["margins"]) for *_, exact in instances)
        allowed = int(binom.ppf(0.999, checks, 2.0 * norm.sf(3.0)))
        misses = []
        for i, (truth, model, exact) in enumerate(instances):
            perm = Permutation.identity(truth.n_atoms)
            risk = misclassification_rate(model, perm, truth, perm, self.SAMPLES, seed=i)
            gap = estimate_gaps(model, truth, perm, self.SAMPLES, seed=i)
            pairs = [
                ("bayes", risk.bayes_rate, risk.bayes_half_width, exact["bayes"]),
                ("rate", risk.rate, risk.half_width, exact["rate"]),
                ("excess", risk.excess, risk.excess_half_width, exact["excess"]),
                ("mle_gap", gap.mle_gap, gap.mle_half_width, exact["mle_gap"]),
                *(("margin", *got, want) for got, want in zip(
                    zip(gap.region_margins, gap.margin_half_widths), exact["margins"]
                )),
            ]
            misses += [(i, name) for name, got, hw, want in pairs if abs(got - want) > hw]
        assert len(misses) <= allowed, (misses, allowed, checks)


class TestExcessRiskIsControlledByW1:
    """The paper's link between the plug-in classifier's excess risk and W1.

    Let p_b = l_b f_b (truth) and q_b = l^_b f^_b (model), and let the plug-in
    rule use the correct assignment. Where it picks c and the Bayes rule a,
    p_a - p_c <= |p_a - q_a| + |q_c - p_c|, so excess <= sum_b int |p_b - q_b|
    <= sum_b (2 l_b TV_b + |l_b - l^_b|), TV_b = TV(f_b, f^_b). With W1's
    optimal coupling under TV costs, M its off-diagonal mass and c the least
    off-diagonal cost, sum_b l_b TV_b <= W1 + M, sum_b |l_b - l^_b| <= 2 M and
    M <= W1 / c, so excess <= 2 W1 (1 + 2 / c) whenever c > 0.

    Truths are 1-d Gaussian mixtures from seeds [31, i], each moved along
    one fixed path (means + t d, log-sds + 0.3 t e, weights (1 - t) l + t l').
    The excess is exact, from ``TestGapsAndRiskCoverage1d``'s ``ndtr`` sums,
    and W1 is the deterministic 1-d ``wasserstein1``.
    """

    TRUTHS = 40
    STEPS = (0.02, 0.05, 0.1, 0.2, 0.4)

    @staticmethod
    def _path(i):
        rng = np.random.default_rng([31, i])
        k = 2 + int(rng.integers(0, 3))
        means = 2.0 * np.arange(k) + rng.normal(0.0, 0.3, k)
        sds = rng.uniform(0.6, 1.4, k)
        weights = rng.dirichlet(np.full(k, 4.0))
        d, e, moved = rng.normal(size=k), rng.normal(size=k), rng.dirichlet(np.full(k, 4.0))
        for t in TestExcessRiskIsControlledByW1.STEPS:
            yield (weights, means, sds), ((1.0 - t) * weights + t * moved, means + t * d,
                                          sds * np.exp(0.3 * t * e))

    @staticmethod
    def _measure(weights, means, sds):
        return MixingMeasure(weights, [Gaussian([m], [[s * s]]) for m, s in zip(means, sds)])

    def test_excess_is_at_most_2_w1_times_1_plus_2_over_c(self):
        joint = TestGapsAndRiskCoverage1d._joint_mass
        broken = []
        for i in range(self.TRUTHS):
            for truth, model in self._path(i):
                excess = np.trace(joint(truth, truth)) - np.trace(joint(truth, model))
                w1, plan = wasserstein1(self._measure(*truth), self._measure(*model))
                cost, off = plan.cost_matrix, ~np.eye(len(plan.matrix), dtype=bool)
                c, m = cost[off].min(), plan.matrix[off].sum()
                assert plan.method == "quadrature" and c > 0.0
                elementary = (2.0 * truth[0] * np.diag(cost) + abs(truth[0] - model[0])).sum()
                chain = [excess, elementary, 2.0 * w1 + 4.0 * m, 2.0 * w1 * (1.0 + 2.0 / c)]
                # each bound of the chain is at most every later one
                if any(a > b + 1e-12 for a, b in itertools.combinations(chain, 2)):
                    broken.append((i, chain))
        assert broken == []


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


def test_scipy_solvers_are_patchable_module_names(monkeypatch):
    # the first lookup loads the name into the module __dict__, where a
    # tracer's patch reads the original binding
    for module, name, original in (
        (matching, "linear_sum_assignment", linear_sum_assignment),
        (transport, "quad", quad),
        (transport, "IntegrationWarning", IntegrationWarning),
    ):
        assert getattr(module, name) is original
        assert vars(module)[name] is original
    for module in (matching, transport):
        assert not hasattr(module, "no_such_solver")
        with pytest.raises(AttributeError, match="no_such_solver"):
            module.no_such_solver

    # the recovery path calls the patched solver: one solve per MLE prefix
    solves = []

    def counted(cost):
        solves.append(1)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(matching, "linear_sum_assignment", counted)
    spec = ExperimentSpec("gaussian_grid", k=3, dim=2, n_grid=(5, 10, 20), trials=4, seed=1)
    curve = run_recovery_experiment(spec)
    assert len(solves) == spec.trials * len(spec.n_grid)
    monkeypatch.undo()
    assert run_recovery_experiment(spec).points == curve.points


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
