import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlearn import (
    ExperimentSpec,
    Gaussian,
    GaussianMixture,
    LabeledData,
    MixingMeasure,
    Permutation,
    generate_true_mixture,
    greedy_estimate,
    mle_estimate,
    mv_estimate,
    perturb_mixture,
    run_recovery_experiment,
    sample_labeled,
    tv_distance,
)
from permlearn import harness
from permlearn.estimators import (
    CODE_EMPTY_REGION,
    CODE_MAJORITY_TIE,
    CODE_NON_BIJECTIVE,
    CODE_OK,
    prefix_summaries,
)
from permlearn.harness import (
    CSV_COLUMNS,
    DEFAULT_N_GRID,
    _ESTIMATORS,
    _RECOVERED,
    CurvePoint,
    RecoveryCurve,
    _grid_means,
    _spec_fields,
    resolve_model,
)


def small_spec(**kw):
    base = dict(
        family="gaussian_grid", k=4, dim=2, eta=1.0,
        n_grid=(3, 9, 15), trials=8, seed=7,
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_defaults(self):
        s = ExperimentSpec("gaussian_grid")
        assert s.n_grid == DEFAULT_N_GRID
        assert s.n_grid[0] == 3 and s.n_grid[-1] == 99 and len(s.n_grid) == 33
        assert s.trials == 50
        assert s.label_noise == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(family="unknown_family"),
            dict(family="gaussian_grid", k=1),
            dict(family="gaussian_grid", dim=1),
            dict(family="gaussian_grid", eta=0.0),
            dict(family="gaussian_grid", n_grid=()),
            dict(family="gaussian_grid", n_grid=(9, 3)),
            dict(family="gaussian_grid", n_grid=(3, 3)),
            dict(family="gaussian_grid", trials=0),
            dict(family="gaussian_grid", label_noise=1.0),
            dict(family="custom"),
            dict(family="gaussian_grid", eta=float("inf")),
            dict(family="gaussian_grid", seed=-1),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            ExperimentSpec(**kw)

    def test_custom_takes_shape_from_measures(self):
        m = MixingMeasure(
            [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([3.0], [[1.0]])]
        )
        s = ExperimentSpec("custom", true_mixture=m, model_mixture=m, n_grid=(5,))
        assert s.k == 2 and s.dim == 1

    def test_custom_shape_mismatch(self):
        a = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        b = MixingMeasure(
            [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([3.0], [[1.0]])]
        )
        with pytest.raises(ValueError):
            ExperimentSpec("custom", true_mixture=a, model_mixture=b)

    def test_measures_rejected_for_synthetic(self):
        m = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        with pytest.raises(ValueError):
            ExperimentSpec("gaussian_grid", true_mixture=m)

    def test_roundtrip(self):
        s = small_spec(label_noise=0.1)
        assert ExperimentSpec(**_spec_fields(json.loads(json.dumps(s.to_dict())))) == s

    def test_custom_roundtrip(self):
        m = MixingMeasure(
            [0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([3.0], [[1.0]])]
        )
        s = ExperimentSpec("custom", true_mixture=m, model_mixture=m, n_grid=(5, 10))
        back = ExperimentSpec(**_spec_fields(json.loads(json.dumps(s.to_dict()))))
        assert back.true_mixture.components == m.components
        assert back.k == 2


class TestGeneration:
    @pytest.mark.parametrize("k,side", [(2, 2), (4, 2), (9, 3), (16, 4)])
    def test_grid_is_centered_with_unit_spacing(self, k, side):
        means = _grid_means(k, 2)
        np.testing.assert_allclose(means.mean(axis=0), 0.0, atol=1e-12)
        # nearest-neighbour distance is exactly 1 before scaling
        dists = [
            np.linalg.norm(means[i] - means[j])
            for i in range(k)
            for j in range(i + 1, k)
        ]
        assert min(dists) == pytest.approx(1.0)
        assert means[:, 0].max() - means[:, 0].min() == side - 1

    def test_eta_scales_means_not_covariances(self):
        wide, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, seed=3, eta=1.0))
        tight, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, seed=3, eta=0.5))
        np.testing.assert_allclose(
            np.array([c.mean for c in tight.components]),
            0.5 * np.array([c.mean for c in wide.components]),
            atol=1e-12,
        )
        for a, b in zip(wide.components, tight.components):
            np.testing.assert_array_equal(a.cov, b.cov)

    def test_true_assignment_is_identity(self):
        _, perm = generate_true_mixture(ExperimentSpec("gaussian_grid", k=9, seed=0))
        assert perm == Permutation.identity(9)

    def test_same_seed_same_measure(self):
        spec = ExperimentSpec("gaussian_grid", k=4, seed=5)
        a, _ = generate_true_mixture(spec)
        b, _ = generate_true_mixture(spec)
        assert a.components == b.components
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_neighbouring_atoms_nearly_disjoint(self):
        # the covariance ceiling keeps pairwise overlap small at eta = 1
        truth, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, seed=1))
        min_tv = min(
            tv_distance(
                truth.components[i], truth.components[j], mc_samples=20_000, seed=10 * i + j
            ).value
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert min_tv > 0.9

    def test_nested_family_atoms_are_mixtures(self):
        truth, _ = generate_true_mixture(
            ExperimentSpec("mixture_of_mixtures", k=4, seed=2)
        )
        assert all(isinstance(c, GaussianMixture) for c in truth.components)
        assert all(len(c.parts) == 3 for c in truth.components)

    def test_dim_padding(self):
        truth, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, dim=10, seed=0))
        means = np.array([c.mean for c in truth.components])
        assert means.shape == (4, 10)
        np.testing.assert_array_equal(means[:, 2:], 0.0)
        assert truth.components[0].cov.shape == (10, 10)


class TestPerturbation:
    def test_zero_scale_without_flags_is_identity(self):
        base, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, seed=5))
        p = perturb_mixture(
            base, 42, mean_shift_scale=0.0, scale_covariances=False, jitter_weights=False
        )
        assert p.components == base.components
        np.testing.assert_array_equal(p.weights, base.weights)

    def test_shift_path_is_linear_in_scale(self):
        base, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, seed=5))
        p1 = perturb_mixture(base, 42, mean_shift_scale=0.1, scale_covariances=False, jitter_weights=False)
        p3 = perturb_mixture(base, 42, mean_shift_scale=0.3, scale_covariances=False, jitter_weights=False)
        for b, a1, a3 in zip(base.components, p1.components, p3.components):
            np.testing.assert_allclose(
                a3.mean - b.mean, 3.0 * (a1.mean - b.mean), rtol=1e-12
            )

    def test_covariance_factors(self):
        base, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=8, seed=1))
        p = perturb_mixture(base, 0, mean_shift_scale=0.0, jitter_weights=False)
        factors = {
            round(float(a.cov[0, 0] / b.cov[0, 0]), 6)
            for a, b in zip(p.components, base.components)
        }
        assert factors <= {0.5, 2.0}
        assert len(factors) == 2  # both halving and doubling occur across 8 atoms

    def test_weight_jitter_stays_normalized(self):
        base, _ = generate_true_mixture(ExperimentSpec("gaussian_grid", k=4, seed=9))
        p = perturb_mixture(base, 3)
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert not np.allclose(p.weights, base.weights)

    def test_nested_atoms_supported(self):
        base, _ = generate_true_mixture(ExperimentSpec("mixture_of_mixtures", k=4, seed=2))
        p = perturb_mixture(base, 1)
        assert all(isinstance(c, GaussianMixture) for c in p.components)

    def test_kde_atom_rejected(self):
        from permlearn import KernelDensity

        m = MixingMeasure([1.0], [KernelDensity([[0.0]], bandwidth=1.0)])
        with pytest.raises(ValueError, match="Gaussian"):
            perturb_mixture(m, 0)


class TestRunExperiment:
    def test_reruns_are_identical(self):
        spec = small_spec()
        a = run_recovery_experiment(spec)
        b = run_recovery_experiment(spec)
        assert a.points == b.points

    def test_thread_count_does_not_change_results(self):
        spec = small_spec(trials=12)
        a = run_recovery_experiment(spec, threads=1)
        b = run_recovery_experiment(spec, threads=4)
        assert a.points == b.points

    def test_easy_problem_recovers(self):
        curve = run_recovery_experiment(small_spec(n_grid=(24,), trials=10))
        assert curve.recovery_fraction("mle")[0] == 1.0

    def test_label_noise_hurts(self):
        clean = run_recovery_experiment(small_spec(n_grid=(6,), trials=40))
        noisy = run_recovery_experiment(
            small_spec(n_grid=(6,), trials=40, label_noise=0.6)
        )
        assert noisy.recovery_fraction("mle")[0] < clean.recovery_fraction("mle")[0]

    def test_perturbed_family_uses_misspecified_model(self):
        spec = small_spec(family="gaussian_grid_perturbed")
        truth, _, model = resolve_model(spec)
        assert model.components != truth.components
        curve = run_recovery_experiment(spec)
        assert len(curve.points) == 3 * len(spec.n_grid)

    def test_curve_shape_and_counts(self):
        spec = small_spec(trials=6)
        curve = run_recovery_experiment(spec)
        assert {p.estimator for p in curve.points} == {"mle", "mv", "greedy"}
        for p in curve.points:
            assert p.trials == 6
            assert 0 <= p.recovered <= 6
            assert p.fail_empty + p.fail_tie + p.fail_nonbij <= 6
        mle_points = [p for p in curve.points if p.estimator == "mle"]
        assert [p.n for p in mle_points] == list(spec.n_grid)
        # the matching estimator never reports a failure
        assert all(
            p.fail_empty == p.fail_tie == p.fail_nonbij == 0 for p in mle_points
        )

    def test_mean_loglik_blank_when_all_fail(self):
        # a single sample cannot populate every region for majority vote
        curve = run_recovery_experiment(small_spec(n_grid=(1, 9), trials=5))
        mv1 = next(p for p in curve.points if p.estimator == "mv" and p.n == 1)
        assert mv1.fail_empty == 5
        assert mv1.mean_loglik is None

    def test_custom_family(self):
        truth = MixingMeasure(
            [0.5, 0.5], [Gaussian([-3.0], [[1.0]]), Gaussian([3.0], [[1.0]])]
        )
        spec = ExperimentSpec(
            "custom", true_mixture=truth, model_mixture=truth, n_grid=(10,), trials=5
        )
        curve = run_recovery_experiment(spec)
        assert curve.recovery_fraction("mle")[0] == 1.0


def _trial_data(spec, truth, perm, trial):
    """Trial's labelled draw as documented: stream default_rng([seed, trial])."""
    rng = np.random.default_rng([spec.seed, trial])
    n = spec.n_grid[-1]
    data = sample_labeled(truth, perm, n, rng)
    y = data.y
    if spec.k > 1:
        flip = rng.random(n) < spec.label_noise
        wrong = rng.integers(1, spec.k, size=n)
        y = np.where(flip, (y - 1 + wrong) % spec.k + 1, y)
    return LabeledData(data.x, y)


def _library_cells(spec):
    """Every cell recomputed prefix by prefix through the public estimators."""
    truth, perm, model = resolve_model(spec)
    estimators = {"mle": mle_estimate, "mv": mv_estimate, "greedy": greedy_estimate}
    slot = {"empty_region": 1, "majority_tie": 2, "non_bijective": 3}
    tally = {(e, n): [0, 0, 0, 0, []] for e in estimators for n in spec.n_grid}
    for t in range(spec.trials):
        data = _trial_data(spec, truth, perm, t)
        for n in spec.n_grid:
            prefix = data.prefix(n)
            for name, estimate in estimators.items():
                out = estimate(model, prefix)
                cell = tally[(name, n)]
                if out.ok and out.permutation == perm:
                    cell[0] += 1
                if out.failure is not None:
                    cell[slot[out.failure]] += 1
                else:
                    cell[4].append(out.log_likelihood)
    return {
        key: (tuple(c[:4]), float(np.mean(c[4])) if c[4] else None)
        for key, c in tally.items()
    }


def _two_atoms(mu, weights=(0.5, 0.5)):
    return MixingMeasure(
        list(weights), [Gaussian([-mu], [[1.0]]), Gaussian([mu], [[1.0]])]
    )


# criterion 04's grid of 48 sizes from 4 to 4096
_K2_FINE_GRID = tuple(int(v) for v in np.unique(np.rint(np.geomspace(4, 4096, 49))))

_SINGLE = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])


_ENGINE_SPECS = [
    ExperimentSpec(
        "custom", true_mixture=_SINGLE, model_mixture=_SINGLE,
        n_grid=(1, 2, 7), trials=4, seed=1,
    ),
    ExperimentSpec(
        "custom", true_mixture=_two_atoms(0.25), model_mixture=_two_atoms(0.25),
        n_grid=(1, 2, 3, 4, 8, 16, 64), trials=15, seed=2,
    ),
    ExperimentSpec(
        "custom", true_mixture=_two_atoms(0.4), model_mixture=_two_atoms(0.3, (0.6, 0.4)),
        n_grid=(1, 2, 5, 30), trials=15, label_noise=0.3, seed=3,
    ),
    small_spec(n_grid=(1, 2, 3, 5, 9, 17, 33), trials=10, label_noise=0.3),
    small_spec(family="gaussian_grid_perturbed", n_grid=(1, 4, 6, 12, 40), trials=10),
    small_spec(
        family="mixture_of_mixtures_perturbed", n_grid=(1, 3, 8, 20), trials=6,
        label_noise=0.2,
    ),
    small_spec(k=16, eta=0.5, n_grid=(1, 5, 16, 30, 60), trials=4),
    small_spec(k=16, eta=0.5, n_grid=(2, 40, 99), trials=3, label_noise=0.3),
]
_ENGINE_IDS = [
    "k1", "k2", "k2-noise-misspecified", "k4-noise", "k4-perturbed",
    "k4-nested-perturbed-noise", "k16", "k16-noise",
]


class TestBatchedEngineMatchesLibrary:
    """The one-pass prefix engine against per-prefix library estimates.

    Grids start at n = 1, so empty regions, absent classes and vote ties
    all occur. Counts must agree exactly; the engine sums scores in another
    order, so mean log-likelihoods agree to 1e-12.
    """

    @pytest.mark.parametrize("spec", _ENGINE_SPECS, ids=_ENGINE_IDS)
    def test_counts_equal_and_loglik_close(self, spec):
        expected = _library_cells(spec)
        curve = run_recovery_experiment(spec)
        got = {
            (p.estimator, p.n): (
                (p.recovered, p.fail_empty, p.fail_tie, p.fail_nonbij), p.mean_loglik
            )
            for p in curve.points
        }
        assert got.keys() == expected.keys()
        for key, (counts, loglik) in expected.items():
            assert got[key][0] == counts, key
            if loglik is None:
                assert got[key][1] is None, key
            else:
                assert got[key][1] == pytest.approx(loglik, rel=0.0, abs=1e-12), key

    def test_greedy_counts_an_absent_class_as_fail_empty(self):
        # Labels are flipped at random, so with two samples one class is often
        # missing while both regions hold a sample: greedy still reports
        # fail_empty there, although no region is empty.
        truth = _two_atoms(5.0)
        spec = ExperimentSpec(
            "custom", true_mixture=truth, model_mixture=truth, n_grid=(2, 30),
            trials=40, label_noise=0.5, seed=4,
        )
        absent_class = regions_full = 0
        for t in range(spec.trials):
            prefix = _trial_data(spec, truth, Permutation.identity(2), t).prefix(2)
            out = greedy_estimate(truth, prefix)
            if 0 in out.class_counts:
                absent_class += 1
                regions_full += 0 not in out.region_counts
        cell = next(
            p for p in run_recovery_experiment(spec).points
            if p.estimator == "greedy" and p.n == 2
        )
        assert regions_full > 0
        assert cell.fail_empty == absent_class

    @pytest.mark.parametrize("spec", _ENGINE_SPECS, ids=_ENGINE_IDS)
    def test_an_mv_or_greedy_recovery_saw_every_class(self, spec, monkeypatch):
        # per trial and grid prefix: a class with no sample cannot be placed
        # by a vote or a row argmax, so a recovery implies none is absent
        true_cols = np.asarray(resolve_model(spec)[1].to_region) - 1
        recovered = {"mv": 0, "greedy": 0}

        def checked(name, rule):
            def run(p):
                codes, cols = rule(p)
                hit = (codes == CODE_OK) & np.all(cols == true_cols, axis=1)
                assert np.all(p.class_counts[hit] > 0), name
                recovered[name] += int(hit.sum())
                return codes, cols

            return run

        monkeypatch.setattr(harness, "_ESTIMATORS", tuple(
            (name, checked(name, rule) if name in recovered else rule)
            for name, rule in _ESTIMATORS
        ))
        curve = run_recovery_experiment(spec)
        for name, count in recovered.items():
            assert count == sum(p.recovered for p in curve.points if p.estimator == name)


def _trial_at_a_time(spec):
    """Points of spec, each trial scored, summarised and ruled alone.

    Every trial draws its label noise even when spec.label_noise is 0, and
    every cell takes its own np.mean.
    """
    truth, perm, model = resolve_model(spec)
    true_cols = np.asarray(perm.to_region) - 1
    per_trial = []
    for t in range(spec.trials):
        data = _trial_data(spec, truth, perm, t)
        prefixes = prefix_summaries(model.log_scores(data.x), data.y, spec.k, spec.n_grid)
        codes = np.empty((len(_ESTIMATORS), len(spec.n_grid)), dtype=np.int8)
        logliks = np.full(codes.shape, np.nan)
        for e, (_, rule) in enumerate(_ESTIMATORS):
            rule_codes, cols = rule(prefixes)
            ok = rule_codes == CODE_OK
            recovered = ok & np.all(cols == true_cols, axis=1)
            codes[e] = np.where(recovered, _RECOVERED, rule_codes)
            logliks[e, ok] = prefixes.loglik(cols)[ok]
        per_trial.append((codes, logliks))
    codes = np.stack([c for c, _ in per_trial])
    logliks = np.stack([ll for _, ll in per_trial])
    points = []
    for e, (name, _) in enumerate(_ESTIMATORS):
        for g, n in enumerate(spec.n_grid):
            cell = codes[:, e, g]
            ll = logliks[:, e, g]
            ll = ll[~np.isnan(ll)]
            points.append(
                CurvePoint(
                    estimator=name,
                    n=n,
                    trials=spec.trials,
                    recovered=int(np.sum(cell == _RECOVERED)),
                    fail_empty=int(np.sum(cell == CODE_EMPTY_REGION)),
                    fail_tie=int(np.sum(cell == CODE_MAJORITY_TIE)),
                    fail_nonbij=int(np.sum(cell == CODE_NON_BIJECTIVE)),
                    mean_loglik=float(np.mean(ll)) if ll.size else None,
                )
            )
    return tuple(points)


def _csv_writer_text(spec, points):
    """curves.csv of points as csv.writer writes their fields."""
    rows = [list(CSV_COLUMNS)]
    for p in points:
        rows.append(
            [
                spec.family,
                str(spec.k),
                str(spec.dim),
                repr(float(spec.eta)),
                str(int(spec.perturbed)),
                p.estimator,
                str(p.n),
                str(p.trials),
                str(p.recovered),
                str(p.fail_empty),
                str(p.fail_tie),
                str(p.fail_nonbij),
                "" if p.mean_loglik is None else repr(p.mean_loglik),
                str(spec.seed),
            ]
        )
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


class TestChunkedEngineMatchesTrialAtATime:
    """Trials scored and summarised in chunks give the bytes of one at a time.

    The chunk cap is set so that a chunk holds one trial, about half the
    trials (so the last chunk is ragged) or every trial. The oracle draws
    label noise at rho = 0 too, which the engine skips.
    """

    @pytest.mark.parametrize("spec", _ENGINE_SPECS, ids=_ENGINE_IDS)
    @pytest.mark.parametrize("per_chunk", ["one", "ragged", "all"])
    def test_csv_bytes_equal(self, spec, per_chunk, monkeypatch):
        n_chunk = {"one": 1, "ragged": spec.trials // 2 + 1, "all": spec.trials}[per_chunk]
        k, sizes = spec.k, len(spec.n_grid)
        per_trial = spec.n_grid[-1] * k + sizes * k * k
        monkeypatch.setattr(harness, "_CHUNK_ENTRIES", n_chunk * per_trial)
        calls = []

        def counted(scores, *args):
            calls.append(len(scores))
            return prefix_summaries(scores, *args)

        monkeypatch.setattr(harness, "prefix_summaries", counted)
        text = run_recovery_experiment(spec).csv_text()
        chunks = -(-spec.trials // n_chunk)
        assert calls == [n_chunk] * (chunks - 1) + [spec.trials - n_chunk * (chunks - 1)]
        assert text == _csv_writer_text(spec, _trial_at_a_time(spec))

    @pytest.mark.parametrize(
        "spec",
        [
            ExperimentSpec(
                "custom", true_mixture=_two_atoms(0.2), model_mixture=_two_atoms(0.2),
                n_grid=_K2_FINE_GRID, trials=10, seed=5,
            ),
            small_spec(k=16, eta=0.5, n_grid=DEFAULT_N_GRID, trials=5),
        ],
        ids=["recovery_k2_fine", "recovery_k16"],
    )
    def test_benchmark_sized_experiments_run_as_one_chunk(self, spec, monkeypatch):
        scored, summarised = [], []
        log_scores = MixingMeasure.log_scores

        def count_scores(self, x):
            scored.append(len(x))
            return log_scores(self, x)

        def count_summaries(scores, *args):
            summarised.append(len(scores))
            return prefix_summaries(scores, *args)

        monkeypatch.setattr(MixingMeasure, "log_scores", count_scores)
        monkeypatch.setattr(harness, "prefix_summaries", count_summaries)
        run_recovery_experiment(spec)
        assert scored == [spec.trials * spec.n_grid[-1]]
        assert summarised == [spec.trials]


class TestCellsFromArrays:
    """Cells counted and averaged over all trials at once, bit for bit."""

    @pytest.mark.parametrize("trials", [1, 7, 8, 9, 16])
    def test_points_and_csv_equal_the_per_cell_oracle(self, trials):
        # n = 1 and 2 leave regions empty and votes tied, so every cell mixes
        # failures with successes at some trial count
        spec = small_spec(n_grid=(1, 2, 3, 5, 9, 17), trials=trials, label_noise=0.3)
        curve = run_recovery_experiment(spec)
        expected = _trial_at_a_time(spec)
        assert [repr(p) for p in curve.points] == [repr(p) for p in expected]
        assert curve.csv_text() == _csv_writer_text(spec, expected)
        if trials >= 7:
            failed = [p.fail_empty + p.fail_tie + p.fail_nonbij for p in expected]
            assert any(0 < f < trials for f in failed)
            assert any(p.mean_loglik is None for p in expected)

    @settings(max_examples=60, deadline=None)
    @given(
        trials=st.integers(1, 20),
        cells=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        ok_rate=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    )
    def test_cell_means_equal_np_mean_per_cell(self, trials, cells, seed, ok_rate):
        rng = np.random.default_rng(seed)
        values = rng.normal(-1.0, 10.0, (trials, cells)) * 10.0 ** rng.integers(-3, 4, (trials, cells))
        ok = rng.random((trials, cells)) < ok_rate
        expected = [
            float(np.mean(values[ok[:, j], j])) if ok[:, j].any() else None
            for j in range(cells)
        ]
        assert repr(harness._cell_means(ok, values)) == repr(expected)


class TestCsvFormat:
    def test_columns_and_rows(self, tmp_path):
        spec = small_spec(trials=4)
        curve = run_recovery_experiment(spec)
        rows = curve.csv_rows()
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + 3 * len(spec.n_grid)
        first = dict(zip(rows[0], rows[1]))
        assert first["family"] == "gaussian_grid"
        assert first["K"] == "4"
        assert first["eta"] == "1.0"
        assert first["perturbed"] == "0"
        assert first["seed"] == "7"

    def test_file_bytes_stable(self, tmp_path):
        curve = run_recovery_experiment(small_spec(trials=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        curve.to_csv(p1)
        run_recovery_experiment(small_spec(trials=4), threads=3).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_has_no_timing(self):
        curve = run_recovery_experiment(small_spec(trials=2))
        side = curve.sidecar_dict()
        assert set(side) == {"spec", "version"}
        assert curve.wall_time_s > 0.0
