"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible under ``pytest -s``), and enforces the stated tolerance and time
budget.  Tolerances are never loosened here: Monte-Carlo comparisons use the
half-widths reported by the estimators themselves, and one-sided bound checks
allow only the binomial noise of the trial count.
"""

import itertools
import json
import math
import time

import numpy as np
from scipy import stats

import permlearn as pl
from permlearn.cli import main as cli_main
from permlearn.matching import _as_weight_matrix, _best_two

THREADS = 4


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def two_atom(mu: float) -> pl.MixingMeasure:
    """Equal-weight pair of unit-variance lines at -mu and +mu."""
    return pl.MixingMeasure(
        [0.5, 0.5],
        [pl.Gaussian([-mu], [[1.0]]), pl.Gaussian([mu], [[1.0]])],
    )


def lehmer_rank(perm0: tuple) -> int:
    """Position of a 0-based permutation in lexicographic enumeration."""
    k = len(perm0)
    return sum(
        sum(1 for v in perm0[j + 1 :] if v < perm0[j]) * math.factorial(k - 1 - j)
        for j in range(k)
    )


# --------------------------------------------------------------------------
# 1. matching vs exhaustive enumeration


def test_criterion_01_matching_vs_enumeration():
    budget_s = 30.0
    t0 = time.perf_counter()
    checked = 0
    for k in range(2, 9):
        rng = np.random.default_rng([7, k])
        perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
        # flat index of entry (j, perm[j]) of a row-major k x k matrix
        cells = np.arange(k) * k + perms
        for i in range(1000):
            w = rng.normal(size=(k, k))
            best = pl.max_weight_matching(w)
            second = _best_two(_as_weight_matrix(w))[1]
            totals = np.take(w.ravel(), cells).sum(axis=1)
            assert best.total_weight == totals.max(), (k, i, "optimum")
            ridx = lehmer_rank(tuple(v - 1 for v in best.permutation.to_region))
            others = totals[np.arange(totals.size) != ridx]
            assert second.total_weight == others.max(), (k, i, "second best")
            if i < 100:
                bf = pl.brute_force_matching(w)
                assert bf.total_weight == totals.max(), (k, i, "exhaustive helper")
                assert bf.permutation == best.permutation or not bf.is_unique
            checked += 1
    elapsed = time.perf_counter() - t0
    check(
        1,
        elapsed < budget_s,
        f"matching matched enumeration on {checked} instances, K=2..8, "
        f"{elapsed:.1f}s (budget {budget_s:.0f}s)",
    )


# --------------------------------------------------------------------------
# 2. the matching-based estimator maximizes the assignment log-likelihood


def test_criterion_02_mle_attains_loglik_maximum():
    rng = np.random.default_rng(202)
    failures = []
    for i in range(200):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        means = rng.normal(scale=2.0, size=(k, d))
        atoms = [pl.Gaussian(means[j], np.eye(d) * rng.uniform(0.5, 2.0)) for j in range(k)]
        measure = pl.MixingMeasure(rng.dirichlet(np.ones(k)), atoms)
        perm = pl.Permutation(tuple(int(v) + 1 for v in rng.permutation(k)))
        data = pl.sample_labeled(measure, perm, int(rng.integers(5, 51)), rng)
        out = pl.mle_estimate(measure, data)
        summary = pl.summarize(measure, data)
        best = max(
            summary.loglik(np.array([p]))[0] for p in itertools.permutations(range(k))
        )
        found = np.array([out.permutation.to_region]) - 1
        if not (out.ok and summary.loglik(found)[0] == best):
            failures.append(i)
    check(
        2,
        not failures,
        f"estimator hit the exhaustive log-likelihood optimum on 200/200 "
        f"instances (K<=6); failures: {failures or 'none'}",
    )


# --------------------------------------------------------------------------
# 3. vote-margin estimate against the symmetric-pair closed form


def test_criterion_03_mv_gap_closed_form():
    budget_s = 10.0
    t0 = time.perf_counter()
    samples = 100_000
    rows = []
    ok = True
    for mu in (0.25, 0.5, 1.0):
        measure = two_atom(mu)
        report = pl.estimate_gaps(
            measure, measure, pl.Permutation.identity(2), samples=samples, seed=31,
            which={"mv"},
        )
        oracle = float(stats.norm.cdf(mu) - stats.norm.cdf(-mu))
        err = abs(report.mv_gap - oracle)
        ok = ok and err <= report.mv_half_width
        rows.append(f"mu={mu}: |{report.mv_gap:.4f}-{oracle:.4f}|={err:.4f}<=hw={report.mv_half_width:.4f}")
    elapsed = time.perf_counter() - t0
    check(
        3,
        ok and elapsed < budget_s,
        f"vote margins matched the closed form within reported half-widths at "
        f"{samples} samples ({'; '.join(rows)}; {elapsed:.1f}s, budget {budget_s:.0f}s)",
    )


# --------------------------------------------------------------------------
# 4. sample-complexity ratio and scaling exponent on the symmetric pair

N_STAR_GRID = tuple(int(v) for v in np.unique(np.rint(np.geomspace(4, 4096, 49))))


def _n_star(curve: pl.RecoveryCurve, estimator: str) -> int:
    frac = curve.recovery_fraction(estimator)
    hits = np.nonzero(frac >= 0.9)[0]
    assert hits.size, f"{estimator} never reached 90% on the grid"
    return int(curve.spec.n_grid[hits[0]])


def test_criterion_04_sample_complexity_ratio_and_slope():
    budget_s = 600.0
    t0 = time.perf_counter()
    n_stars = {}
    for mu in (0.1, 0.2, 0.25, 0.4):
        measure = two_atom(mu)
        spec = pl.ExperimentSpec(
            family="custom",
            n_grid=N_STAR_GRID,
            trials=500,
            seed=101,
            true_mixture=measure,
            model_mixture=measure,
        )
        curve = pl.run_recovery_experiment(spec, threads=THREADS)
        n_stars[mu] = (_n_star(curve, "mle"), _n_star(curve, "mv"))

    ratio = n_stars[0.25][1] / n_stars[0.25][0]
    mus = np.array([0.1, 0.2, 0.4])
    slopes = {}
    for est, j in (("mle", 0), ("mv", 1)):
        counts = np.array([n_stars[mu][j] for mu in mus], dtype=float)
        slopes[est] = float(np.polyfit(np.log(mus), np.log(counts), 1)[0])
    elapsed = time.perf_counter() - t0

    ok = (
        2.0 <= ratio <= 8.0
        and abs(slopes["mle"] + 2.0) <= 0.5
        and abs(slopes["mv"] + 2.0) <= 0.5
        and elapsed < budget_s
    )
    check(
        4,
        ok,
        f"90%-recovery sample counts {n_stars}; vote/matching ratio "
        f"{ratio:.2f} in [2,8]; log-log slopes mle={slopes['mle']:.2f}, "
        f"mv={slopes['mv']:.2f} within -2+/-0.5 ({elapsed:.0f}s, budget {budget_s:.0f}s)",
    )


# --------------------------------------------------------------------------
# 5. estimated margins of random instances are positive beyond their noise


def test_criterion_05_random_instance_margins():
    samples = 100_000
    worst_margin = np.inf
    worst_gap = np.inf
    for i in range(20):
        k = (2, 4, 9)[i % 3]
        spec = pl.ExperimentSpec(family="gaussian_grid", k=k, dim=2, eta=1.0, seed=3000 + i)
        truth, perm = pl.generate_true_mixture(spec)
        rep = pl.estimate_gaps(truth, truth, perm, samples=samples, seed=500 + i)
        assert not rep.empty_regions, (i, rep.empty_regions)
        margins = np.asarray(rep.region_margins)
        hws = np.asarray(rep.margin_half_widths)
        worst_margin = min(worst_margin, float((margins - hws).min()))
        worst_gap = min(worst_gap, rep.mle_gap + rep.mle_half_width)
    ok = worst_margin > 0.0 and worst_gap >= 0.0
    check(
        5,
        ok,
        f"20 random instances (K in 2/4/9) at {samples} samples: min "
        f"(margin - half-width) = {worst_margin:.3f} > 0; min "
        f"(matching gap + half-width) = {worst_gap:.3f} >= 0",
    )


# --------------------------------------------------------------------------
# 6. recovery-probability lower bounds never exceed observed recovery

BOUND_TRIALS = 500

# (label, kind, param, n, check mv-route, check mle-route); the rows were
# calibrated so every checked bound lands at or above one half.
BOUND_SPECS = [
    ("pair mu=0.50", "pair", 0.50, 250, True, False),
    ("pair mu=0.50", "pair", 0.50, 350, True, False),
    ("pair mu=0.60", "pair", 0.60, 250, True, True),
    ("pair mu=0.60", "pair", 0.60, 300, False, True),
    ("pair mu=0.75", "pair", 0.75, 150, False, True),
    ("pair mu=0.75", "pair", 0.75, 200, True, True),
    ("pair mu=1.00", "pair", 1.00, 120, True, True),
    ("pair mu=1.00", "pair", 1.00, 150, False, True),
    ("pair mu=1.00", "pair", 1.00, 200, True, True),
    ("pair mu=1.25", "pair", 1.25, 100, True, True),
    ("pair mu=1.25", "pair", 1.25, 150, False, True),
    ("grid K=4 s=5", "grid4", 5, 600, True, False),
    ("grid K=4 s=6", "grid4", 6, 600, True, False),
    ("grid K=4 s=7", "grid4", 7, 600, True, False),
    ("grid K=2 s=8", "grid2", 8, 300, False, True),
]


def _bound_measure(kind, param) -> pl.MixingMeasure:
    if kind == "pair":
        return two_atom(param)
    k = 4 if kind == "grid4" else 2
    spec = pl.ExperimentSpec(family="gaussian_grid", k=k, dim=2, eta=1.0, seed=param)
    return pl.generate_true_mixture(spec)[0]


def test_criterion_06_bound_soundness():
    slack = 3.0 * math.sqrt(0.25 / BOUND_TRIALS)
    mv_checked = mle_checked = 0
    violations = []
    cache = {}
    for label, kind, param, n, use_mv, use_mle in BOUND_SPECS:
        key = (kind, param)
        if key not in cache:
            cache[key] = _bound_measure(kind, param)
        measure = cache[key]
        k = measure.n_atoms
        ident = pl.Permutation.identity(k)
        gaps = pl.estimate_gaps(measure, measure, ident, samples=100_000, seed=11)

        rec_mv = rec_mle = 0
        for t in range(BOUND_TRIALS):
            data = pl.sample_labeled(measure, ident, n, np.random.default_rng([40, t]))
            if use_mv:
                mv = pl.mv_estimate(measure, data)
                rec_mv += mv.ok and mv.permutation == ident
            if use_mle:
                mle = pl.mle_estimate(measure, data)
                rec_mle += mle.ok and mle.permutation == ident

        if use_mv:
            rng = np.random.default_rng(12)
            draw = pl.sample_labeled(measure, ident, 100_000, rng)
            freq = np.bincount(np.asarray(pl.region_of(measure, draw.x)) - 1, minlength=k)
            m_expected = np.floor(n * freq / draw.n).astype(int)
            bound = pl.mv_recovery_bound(k, m_expected, gaps.mv_gap)
            assert bound >= 0.5, (label, n, "vote bound below 1/2 - spec miscalibrated")
            mv_checked += 1
            if rec_mv / BOUND_TRIALS < bound - slack:
                violations.append((label, n, "mv", bound, rec_mv / BOUND_TRIALS))
        if use_mle:
            duals = [
                pl.chernoff_exponent(measure, b, gaps.mle_gap / 3.0, samples=100_000, seed=13 + b)
                for b in range(1, k + 1)
            ]
            assert not any(d.diverged for d in duals), (label, "diverged dual")
            exponent = min(d.value for d in duals)
            counts = np.floor(n * np.asarray(measure.weights)).astype(int)
            bound = pl.mle_recovery_bound(k, counts, exponent)
            assert bound >= 0.5, (label, n, "matching bound below 1/2 - spec miscalibrated")
            mle_checked += 1
            if rec_mle / BOUND_TRIALS < bound - slack:
                violations.append((label, n, "mle", bound, rec_mle / BOUND_TRIALS))

    ok = mv_checked >= 10 and mle_checked >= 10 and not violations
    check(
        6,
        ok,
        f"lower bounds held on {mv_checked} vote specs and {mle_checked} "
        f"matching specs over {BOUND_TRIALS} trials each (slack {slack:.3f}); "
        f"violations: {violations or 'none'}",
    )


# --------------------------------------------------------------------------
# 7. the sample-size rule actually delivers its target recovery


def test_criterion_07_required_sample_size_end_to_end():
    trials = 300
    delta = 0.2
    measure = two_atom(1.0)
    ident = pl.Permutation.identity(2)
    gap = pl.estimate_gaps(
        measure, measure, ident, samples=100_000, seed=11, which={"mv"}
    ).mv_gap
    n_req = pl.required_sample_size(2, delta, "mv", gap)
    recovered = 0
    for t in range(trials):
        data = pl.sample_labeled(measure, ident, n_req, np.random.default_rng([909, t]))
        out = pl.mv_estimate(measure, data)
        recovered += out.ok and out.permutation == ident
    floor = 1.0 - delta - 3.0 * math.sqrt(0.16 / trials)
    freq = recovered / trials
    check(
        7,
        freq >= floor,
        f"with measured margin {gap:.4f} the rule asked for n={n_req}; "
        f"recovery {freq:.3f} >= {floor:.3f} over {trials} trials",
    )


# --------------------------------------------------------------------------
# 8. transport distance behaves like a metric


def _random_three_atom(rng) -> pl.MixingMeasure:
    weights = rng.dirichlet(np.ones(3) * 2.0)
    atoms = [
        pl.Gaussian([rng.uniform(-3, 3)], [[rng.uniform(0.5, 1.5) ** 2]])
        for _ in range(3)
    ]
    return pl.MixingMeasure(weights, atoms)


def test_criterion_08_transport_metric_suite():
    rng = np.random.default_rng(88)
    problems = []

    a = _random_three_atom(rng)
    b = _random_three_atom(rng)
    d_aa, plan_aa = pl.wasserstein1(a, a)
    if d_aa != 0.0 or not np.allclose(np.diag(plan_aa.matrix), a.weights):
        problems.append("identity")
    d_ab = pl.wasserstein1(a, b)[0]
    d_ba = pl.wasserstein1(b, a)[0]
    if abs(d_ab - d_ba) > 1e-9:
        problems.append("symmetry")
    order = [2, 0, 1]
    shuffled = pl.MixingMeasure(
        np.asarray(b.weights)[order], [b.components[i] for i in order]
    )
    if pl.wasserstein1(b, shuffled)[0] > 1e-12:
        problems.append("self distance under atom reordering")
    if abs(pl.wasserstein1(a, shuffled)[0] - d_ab) > 1e-9:
        problems.append("atom-order invariance")

    triangle_violations = 0
    for _ in range(100):
        x, y, z = (_random_three_atom(rng) for _ in range(3))
        d_xy, p_xy = pl.wasserstein1(x, y)
        d_yz, p_yz = pl.wasserstein1(y, z)
        d_xz, p_xz = pl.wasserstein1(x, z)
        slack = 3.0 * (p_xy.total_half_width + p_yz.total_half_width + p_xz.total_half_width)
        if d_xz > d_xy + d_yz + slack + 1e-9:
            triangle_violations += 1
    if triangle_violations:
        problems.append(f"{triangle_violations} triangle violations")

    worst_single = 0.0
    for mu1, mu2 in ((0.0, 0.5), (-1.0, 2.0), (0.3, 0.31)):
        one = pl.MixingMeasure([1.0], [pl.Gaussian([mu1], [[1.0]])])
        other = pl.MixingMeasure([1.0], [pl.Gaussian([mu2], [[1.0]])])
        closed = 2.0 * stats.norm.cdf(abs(mu1 - mu2) / 2.0) - 1.0
        worst_single = max(worst_single, abs(pl.wasserstein1(one, other)[0] - closed))
    if worst_single > 1e-3:
        problems.append(f"single-atom closed form off by {worst_single:.2e}")

    check(
        8,
        not problems,
        f"identity/symmetry/reordering exact, 100 random triples obeyed the "
        f"triangle inequality, single-atom error {worst_single:.1e} <= 1e-3; "
        f"problems: {problems or 'none'}",
    )


# --------------------------------------------------------------------------
# 9. synthetic-grid recovery study at desk scale


def test_criterion_09_recovery_grid():
    budget_s = 900.0
    t0 = time.perf_counter()
    curves = {}
    for k in (2, 4, 9, 16):
        for eta in (1.0, 0.5):
            spec = pl.ExperimentSpec(
                family="gaussian_grid", k=k, dim=2, eta=eta, trials=50, seed=606
            )
            curves[(k, eta)] = pl.run_recovery_experiment(spec, threads=THREADS)
    elapsed = time.perf_counter() - t0

    n_grid = np.asarray(curves[(2, 1.0)].spec.n_grid)
    early = n_grid <= 20
    early_recovery = {
        k: float(curves[(k, 1.0)].recovery_fraction("mle")[early].max())
        for k in (2, 4, 9)
    }
    hard = curves[(16, 0.5)]
    mle_tail = float(hard.recovery_fraction("mle")[-1])
    mv_tail = float(hard.recovery_fraction("mv")[-1])

    ok = (
        all(v >= 0.98 for v in early_recovery.values())
        and mle_tail > mv_tail
        and elapsed < budget_s
    )
    check(
        9,
        ok,
        f"well-separated grids recovered early (best recovery at n<=20: "
        f"{early_recovery}); hardest cell at n=99: matching {mle_tail:.2f} > "
        f"votes {mv_tail:.2f}; full grid in {elapsed:.0f}s (budget {budget_s:.0f}s)",
    )


# --------------------------------------------------------------------------
# 10. excess risk is zero at the truth and grows along a perturbation path


def test_criterion_10_excess_risk_path():
    scales = (0.0, 0.1, 0.3)
    seeds = range(1000, 1020)
    means = []
    exact_zero = True
    for scale in scales:
        values = []
        for i, seed in enumerate(seeds):
            spec = pl.ExperimentSpec(family="gaussian_grid", k=4, dim=2, eta=1.0, seed=seed)
            truth, perm = pl.generate_true_mixture(spec)
            model = pl.perturb_mixture(
                truth,
                seed=seed,
                mean_shift_scale=scale,
                scale_covariances=False,
                jitter_weights=False,
            )
            est = pl.misclassification_rate(model, perm, truth, perm, samples=50_000, seed=77 + i)
            values.append(est.excess)
            if scale == 0.0 and est.excess != 0.0:
                exact_zero = False
        means.append(float(np.mean(values)))
    nondecreasing = all(means[i] <= means[i + 1] for i in range(len(means) - 1))
    check(
        10,
        exact_zero and nondecreasing,
        f"paired excess risk exactly 0 at the truth and nondecreasing along "
        f"the mean-shift path: {dict(zip(scales, [round(m, 5) for m in means]))}",
    )


# --------------------------------------------------------------------------
# 11. command-line runs are byte-reproducible


def _run_cli(argv) -> int:
    return cli_main([str(a) for a in argv])


def _snapshot(out_dir):
    """Map file name -> bytes, with the timing field stripped from the manifest."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_time_s", None)
            data = json.dumps(doc, sort_keys=True).encode()
        files[path.name] = data
    return files


def test_criterion_11_cli_reruns_byte_identical(tmp_path):
    mismatches = []

    def compare(tag, first, second):
        a, b = _snapshot(first), _snapshot(second)
        if set(a) != set(b):
            mismatches.append(f"{tag}: file sets differ")
        else:
            for name in a:
                if a[name] != b[name]:
                    mismatches.append(f"{tag}: {name}")

    gen_dirs = [tmp_path / f"gen{i}" for i in (1, 2)]
    for d in gen_dirs:
        code = _run_cli(
            ["gen", "--family", "gaussian-grid-perturbed", "--k", 4, "--dim", 2,
             "--eta", 1.0, "--seed", 3, "--samples", 60, "--out-dir", d]
        )
        assert code == 0
    compare("gen", *gen_dirs)

    est_dirs = [tmp_path / f"est{i}" for i in (1, 2)]
    for d in est_dirs:
        code = _run_cli(
            ["estimate", "--mixture", gen_dirs[0] / "mixture.json",
             "--data", gen_dirs[0] / "data.csv", "--method", "all", "--out-dir", d]
        )
        assert code == 0
    compare("estimate", *est_dirs)

    ana_dirs = [tmp_path / f"ana{i}" for i in (1, 2)]
    for d in ana_dirs:
        code = _run_cli(
            ["analyze", "--truth", gen_dirs[0] / "mixture.json",
             "--model", gen_dirs[0] / "model.json", "--gap-mle", "--gap-mv",
             "--risk", "--mc", 20_000, "--seed", 5, "--out-dir", d]
        )
        assert code == 0
    compare("analyze", *ana_dirs)

    exp_dirs = [tmp_path / f"exp{i}" for i in (1, 2, 3)]
    for d, threads in zip(exp_dirs, (1, 3, 3)):
        code = _run_cli(
            ["experiment", "--family", "gaussian-grid", "--k", 4, "--dim", 2,
             "--eta", 1.0, "--n-grid", "5,10,20,40", "--trials", 25,
             "--seed", 9, "--threads", threads, "--out-dir", d]
        )
        assert code == 0
    compare("experiment threads 1 vs 3", exp_dirs[0], exp_dirs[1])
    compare("experiment rerun", exp_dirs[1], exp_dirs[2])

    check(
        11,
        not mismatches,
        f"gen/estimate/analyze/experiment reruns byte-identical (timing field "
        f"aside), experiment invariant to thread count; mismatches: {mismatches or 'none'}",
    )
