"""Seeded synthetic families and Monte-Carlo recovery experiments.

A family draws a ground-truth mixing measure from a seed; an experiment runs
all three estimators over a grid of sample sizes, reusing each trial's draw
as nested prefixes so the curves are comparable point to point. Trial t of an
experiment seeded with s always consumes the stream ``default_rng([s, t])``,
so single results can be reproduced without rerunning the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import __version__
from .estimators import (
    CODE_EMPTY_REGION,
    CODE_MAJORITY_TIE,
    CODE_NON_BIJECTIVE,
    CODE_OK,
    FAILURES,
    PrefixSummaries,
    greedy_prefixes,
    mle_prefixes,
    mv_prefixes,
    prefix_summaries,
)
from .mixtures import (
    Gaussian,
    GaussianMixture,
    MixingMeasure,
    Permutation,
    _json_field,
    mixture_from_dict,
    mixture_to_dict,
    sample_labeled,
)

__all__ = [
    "FAMILIES",
    "DEFAULT_N_GRID",
    "ExperimentSpec",
    "CurvePoint",
    "RecoveryCurve",
    "generate_true_mixture",
    "perturb_mixture",
    "resolve_model",
    "run_recovery_experiment",
]

FAMILIES = (
    "gaussian_grid",
    "gaussian_grid_perturbed",
    "mixture_of_mixtures",
    "mixture_of_mixtures_perturbed",
    "custom",
)
DEFAULT_N_GRID = tuple(range(3, 100, 3))

# the scalar and grid fields of an experiment spec, by JSON kind
_SPEC_FIELDS = {
    "k": "an integer",
    "dim": "an integer",
    "eta": "a number",
    "n_grid": "a list of integers",
    "trials": "an integer",
    "label_noise": "a number",
    "seed": "an integer",
}

# Grid geometry: unit spacing before the separation factor scales the means.
# The covariance ceiling keeps neighbouring atoms nearly disjoint (pairwise
# total variation above 0.9 at separation 1).
GRID_TARGET_STD = 0.25
SUBS_PER_CLASS = 3
SUB_OFFSET_STD = 0.15
SUB_TARGET_STD = 0.12

MEAN_SHIFT_STD = math.sqrt(0.1)
COV_FACTORS = (0.5, 2.0)
WEIGHT_JITTER = (0.8, 1.25)

_PERTURB_STREAM = 2**32 - 1
# (name, rule) pairs, read at call time; each rule maps PrefixSummaries to
# (codes, columns) for the whole grid.
_ESTIMATORS: tuple[tuple[str, Callable], ...] = (
    ("mle", mle_prefixes),
    ("mv", mv_prefixes),
    ("greedy", greedy_prefixes),
)
# Cell outcome codes: the rules' codes, with a successful permutation that
# equals the true one recoded as _RECOVERED.
_RECOVERED = len(FAILURES)
# Entries a chunk of trials may hold (see run_recovery_experiment); it fits
# the 10 trials of 4096 points at K = 2 and 5 of 99 points at K = 16.
_CHUNK_ENTRIES = 2**17

CSV_COLUMNS = (
    "family,K,dim,eta,perturbed,estimator,n,trials,recovered,"
    "fail_empty,fail_tie,fail_nonbij,mean_loglik,seed"
).split(",")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one recovery experiment.

    For the synthetic families, (family, k, dim, eta, seed) pin the truth;
    the 'custom' family carries explicit true/model measures instead and
    takes k and dim from them.
    """

    family: str
    k: int = 4
    dim: int = 2
    eta: float = 1.0
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    trials: int = 50
    label_noise: float = 0.0
    seed: int = 0
    true_mixture: MixingMeasure | None = None
    model_mixture: MixingMeasure | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid):
            raise ValueError("n_grid must be nonempty positive sample sizes")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.family == "custom":
            if self.true_mixture is None or self.model_mixture is None:
                raise ValueError("custom experiments need true and model measures")
            if self.true_mixture.n_atoms != self.model_mixture.n_atoms:
                raise ValueError("true and model measures must share atom count")
            if self.true_mixture.dim != self.model_mixture.dim:
                raise ValueError("true and model measures must share dimension")
            object.__setattr__(self, "k", self.true_mixture.n_atoms)
            object.__setattr__(self, "dim", self.true_mixture.dim)
        else:
            if self.true_mixture is not None or self.model_mixture is not None:
                raise ValueError("explicit measures are only valid with family 'custom'")
            if self.k < 2:
                raise ValueError("synthetic families need k >= 2")
            if self.dim < 2:
                raise ValueError("grid families need dim >= 2")
            if not 0.0 < self.eta < math.inf:
                raise ValueError("separation eta must be finite and > 0")
        if self.k == 1 and self.label_noise > 0.0:
            raise ValueError("label noise is meaningless with a single class")

    @property
    def perturbed(self) -> bool:
        return self.family.endswith("_perturbed")

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["n_grid"] = list(self.n_grid)
        for key in ("true_mixture", "model_mixture"):
            if d[key] is not None:
                d[key] = mixture_to_dict(d[key])
        return d


def _spec_fields(d: dict) -> dict:
    """The ``ExperimentSpec`` arguments that the non-null fields of d set.

    Each field is converted to the type its argument takes; one that does not
    convert raises a ValueError that names it.
    """
    kwargs = {
        key: _json_field(d, key, kind)
        for key, kind in _SPEC_FIELDS.items()
        if d.get(key) is not None
    }
    for key in ("true_mixture", "model_mixture"):
        if d.get(key) is not None:
            kwargs[key] = mixture_from_dict(d[key])
    if d.get("family") is not None:
        kwargs["family"] = str(d["family"])
    return kwargs


def _grid_means(k: int, dim: int) -> np.ndarray:
    """First k sites of the smallest square lattice, centered, unit spacing."""
    side = math.isqrt(k - 1) + 1
    sites = [(float(c), float(-r)) for r in range(side) for c in range(side)][:k]
    means = np.zeros((k, dim))
    means[:, :2] = np.asarray(sites) - np.asarray(sites).mean(axis=0)
    return means


def _random_spd(rng: np.random.Generator, dim: int, target_std: float) -> np.ndarray:
    a = rng.normal(0.0, 0.15, (dim, dim))
    s = a @ a.T + 0.1 * np.eye(dim)
    top = float(np.linalg.eigvalsh(s)[-1])
    return s * (target_std**2 / top)


def generate_true_mixture(spec: ExperimentSpec) -> tuple[MixingMeasure, Permutation]:
    """Draw the ground-truth measure for a spec; the true assignment is identity.

    Atom means sit on a centered square lattice with spacing ``eta``;
    covariances (and, for the nested family, the sub-component offsets) do not
    scale with ``eta``, so smaller separations genuinely overlap more. Draw
    order from one stream: atom weights first, then per-atom shape draws.
    """
    if spec.family == "custom":
        return spec.true_mixture, Permutation.identity(spec.k)
    rng = np.random.default_rng(spec.seed)
    k, dim = spec.k, spec.dim
    raw = rng.uniform(size=k)
    weights = raw / raw.sum()
    centers = spec.eta * _grid_means(k, dim)
    components = []
    if spec.family.startswith("gaussian_grid"):
        for b in range(k):
            components.append(Gaussian(centers[b], _random_spd(rng, dim, GRID_TARGET_STD)))
    else:
        for b in range(k):
            offsets = rng.normal(0.0, SUB_OFFSET_STD, (SUBS_PER_CLASS, dim))
            sub_raw = rng.uniform(size=SUBS_PER_CLASS)
            parts = [
                Gaussian(centers[b] + offsets[j], _random_spd(rng, dim, SUB_TARGET_STD))
                for j in range(SUBS_PER_CLASS)
            ]
            components.append(GaussianMixture(sub_raw / sub_raw.sum(), parts))
    return MixingMeasure(weights, components), Permutation.identity(k)


def _perturb_gaussian(
    g: Gaussian, rng: np.random.Generator, mean_shift_scale: float, scale_cov: bool
) -> Gaussian:
    shift = rng.normal(0.0, MEAN_SHIFT_STD, g.dim)
    factor = float(rng.choice(COV_FACTORS))
    return Gaussian(
        g.mean + mean_shift_scale * shift, g.cov * (factor if scale_cov else 1.0)
    )


def perturb_mixture(
    measure: MixingMeasure,
    seed: int | np.random.Generator,
    mean_shift_scale: float = 1.0,
    scale_covariances: bool = True,
    jitter_weights: bool = True,
) -> MixingMeasure:
    """Misspecify a measure: shift means, rescale covariances, jitter weights.

    All random draws are consumed regardless of the flags, so the same seed
    yields the same shift directions at every ``mean_shift_scale`` — scaling
    the argument moves the model along one fixed misspecification path.
    """
    if mean_shift_scale < 0.0:
        raise ValueError("mean_shift_scale must be >= 0")
    rng = np.random.default_rng(seed)
    components = []
    for comp in measure.components:
        if isinstance(comp, Gaussian):
            components.append(
                _perturb_gaussian(comp, rng, mean_shift_scale, scale_covariances)
            )
        elif isinstance(comp, GaussianMixture):
            parts = [
                _perturb_gaussian(p, rng, mean_shift_scale, scale_covariances)
                for p in comp.parts
            ]
            components.append(GaussianMixture(comp.weights, parts))
        else:
            raise ValueError("only Gaussian-based atoms can be perturbed")
    jitter = rng.uniform(*WEIGHT_JITTER, measure.n_atoms)
    weights = measure.weights * jitter if jitter_weights else measure.weights
    weights = weights / weights.sum()
    return MixingMeasure(weights, components, labels=measure.labels)


@dataclass(frozen=True)
class CurvePoint:
    """Aggregated outcomes of one (estimator, sample size) cell.

    ``fail_empty`` counts trials whose estimator failed with
    ``empty_region``. For greedy that failure means a *class* had no
    samples (its row argmax is undefined), not that a region was empty.
    ``mean_loglik`` averages the successful trials' log-likelihoods in trial
    order and is None when every trial failed.
    """

    estimator: str
    n: int
    trials: int
    recovered: int
    fail_empty: int
    fail_tie: int
    fail_nonbij: int
    mean_loglik: float | None


@dataclass(frozen=True)
class RecoveryCurve:
    """All cells of one experiment plus the ExperimentSpec that produced them."""

    spec: ExperimentSpec
    points: tuple[CurvePoint, ...]

    def recovery_fraction(self, estimator: str) -> np.ndarray:
        """Recovery frequency per n_grid entry for one estimator."""
        by_n = {p.n: p for p in self.points if p.estimator == estimator}
        if len(by_n) != len(self.spec.n_grid):
            raise ValueError(f"unknown estimator {estimator!r}")
        return np.array(
            [by_n[n].recovered / by_n[n].trials for n in self.spec.n_grid]
        )

    def csv_rows(self) -> list[list[str]]:
        """The fields of csv_text(), the header row first."""
        return [line.split(",") for line in self.csv_text().splitlines()]

    def csv_text(self) -> str:
        """curves.csv: the header, then one line per point, each ending in a newline.

        No field can hold a comma, quote or line break (family and estimator
        names are fixed words, the rest numbers), so no field is quoted and
        the text is what ``csv.writer`` writes for these rows.
        """
        s = self.spec
        head = f"{s.family},{s.k},{s.dim},{float(s.eta)!r},{int(s.perturbed)},"
        tail = f",{s.seed}\n"
        lines = [",".join(CSV_COLUMNS) + "\n"]
        lines += [
            f"{head}{p.estimator},{p.n},{p.trials},{p.recovered},{p.fail_empty},"
            f"{p.fail_tie},{p.fail_nonbij},"
            f"{'' if p.mean_loglik is None else repr(p.mean_loglik)}{tail}"
            for p in self.points
        ]
        return "".join(lines)

    def to_csv(self, path) -> None:
        """Write csv_text() to path."""
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    def sidecar_dict(self) -> dict:
        """Spec echo written next to the CSV; excludes timing by design."""
        return {"spec": self.spec.to_dict(), "version": __version__}


def _chunk_summaries(
    spec: ExperimentSpec,
    truth: MixingMeasure,
    true_perm: Permutation,
    model: MixingMeasure,
    trials: range,
) -> PrefixSummaries:
    """Grid prefix summaries of trials, trial-major, from one log_scores call.

    Trial t draws its points and label noise from ``default_rng([seed, t])``.
    """
    k, n_max = spec.k, spec.n_grid[-1]
    xs, ys = [], []
    for t in trials:
        rng = np.random.default_rng([spec.seed, t])
        data = sample_labeled(truth, true_perm, n_max, rng)
        y = data.y
        if k > 1 and spec.label_noise > 0.0:
            # The noise draws end each trial's stream: every noise level
            # shares the trial's points, and every positive level its flips.
            flip = rng.random(n_max) < spec.label_noise
            wrong = rng.integers(1, k, size=n_max)
            y = np.where(flip, (y - 1 + wrong) % k + 1, y)
        xs.append(data.x)
        ys.append(y)
    scores = model.log_scores(np.concatenate(xs)).reshape(len(trials), n_max, k)
    return prefix_summaries(np.moveaxis(scores, -1, 0), ys, k, spec.n_grid)


def resolve_model(spec: ExperimentSpec) -> tuple[MixingMeasure, Permutation, MixingMeasure]:
    """Truth, true assignment, and the (possibly misspecified) fitted model."""
    truth, true_perm = generate_true_mixture(spec)
    if spec.family == "custom":
        model = spec.model_mixture
    elif spec.perturbed:
        model = perturb_mixture(truth, np.random.default_rng([spec.seed, _PERTURB_STREAM]))
    else:
        model = truth
    return truth, true_perm, model


def _cell_means(ok: np.ndarray, values: np.ndarray) -> list[float | None]:
    """Per column, the mean of values over the rows where ok (None if none).

    ok and values have shape (trials, cells). Cells with the same count c of
    ok trials are reduced together along a contiguous length-c axis, which
    gives each the pairwise-sum bits ``np.mean`` gives its c values alone.
    """
    ok, values = ok.T, values.T
    counts = ok.sum(axis=1)
    means = np.empty(counts.size)
    for c in np.unique(counts[counts > 0]):
        rows = np.flatnonzero(counts == c)
        picked = values[rows][ok[rows]].reshape(rows.size, c)
        means[rows] = np.add.reduce(picked, axis=1) / c
    return [m if c else None for c, m in zip(counts.tolist(), means.tolist())]


def run_recovery_experiment(spec: ExperimentSpec, threads: int = 1) -> RecoveryCurve:
    """Run every estimator over the sample-size grid for spec.trials draws.

    Each trial draws once at the largest grid size. Per chunk of trials, one
    log_scores call scores the samples, one prefix_summaries call summarises
    all grid prefixes and each rule runs once; then every cell is counted
    and averaged over all trials in a few array passes. A chunk holds as
    many trials as fit in _CHUNK_ENTRIES entries, at n_max x K scores and
    G x K^2 summary weights per trial (G grid sizes), and at least one, so
    the cap bounds the memory of the chunk's scores and summaries. Neither
    the chunking nor the array-built cells change a bit of the result: it
    equals running the trials one at a time and each cell's np.mean.
    ``threads`` must be >= 1 and is accepted for compatibility only; results
    never depend on it.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    truth, true_perm, model = resolve_model(spec)
    k, n_max, sizes = spec.k, spec.n_grid[-1], len(spec.n_grid)
    per_chunk = max(1, _CHUNK_ENTRIES // (n_max * k + sizes * k * k))
    true_cols = np.asarray(true_perm.to_region) - 1
    # outcome code and log-likelihood per trial and cell
    codes = np.empty((spec.trials, len(_ESTIMATORS), sizes), dtype=np.int8)
    logliks = np.empty(codes.shape)
    for lo in range(0, spec.trials, per_chunk):
        hi = min(lo + per_chunk, spec.trials)
        prefixes = _chunk_summaries(spec, truth, true_perm, model, range(lo, hi))
        for e, (_, rule) in enumerate(_ESTIMATORS):
            rule_codes, cols = rule(prefixes)
            recovered = (rule_codes == CODE_OK) & np.all(cols == true_cols, axis=1)
            codes[lo:hi, e] = np.where(recovered, _RECOVERED, rule_codes).reshape(-1, sizes)
            logliks[lo:hi, e] = prefixes.loglik(cols).reshape(-1, sizes)
    codes = codes.reshape(spec.trials, -1)
    # per cell, its trials with each outcome, in CurvePoint's field order
    outcomes = [_RECOVERED, CODE_EMPTY_REGION, CODE_MAJORITY_TIE, CODE_NON_BIJECTIVE]
    tallies = np.sum(codes[..., np.newaxis] == outcomes, axis=0).tolist()
    means = _cell_means((codes == CODE_OK) | (codes == _RECOVERED), logliks.reshape(codes.shape))
    cells = [(name, n) for name, _ in _ESTIMATORS for n in spec.n_grid]
    points = tuple(
        CurvePoint(name, n, spec.trials, *tally, mean)
        for (name, n), tally, mean in zip(cells, tallies, means)
    )
    return RecoveryCurve(spec, points)
