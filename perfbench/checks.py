"""Output checks for the benchmark's ops.

Every check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

CURVE_HEADER = (
    "family,K,dim,eta,perturbed,estimator,n,trials,recovered,"
    "fail_empty,fail_tie,fail_nonbij,mean_loglik,seed"
).split(",")
ESTIMATORS = ("mle", "mv", "greedy")
LOGLIK_TOL = 1e-12
# Analysis outputs are fixed by their seeds; the tolerance only absorbs
# summation-order differences between BLAS builds.
VALUE_TOL = 1e-9
# W1 by quadrature between single equal-variance Gaussians against its
# closed form 2*Phi(|m1 - m2| / (2 sigma)) - 1; quad runs at 1e-10.
CLOSED_FORM_TOL = 1e-8
SYMMETRY_TOL = 1e-9


def curve_cells(text: str, spec) -> tuple[dict, list[str]]:
    """Parse curves.csv into {(estimator, n): (ints, mean_loglik)}.

    Checks the header, the row order (estimator-major, then the grid), the
    columns that echo the spec, and that no cell counts more outcomes than
    trials.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CURVE_HEADER:
        return {}, ["curves.csv header differs"]
    body = rows[1:]
    expected_keys = [(est, n) for est in ESTIMATORS for n in spec.n_grid]
    if len(body) != len(expected_keys):
        return {}, [f"curves.csv has {len(body)} rows, expected {len(expected_keys)}"]
    echo = [
        spec.family, str(spec.k), str(spec.dim), repr(float(spec.eta)),
        str(int(spec.perturbed)),
    ]
    cells, problems = {}, []
    for row, (est, n) in zip(body, expected_keys):
        if len(row) != len(CURVE_HEADER):
            problems.append(f"row {est},{n}: {len(row)} fields")
            continue
        if row[:5] != echo or row[5] != est or row[6] != str(n):
            problems.append(f"row {est},{n}: key columns {row[:7]}")
        if row[7] != str(spec.trials) or row[13] != str(spec.seed):
            problems.append(f"row {est},{n}: trials/seed columns {row[7]},{row[13]}")
        try:
            ints = tuple(int(v) for v in row[8:12])
            loglik = None if row[12] == "" else float(row[12])
        except ValueError:
            problems.append(f"row {est},{n}: non-numeric counts")
            continue
        if min(ints) < 0 or ints[0] + sum(ints[1:]) > spec.trials:
            problems.append(f"row {est},{n}: counts {ints} exceed {spec.trials} trials")
        cells[(est, n)] = (ints, loglik)
    return cells, problems


def compare_cells(got: dict, expected: dict, what: str) -> list[str]:
    """Counts must match exactly; mean_loglik within LOGLIK_TOL."""
    problems = []
    for key, (ints, loglik) in expected.items():
        if key not in got:
            problems.append(f"{what}: cell {key} missing")
            continue
        g_ints, g_loglik = got[key]
        if g_ints != tuple(ints):
            problems.append(f"{what}: cell {key} counts {g_ints} != {tuple(ints)}")
        if (loglik is None) != (g_loglik is None) or (
            loglik is not None and abs(g_loglik - loglik) > LOGLIK_TOL
        ):
            problems.append(f"{what}: cell {key} mean_loglik {g_loglik} != {loglik}")
    return problems


def recompute_cells(spec, ns) -> dict:
    """Cells at sample sizes ns through the library estimators.

    Trial t draws ``sample_labeled(truth, perm, max(n_grid), default_rng([seed,
    t]))`` and each estimator sees its first n points, as the harness
    docstring documents.
    """
    import permlearn as pl
    from permlearn.harness import resolve_model

    truth, perm, model = resolve_model(spec)
    estimators = {
        "mle": pl.mle_estimate, "mv": pl.mv_estimate, "greedy": pl.greedy_estimate,
    }
    tally = {(est, n): [0, 0, 0, 0, []] for est in ESTIMATORS for n in ns}
    failure_slot = {"empty_region": 1, "majority_tie": 2, "non_bijective": 3}
    for t in range(spec.trials):
        data = pl.sample_labeled(
            truth, perm, spec.n_grid[-1], np.random.default_rng([spec.seed, t])
        )
        for n in ns:
            prefix = data.prefix(n)
            for est, estimate in estimators.items():
                out = estimate(model, prefix)
                cell = tally[(est, n)]
                if out.ok and out.permutation == perm:
                    cell[0] += 1
                if out.failure in failure_slot:
                    cell[failure_slot[out.failure]] += 1
                if out.log_likelihood is not None:
                    cell[4].append(out.log_likelihood)
    return {
        key: (tuple(c[:4]), float(np.mean(c[4])) if c[4] else None)
        for key, c in tally.items()
    }


def close(value, reference, tol: float = VALUE_TOL) -> bool:
    return value is not None and abs(value - reference) <= tol * (1.0 + abs(reference))


def check_gaps_risk(analysis: dict) -> list[str]:
    """analyze --gap-mle --gap-mv --risk with the model equal to the truth."""
    gaps, risk = analysis.get("gaps"), analysis.get("risk")
    if gaps is None or risk is None:
        return ["analysis.json lacks gaps or risk"]
    problems = []
    margins = gaps["region_margins"]
    if gaps["empty_regions"] or margins is None or None in margins:
        problems.append(f"empty regions {gaps['empty_regions']}")
    elif gaps["mv_gap"] != min(margins):
        problems.append(f"mv_gap {gaps['mv_gap']} != min(region_margins) {min(margins)}")
    if gaps["mle_gap"] is None or not math.isfinite(gaps["mle_gap"]):
        problems.append(f"mle_gap {gaps['mle_gap']} not finite")
    if risk["excess"] != 0.0:
        problems.append(f"model-equals-truth excess risk {risk['excess']} != 0")
    return problems


def check_w1(analysis: dict, method: str) -> list[str]:
    w1 = analysis.get("w1")
    if w1 is None:
        return ["analysis.json lacks w1"]
    problems = []
    if not 0.0 <= w1["value"] <= 1.0:
        problems.append(f"W1 {w1['value']} outside [0, 1]")
    if w1["plan"]["method"] != method:
        problems.append(f"W1 used {w1['plan']['method']}, expected {method}")
    return problems


def check_chernoff(est) -> list[str]:
    if est.diverged or not math.isfinite(est.value) or est.value < 0.0:
        return [f"chernoff value {est.value} diverged={est.diverged}"]
    return []


def equal_variance_tv(m1: float, m2: float, sigma: float) -> float:
    """TV between N(m1, s^2) and N(m2, s^2): 2 Phi(|m1 - m2| / (2 s)) - 1."""
    return math.erf(abs(m1 - m2) / (2.0 * sigma) / math.sqrt(2.0))
