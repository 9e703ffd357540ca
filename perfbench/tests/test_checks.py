import csv
import io

import pytest

import permlearn as pl
from perfbench import checks


def _spec():
    measure = pl.MixingMeasure(
        [0.5, 0.5], [pl.Gaussian([-0.3], [[1.0]]), pl.Gaussian([0.3], [[1.0]])]
    )
    return pl.ExperimentSpec(
        family="custom", n_grid=(3, 8, 20), trials=6, seed=5,
        true_mixture=measure, model_mixture=measure,
    )


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.fixture(scope="module")
def curves():
    spec = _spec()
    rows = pl.run_recovery_experiment(spec, threads=2).csv_rows()
    return spec, rows, checks.recompute_cells(spec, spec.n_grid)


def test_harness_output_matches_library_recompute(curves):
    spec, rows, expected = curves
    cells, problems = checks.curve_cells(_csv(rows), spec)
    assert problems == []
    assert checks.compare_cells(cells, expected, "library") == []


def test_one_changed_count_is_rejected(curves):
    spec, rows, expected = curves
    col = checks.CURVE_HEADER.index("fail_tie")
    row = next(i for i, r in enumerate(rows) if r[5] == "mv" and i > 0)
    changed = [list(r) for r in rows]
    changed[row][col] = str(int(changed[row][col]) + 1)
    cells, problems = checks.curve_cells(_csv(changed), spec)
    assert problems == []  # still a well-formed file
    problems = checks.compare_cells(cells, expected, "library")
    assert len(problems) == 1 and "counts" in problems[0]


def test_count_above_trials_is_rejected(curves):
    spec, rows, _ = curves
    changed = [list(r) for r in rows]
    changed[1][checks.CURVE_HEADER.index("recovered")] = str(spec.trials + 1)
    _, problems = checks.curve_cells(_csv(changed), spec)
    assert problems and "exceed" in problems[0]


def test_mean_loglik_off_by_more_than_tolerance_is_rejected(curves):
    spec, rows, expected = curves
    col = checks.CURVE_HEADER.index("mean_loglik")
    changed = [list(r) for r in rows]
    changed[1][col] = repr(float(changed[1][col]) + 1e-9)
    cells, _ = checks.curve_cells(_csv(changed), spec)
    problems = checks.compare_cells(cells, expected, "library")
    assert len(problems) == 1 and "mean_loglik" in problems[0]


def test_equal_variance_closed_form():
    # 2 Phi(1/2) - 1 for unit variance means 1 apart
    assert checks.equal_variance_tv(0.0, 1.0, 1.0) == pytest.approx(0.3829249225480262)
    assert checks.equal_variance_tv(2.0, 2.0, 0.5) == 0.0
