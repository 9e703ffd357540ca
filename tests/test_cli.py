import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlearn import (
    ExperimentSpec,
    Gaussian,
    MixingMeasure,
    Permutation,
    __version__,
    estimate_gaps,
    load_mixture,
    misclassification_rate,
    mixture_to_dict,
    sample_labeled,
)
from permlearn import cli
from permlearn.analysis import gaps as gaps_module
from permlearn.cli import main
from permlearn.estimators import _RunningArgmax
from permlearn.harness import FAMILIES, resolve_model
from permlearn.mixtures import _json_text


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def out(tmp_path):
    return tmp_path / "out"


class TestGen:
    def test_writes_mixture_and_manifest(self, out):
        assert run(["gen", "--family", "gaussian-grid", "--k", "4", "--seed", "3",
                    "--out-dir", out]) == 0
        assert (out / "mixture.json").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "gen"
        assert manifest["version"] == __version__
        assert "mixture.json" in manifest["artifacts"]
        assert manifest["config"]["family"] == "gaussian_grid"
        m = load_mixture(out / "mixture.json")
        assert m.n_atoms == 4

    def test_samples_flag_adds_data(self, out):
        run(["gen", "--family", "gaussian-grid", "--k", "2", "--samples", "25",
             "--out-dir", out])
        lines = (out / "data.csv").read_text().splitlines()
        assert lines[0] == "x_1,x_2,y"
        assert len(lines) == 26

    def test_data_csv_is_save_csv_of_the_same_draw(self, out, tmp_path):
        run(["gen", "--family", "gaussian-grid", "--k", "3", "--seed", "4",
             "--samples", "40", "--out-dir", out])
        truth, true_perm, _ = resolve_model(
            ExperimentSpec(family="gaussian_grid", k=3, seed=4)
        )
        stream = read_json(out / "manifest.json")["seeds"]["data_stream"]
        data = sample_labeled(truth, true_perm, 40, np.random.default_rng(stream))
        data.save_csv(tmp_path / "ref.csv")
        assert (out / "data.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_perturbed_family_also_writes_model(self, out):
        run(["gen", "--family", "gaussian-grid-perturbed", "--k", "4", "--out-dir", out])
        truth = load_mixture(out / "mixture.json")
        model = load_mixture(out / "model.json")
        assert truth.components != model.components

    def test_underscore_family_accepted(self, out):
        assert run(["gen", "--family", "gaussian_grid", "--out-dir", out]) == 0

    def test_rejects_unknown_family(self, out, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--family", "pancakes", "--out-dir", out])
        assert exc.value.code == 2

    def test_rejects_eta_zero(self, out):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--family", "gaussian-grid", "--eta", "0", "--out-dir", out])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--k", "two"], "argument --k: 'two' is not an integer"),
        (["gen", "--k", "0"], "argument --k: must be >= 1"),
        (["gen", "--seed", "1.5"], "argument --seed: '1.5' is not an integer"),
        (["gen", "--seed=-1"], "argument --seed: must be >= 0"),
        (["gen", "--eta", "wide"], "argument --eta: 'wide' is not a number"),
        (["gen", "--eta", "0"], "argument --eta: must be > 0"),
        (["experiment", "--rho", "half"], "argument --rho: 'half' is not a number"),
        (["experiment", "--rho", "1"], "argument --rho: must lie in [0, 1)"),
        (["analyze", "--true-perm", "1,b"],
         "argument --true-perm: expected comma-separated integers"),
        (["analyze", "--probs", "0.5,x"],
         "argument --probs: expected comma-separated numbers"),
    ],
)
def test_bad_flag_values_exit_2_with_message(argv, message, out, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out-dir", out])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(message)


def _one_atom(density=None, **fields):
    """A one-atom 1-d mixture file's JSON value, with fields replaced."""
    gaussian = {"type": "gaussian", "mean": [0.0], "cov": [[1.0]]}
    return {"dim": 1, "atoms": [{"weight": 1.0, "density": density or gaussian}], **fields}


@pytest.mark.parametrize(
    "kind, content, message",
    [
        ("mixture", _one_atom(dim=[1]), "'dim' must be an integer"),
        ("mixture", _one_atom(labels=5), "'labels' must be a list"),
        ("mixture", _one_atom({"type": "kde", "points": [[0.0]], "bandwidth": [1]}),
         "atoms[0].density: 'bandwidth' must be a number"),
        ("mixture", _one_atom({"type": "gaussian", "mean": {"a": 1}, "cov": [[1.0]]}),
         "atoms[0].density: 'mean' must be an array of numbers"),
        ("mixture", "{not json", "bad.json: invalid JSON"),
        ("spec", [1, 2], "bad.json: an experiment spec must be a JSON object"),
        ("spec", 3, "bad.json: an experiment spec must be a JSON object"),
        ("spec", {"family": "gaussian_grid", "n_grid": 5},
         "'n_grid' must be a list of integers"),
        ("spec", {"family": "gaussian_grid", "k": [1]}, "'k' must be an integer"),
        ("spec", "{not json", "bad.json: invalid JSON"),
        # numbers are strict: a string, a bool or a fraction is never converted
        ("spec", {"family": "gaussian_grid", "n_grid": "36", "k": 2.9},
         "'k' must be an integer"),
        ("spec", {"family": "gaussian_grid", "n_grid": "36"},
         "'n_grid' must be a list of integers"),
        ("spec", {"family": "gaussian_grid", "n_grid": [3, 6.5]},
         "'n_grid' must be a list of integers"),
        ("spec", {"family": "gaussian_grid", "eta": "1.0"}, "'eta' must be a number"),
        ("mixture", _one_atom(dim=True), "bad.json: 'dim' must be an integer"),
        ("mixture", _one_atom(atoms=[{**_one_atom()["atoms"][0], "weight": "1"}]),
         "bad.json: atoms[0]: 'weight' must be a number"),
        ("mixture", _one_atom({"type": "gaussian", "mean": ["0.5"], "cov": [[1.0]]}),
         "bad.json: atoms[0].density: 'mean' must be an array of numbers"),
        ("mixture", _one_atom({"type": "kde", "points": [[0.0]], "bandwidth": True}),
         "bad.json: atoms[0].density: 'bandwidth' must be a number"),
        ("spec", {"family": "custom", "true_mixture": _one_atom(dim=True)},
         "bad.json: 'dim' must be an integer"),
    ],
)
def test_malformed_json_exits_1_naming_the_field(
    kind, content, message, tmp_path, out, capsys
):
    path = tmp_path / "bad.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    if kind == "mixture":
        argv = ["analyze", "--w1", path, path, "--out-dir", out]
    else:
        argv = ["experiment", "--spec", path, "--trials", "1", "--out-dir", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    # every message names the file it read
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert message in err
    assert list(out.iterdir()) == []


def test_an_int_beyond_the_floats_in_a_mixture_file_is_named(tmp_path, out, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_one_atom({"type": "gaussian", "mean": [10**400], "cov": [[1.0]]})))
    assert run(["analyze", "--w1", bad, bad, "--out-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: atoms[0].density: 'mean' must be an array of numbers\n"
    )


def test_a_bad_mixture_file_is_named(tmp_path, out, capsys):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(_one_atom()))
    bad.write_text(json.dumps(_one_atom(dim=[1])))
    assert run(["analyze", "--w1", good, bad, "--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {bad}: 'dim' must be an integer\n"
    # invalid JSON text names its file once
    bad.write_text("{not json")
    assert run(["analyze", "--w1", good, bad, "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: invalid JSON") and err.count(str(bad)) == 1


def test_a_bad_spec_field_is_named_with_its_file(tmp_path, out, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "gaussian_grid", "k": [1], "n_grid": [3, 6],
                                "trials": 1}))
    assert run(["experiment", "--spec", spec, "--out-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {spec}: 'k' must be an integer\n"
    # a flag overrides the bad field, which is then never read
    assert run(["experiment", "--spec", spec, "--k", "2", "--out-dir", out]) == 0


def test_a_bad_value_from_a_flag_carries_no_file_name(tmp_path, out, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "gaussian_grid", "k": 3, "trials": 1}))
    assert run(["experiment", "--spec", spec, "--n-grid", "6,3", "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: n_grid must be strictly increasing\n"
    assert run(["experiment", "--spec", spec, "--k", "1", "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: synthetic families need k >= 2\n"


def test_a_negative_seed_in_a_spec_file_is_refused_by_name(tmp_path, out, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": "gaussian_grid", "seed": -1, "trials": 1,
                                "n_grid": [3]}))
    assert run(["experiment", "--spec", spec, "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


class TestEstimate:
    def make_inputs(self, out):
        run(["gen", "--family", "gaussian-grid", "--k", "3", "--seed", "1",
             "--samples", "60", "--out-dir", out])
        return out / "mixture.json", out / "data.csv"

    def test_all_methods(self, out):
        mixture, data = self.make_inputs(out)
        dest = out / "est"
        assert run(["estimate", "--mixture", mixture, "--data", data,
                    "--out-dir", dest]) == 0
        result = read_json(dest / "estimate.json")
        assert set(result) == {"mle", "mv", "greedy"}
        assert result["mle"]["permutation"] == [1, 2, 3]
        counts = result["mle"]["class_counts"]
        assert result["mv"]["class_counts"] == counts

    def test_single_method(self, out):
        mixture, data = self.make_inputs(out)
        dest = out / "only-mv"
        run(["estimate", "--mixture", mixture, "--data", data, "--method", "mv",
             "--out-dir", dest])
        assert set(read_json(dest / "estimate.json")) == {"mv"}

    def test_missing_file_is_runtime_error(self, out, capsys):
        assert run(["estimate", "--mixture", out / "nope.json",
                    "--data", out / "nope.csv", "--out-dir", out]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where, message",
        [
            ("", "", "empty file"),
            ("x,y\n1.0,1\n", "", "header must be x_1,...,x_d,y; got ['x', 'y']"),
            ("x_1,y\n", "", "no data rows"),
            ("x_1,y\n1.0,1\n2.0\n", ":3", "expected 2 fields"),
            ("x_1,y\n1.0,b\n", ":2", "malformed row"),
            ("x_1,y\nnan,1\n", ":2", "non-finite coordinate"),
            ("x_1,y\n1.0,0\n", ":2", "label must be >= 1"),
            ("x_1,y\n1.0,1\n\n1.0,1.5\n", ":4", "malformed row"),
            ('x_1,y\n"1.0\n",1\n2.0,x\n', ":4", "malformed row"),
        ],
    )
    def test_a_bad_data_file_is_named_with_its_line(self, text, where, message, tmp_path,
                                                   out, capsys):
        mixture = tmp_path / "mixture.json"
        mixture.write_text(json.dumps(_one_atom()))
        data = tmp_path / "data.csv"
        data.write_text(text)
        assert run(["estimate", "--mixture", mixture, "--data", data, "--out-dir", out]) == 1
        assert capsys.readouterr().err == f"error: {data}{where}: {message}\n"


# each analyze bound request and the flags it reads, in argument order, with
# values it takes
_REQUESTS = {
    ("--required-n", "mle"): {"--k": "3", "--delta": "0.1", "--value": "0.3"},
    ("--mle-bound",): {"--k": "2", "--counts": "50,60", "--exponent": "0.3"},
    ("--mv-bound",): {"--k": "2", "--counts": "50,60", "--gap": "0.5"},
    ("--min-count",): {"--n": "100", "--probs": "0.5,0.5", "--m": "10"},
}


class TestAnalyze:
    def test_gaps_and_risk(self, out):
        run(["gen", "--family", "gaussian-grid", "--k", "2", "--seed", "2",
             "--out-dir", out])
        dest = out / "analysis"
        assert run(["analyze", "--truth", out / "mixture.json", "--gap-mle",
                    "--gap-mv", "--risk", "--mc", "5000", "--seed", "1",
                    "--out-dir", dest]) == 0
        result = read_json(dest / "analysis.json")
        assert result["gaps"]["mle_gap"] > 0
        assert result["gaps"]["samples_used"] == 5000
        assert result["risk"]["excess"] == 0.0

    def test_risk_scores_the_true_perm_when_no_perm_is_given(self, out, tmp_path):
        truth = MixingMeasure(
            [0.9, 0.1], [Gaussian([-2.0], [[1.0]]), Gaussian([2.0], [[1.0]])]
        )
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(mixture_to_dict(truth)))
        assert run(["analyze", "--truth", path, "--true-perm", "2,1", "--risk",
                    "--mc", "2000", "--seed", "5", "--out-dir", out]) == 0
        risk = read_json(out / "analysis.json")["risk"]
        assert risk["excess"] == 0.0 and risk["excess_half_width"] == 0.0

    def test_bound_helpers(self, out):
        assert run(["analyze", "--required-n", "mv", "--k", "4", "--delta", "0.05",
                    "--value", "0.3", "--out-dir", out]) == 0
        result = read_json(out / "analysis.json")
        assert result["required_n"]["n"] == 3524

        dest = out / "more"
        run(["analyze", "--mle-bound", "--k", "2", "--counts", "50,60",
             "--exponent", "0.3", "--mv-bound", "--gap", "0.5",
             "--counts", "50,60", "--min-count", "--n", "100",
             "--probs", "0.5,0.5", "--m", "10", "--out-dir", dest])
        result = read_json(dest / "analysis.json")
        assert 0.0 <= result["mle_bound"]["value"] <= 1.0
        assert 0.0 <= result["mv_bound"]["value"] <= 1.0
        assert 0.0 <= result["min_count"]["value"] <= 1.0

    # the tails cost the same at any n: P(X = n / 2) is 8e-9 here
    def test_min_count_at_a_huge_n_answers_at_once(self, out):
        start = time.perf_counter()
        assert run(["analyze", "--min-count", "--n", "10000000000000000", "--probs", "0.5,0.5",
                    "--m", "5000000000000000", "--out-dir", out]) == 0
        assert time.perf_counter() - start < 1.0
        assert 0.0 <= read_json(out / "analysis.json")["min_count"]["value"] <= 8e-9

    def test_w1_between_generated_mixtures(self, out):
        run(["gen", "--family", "gaussian-grid", "--k", "2", "--seed", "1",
             "--out-dir", out / "a"])
        run(["gen", "--family", "gaussian-grid", "--k", "2", "--seed", "2",
             "--out-dir", out / "b"])
        dest = out / "w1"
        assert run(["analyze", "--w1", out / "a" / "mixture.json",
                    out / "b" / "mixture.json", "--mc", "20000", "--out-dir", dest]) == 0
        result = read_json(dest / "analysis.json")
        assert 0.0 <= result["w1"]["value"] <= 1.0
        assert len(result["w1"]["plan"]["matrix"]) == 2

    def test_nothing_requested_fails(self, out, capsys):
        assert run(["analyze", "--out-dir", out]) == 1
        assert "nothing requested" in capsys.readouterr().err
        assert not (out / "analysis.json").exists()

    def test_a_nan_exponent_is_refused(self, out, capsys):
        argv = ["analyze", "--mle-bound", "--k", "3", "--counts", "5,5,5", "--exponent", "nan"]
        assert run([*argv, "--out-dir", out]) == 1
        assert capsys.readouterr().err == "error: exponent must be >= 0\n"
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--truth", "missing.json", "--gap-mv", "--perm", "9,9"], "--perm requires --risk"),
            (["--gap-mle", "--gap-mv", "--perm", "1,2"], "--perm requires --risk"),
            (["--truth", "missing.json", "--model", "missing.json", "--true-perm", "2,1"],
             "--truth requires --gap-mle, --gap-mv or --risk"),
            (["--model", "missing.json", "--true-perm", "2,1"],
             "--model requires --gap-mle, --gap-mv or --risk"),
            (["--true-perm", "2,1"], "--true-perm requires --gap-mle, --gap-mv or --risk"),
        ],
    )
    def test_draw_inputs_without_a_request_that_reads_them_exit_1(
        self, argv, message, tmp_path, out, capsys
    ):
        # no file is read: every mixture path here is missing
        bound = ["--mle-bound", "--k", "2", "--counts", "3,4", "--exponent", "0.5"]
        argv = [tmp_path / a if a == "missing.json" else a for a in argv]
        assert run(["analyze", *argv, *bound, "--mc", "100", "--out-dir", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "analysis.json").exists()

    def test_missing_dependency_flag(self, out, capsys):
        assert run(["analyze", "--required-n", "mv", "--k", "4", "--out-dir", out]) == 1
        assert "--delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, missing",
        [(command, flag) for command, flags in _REQUESTS.items() for flag in flags],
    )
    def test_a_request_without_a_flag_it_reads_exits_1(self, command, missing, out, capsys):
        present = [part for flag, value in _REQUESTS[command].items() if flag != missing
                   for part in (flag, value)]
        assert run(["analyze", *command, *present, "--out-dir", out]) == 1
        assert capsys.readouterr().err == f"error: {command[0]} requires {missing}\n"
        assert not (out / "analysis.json").exists()

    def test_the_first_missing_flag_in_argument_order_is_named(self, out, capsys):
        for command, flags in _REQUESTS.items():
            assert run(["analyze", *command, "--out-dir", out]) == 1
            assert capsys.readouterr().err == f"error: {command[0]} requires {next(iter(flags))}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--required-n", "mle", "--k", "3", "--delta", "0.1", "--value", "1e-320"],
             "k, delta and value give a sample size too large for a float"),
            (["--required-n", "mv", "--k", "3", "--delta", "0.1", "--value", "1e-200"],
             "k, delta and value give a sample size too large for a float"),
            (["--mle-bound", "--k", "1" + "0" * 400, "--counts", "5,5", "--exponent", "0.3"],
             "k must be a finite float"),
            (["--mv-bound", "--k", "2", "--counts", "1" + "0" * 400, "--gap", "0.3"],
             "counts must be finite and >= 0"),
            (["--min-count", "--n", "1" + "0" * 400, "--probs", "0.5,0.5", "--m", "1"],
             "n must be a finite float"),
            (["--min-count", "--n", "10", "--probs", "0.5,0.5", "--m", "1" + "0" * 400],
             "m must be a finite float"),
        ],
    )
    def test_a_number_beyond_the_floats_exits_1(self, argv, message, out, capsys):
        assert run(["analyze", *argv, "--out-dir", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "analysis.json").exists()

    @pytest.mark.parametrize("flag", ["--gap-mle", "--gap-mv"])
    def test_gaps_of_one_atom_exit_1_with_message(self, out, tmp_path, capsys, flag):
        one = MixingMeasure([1.0], [Gaussian([0.0], [[1.0]])])
        path = tmp_path / "one.json"
        path.write_text(json.dumps(mixture_to_dict(one)))
        assert run(["analyze", "--truth", path, flag, "--mc", "100", "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gaps need K >= 2 atoms") and "Traceback" not in err
        assert not (out / "analysis.json").exists()


class TestAnalyzeOneDraw:
    """``analyze --gap-mle --gap-mv --risk`` draws and scores one sample for
    both analyses, with the values of the public functions that each make
    that draw on their own."""

    MC, SEED = 4000, 9

    @pytest.fixture()
    def files(self, out):
        run(["gen", "--family", "mixture-of-mixtures-perturbed", "--k", "3",
             "--seed", "4", "--out-dir", out])
        return out / "mixture.json", out / "model.json"

    def _analyze(self, out, truth_path, extra):
        dest = out / "analysis"
        assert run(["analyze", "--truth", truth_path, "--gap-mle", "--gap-mv",
                    "--risk", "--mc", self.MC, "--seed", self.SEED, *extra,
                    "--out-dir", dest]) == 0
        return read_json(dest / "analysis.json")

    @pytest.mark.parametrize("distinct_model", [False, True])
    @pytest.mark.parametrize(
        "perm, true_perm", [(None, None), ((2, 3, 1), (3, 1, 2)), ((2, 3, 1), (2, 3, 1))]
    )
    def test_equals_the_public_functions(self, out, files, distinct_model, perm, true_perm):
        truth_path, model_path = files
        truth = load_mixture(truth_path)
        model = load_mixture(model_path) if distinct_model else truth
        assert (model == truth) != distinct_model
        extra = ["--model", model_path] if distinct_model else []
        for flag, value in (("--perm", perm), ("--true-perm", true_perm)):
            if value is not None:
                extra += [flag, ",".join(map(str, value))]
        result = self._analyze(out, truth_path, extra)
        tp = Permutation(true_perm) if true_perm else Permutation.identity(3)
        p = Permutation(perm) if perm else Permutation.identity(3)
        gaps = estimate_gaps(model, truth, tp, samples=self.MC, seed=self.SEED)
        risk = misclassification_rate(model, p, truth, tp, samples=self.MC, seed=self.SEED)
        assert result["gaps"] == json.loads(_json_text(gaps))
        assert result["risk"] == json.loads(_json_text(risk))

    def test_model_equal_to_truth_draws_and_scores_once(self, out, files, monkeypatch):
        draws, scorings = [], []
        original_draw, original_scores = sample_labeled, gaps_module._atom_columns

        def counted_draw(*args, **kw):
            draws.append(args)
            return original_draw(*args, **kw)

        def counted_scores(measure, x):
            scorings.append(len(x))
            return original_scores(measure, x)

        for module in (cli, gaps_module):
            monkeypatch.setattr(module, "sample_labeled", counted_draw)
        # the draw is scored one atom at a time, from one column generator per measure
        monkeypatch.setattr(gaps_module, "_atom_columns", counted_scores)
        self._analyze(out, files[0], [])
        assert len(draws) == 1 and scorings == [self.MC]
        draws.clear(), scorings.clear()
        self._analyze(out, files[0], ["--model", files[1]])
        assert len(draws) == 1 and scorings == [self.MC, self.MC]

    def test_votes_and_risk_share_one_fold_of_the_model(self, out, files, monkeypatch):
        # K = 3 folds of the model's columns serve the votes and the risk; a
        # distinct model adds K folds of the truth's for the Bayes regions
        folds, original = [], _RunningArgmax.fold

        def counted(self, r, col):
            folds.append(r)
            return original(self, r, col)

        monkeypatch.setattr(_RunningArgmax, "fold", counted)
        self._analyze(out, files[0], [])
        assert folds == [0, 1, 2]
        folds.clear()
        self._analyze(out, files[0], ["--model", files[1]])
        assert folds == [0, 1, 2, 0, 1, 2]


def _measure(*means):
    atoms = [Gaussian(np.atleast_1d(m), np.eye(np.size(m))) for m in means]
    return MixingMeasure([1.0 / len(atoms)] * len(atoms), atoms)


_TWO = _measure(0.0, 3.0)
# fault -> (the inputs it changes, the message, the callers that can receive it);
# analyze cannot pass 0 samples (argparse refuses --mc 0) or choose which
_DRAW_FAULTS = {
    "atoms": (dict(model=_measure(0.0, 3.0, 6.0)),
              "model and truth must have the same number of atoms", "gaps risk cli"),
    "dim": (dict(model=_measure([0.0, 0.0], [3.0, 0.0])),
            "model and truth must share one dimension", "gaps risk cli"),
    "true_perm": (dict(true_perm=Permutation.identity(3)),
                  "permutation size does not match the measures", "gaps risk cli"),
    "one_atom": (dict(model=_measure(0.0), truth=_measure(0.0),
                      true_perm=Permutation.identity(1), perm=Permutation.identity(1)),
                 "gaps need K >= 2 atoms: with one atom no wrong assignment exists",
                 "gaps cli"),
    "perm": (dict(perm=Permutation((2, 3, 1))),
             "permutation size does not match the measures", "risk cli"),
    "samples": (dict(samples=0), "samples must be >= 1", "gaps risk"),
    "unknown_which": (dict(which={"mle", "vote"}),
                      "which must be a nonempty subset of {'mle','mv'}", "gaps"),
    "empty_which": (dict(which=set()),
                    "which must be a nonempty subset of {'mle','mv'}", "gaps"),
}


@pytest.mark.parametrize(
    "fault, caller",
    [(f, c) for f, (_, _, callers) in _DRAW_FAULTS.items() for c in callers.split()],
)
def test_one_fault_gets_its_message_from_every_caller(fault, caller, tmp_path, out, capsys):
    changes, message, _ = _DRAW_FAULTS[fault]
    a = dict(model=_TWO, truth=_TWO, true_perm=Permutation((2, 1)),
             perm=Permutation((2, 1)), samples=200, which={"mle", "mv"})
    a.update(changes)
    if caller == "gaps":
        call = functools.partial(estimate_gaps, a["model"], a["truth"], a["true_perm"],
                                 samples=a["samples"], seed=0, which=a["which"])
    elif caller == "risk":
        call = functools.partial(misclassification_rate, a["model"], a["perm"], a["truth"],
                                 a["true_perm"], samples=a["samples"], seed=0)
    else:
        argv = ["analyze", "--gap-mle", "--gap-mv", "--risk", "--mc", a["samples"]]
        for flag in ("model", "truth"):
            path = tmp_path / f"{flag}.json"
            path.write_text(json.dumps(mixture_to_dict(a[flag])))
            argv += [f"--{flag}", path]
        for flag in ("true_perm", "perm"):
            argv += ["--" + flag.replace("_", "-"), ",".join(map(str, a[flag].to_region))]
        assert run([*argv, "--out-dir", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


class TestMinusInfModelScores:
    """A model that scores a far point -inf stops the MLE and its gap with a
    message about the model; majority vote and the risk do not read the
    MLE's weights and still run."""

    FAR = ["--family", "gaussian-grid", "--eta", "1e300"]
    MESSAGE = ("error: the model's log scores of some class sum to -inf: a sample scores -inf,"
               " or the sum overflows\n")

    @pytest.fixture()
    def files(self, out):
        assert run(["gen", *self.FAR, "--k", "2", "--samples", "5", "--out-dir", out]) == 0
        return out / "mixture.json", out / "data.csv"

    def test_experiment(self, out, capsys):
        argv = ["experiment", *self.FAR, "--trials", "1", "--n-grid", "3"]
        assert run([*argv, "--out-dir", out]) == 1
        assert capsys.readouterr().err == self.MESSAGE

    def test_experiment_whose_finite_scores_overflow_in_a_sum(self, out, capsys):
        # at eta 1e153 every score is finite (the least is about -1.1e307),
        # but 50 of them sum past the float range
        truth, perm, _ = resolve_model(ExperimentSpec("gaussian_grid", k=2, eta=1e153))
        scores = truth.log_scores(sample_labeled(truth, perm, 50, np.random.default_rng(0)).x)
        assert np.all(np.isfinite(scores)) and scores.min() < -1e307
        argv = ["experiment", "--family", "gaussian-grid", "--k", "2", "--eta", "1e153",
                "--trials", "2", "--n-grid", "5,50"]
        assert run([*argv, "--out-dir", out]) == 1
        assert capsys.readouterr().err == self.MESSAGE

    def test_estimate(self, files, tmp_path, capsys):
        argv = ["estimate", "--mixture", files[0], "--data", files[1]]
        assert run([*argv, "--method", "mle", "--out-dir", tmp_path / "mle"]) == 1
        assert capsys.readouterr().err == self.MESSAGE
        assert run([*argv, "--method", "mv", "--out-dir", tmp_path / "mv"]) == 0

    def test_analyze(self, files, tmp_path, capsys):
        argv = ["analyze", "--truth", files[0], "--mc", "1000"]
        assert run([*argv, "--gap-mle", "--out-dir", tmp_path / "mle"]) == 1
        assert capsys.readouterr().err == self.MESSAGE
        assert run([*argv, "--gap-mv", "--risk", "--out-dir", tmp_path / "mv"]) == 0


class TestExperiment:
    args = ["experiment", "--family", "gaussian-grid", "--k", "4", "--n-grid",
            "3,9,15", "--trials", "6", "--seed", "5"]

    def test_artifacts(self, out):
        assert run(self.args + ["--out-dir", out]) == 0
        csv_lines = (out / "curves.csv").read_text().splitlines()
        assert csv_lines[0].startswith("family,K,dim,eta,perturbed,estimator")
        assert len(csv_lines) == 1 + 3 * 3
        sidecar = read_json(out / "experiment.json")
        assert sidecar["spec"]["family"] == "gaussian_grid"
        assert sidecar["spec"]["trials"] == 6
        manifest = read_json(out / "manifest.json")
        assert manifest["artifacts"] == ["curves.csv", "experiment.json"]

    def test_rerun_bytes_identical_any_threads(self, out):
        run(self.args + ["--out-dir", out / "a", "--threads", "1"])
        run(self.args + ["--out-dir", out / "b", "--threads", "7"])
        for name in ("curves.csv", "experiment.json"):
            assert (out / "a" / name).read_bytes() == (out / "b" / name).read_bytes()
        ma = read_json(out / "a" / "manifest.json")
        mb = read_json(out / "b" / "manifest.json")
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        assert ma == mb

    def test_spec_file_with_flag_override(self, out, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "family": "gaussian_grid", "k": 4, "n_grid": [3, 9], "trials": 4, "seed": 1,
        }))
        assert run(["experiment", "--spec", spec_file, "--k", "2",
                    "--out-dir", out]) == 0
        sidecar = read_json(out / "experiment.json")
        assert sidecar["spec"]["k"] == 2       # flag wins
        assert sidecar["spec"]["trials"] == 4  # file fills the rest

    def test_label_noise_flag(self, out):
        assert run(self.args + ["--rho", "0.2", "--out-dir", out]) == 0
        assert read_json(out / "experiment.json")["spec"]["label_noise"] == 0.2

    def test_family_required_somewhere(self, out, capsys):
        assert run(["experiment", "--k", "4", "--out-dir", out]) == 1
        assert "family" in capsys.readouterr().err


class TestOutDirResolution:
    def test_env_var_fallback(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("PERMLEARN_OUT_DIR", str(target))
        assert run(["gen", "--family", "gaussian-grid"]) == 0
        assert (target / "mixture.json").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PERMLEARN_OUT_DIR", str(tmp_path / "ignored"))
        chosen = tmp_path / "chosen"
        run(["gen", "--family", "gaussian-grid", "--out-dir", chosen])
        assert (chosen / "mixture.json").exists()
        assert not (tmp_path / "ignored").exists()

    def test_no_temp_files_left(self, out):
        run(["gen", "--family", "gaussian-grid", "--samples", "10", "--out-dir", out])
        leftovers = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_a_failed_write_leaves_the_directory_as_it_was(self, out, capsys):
        # the manifest's temp file cannot be written over a directory
        (out / ".manifest.json.tmp").mkdir(parents=True)
        sentinel = out / "mixture.json"
        sentinel.write_bytes(b"sentinel")
        argv = ["gen", "--family", "gaussian-grid", "--k", "2", "--samples", "5"]
        assert run([*argv, "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sentinel.read_bytes() == b"sentinel"
        assert sorted(p.name for p in out.iterdir()) == [".manifest.json.tmp", "mixture.json"]


def test_the_cached_parser_carries_nothing_between_calls(tmp_path):
    # One process runs a failing parse, then analyze --tv, analyze --w1 and
    # experiment on the one cached parser; every manifest equals the one a
    # fresh process writes for the same arguments.
    assert cli._build_parser() is cli._build_parser()
    two = {"dim": 1, "atoms": [
        {"weight": 0.4, "density": {"type": "gaussian", "mean": [-1.0], "cov": [[0.5]]}},
        {"weight": 0.6, "density": {"type": "gaussian", "mean": [1.5], "cov": [[1.2]]}},
    ]}
    (tmp_path / "one.json").write_text(json.dumps(_one_atom()))
    (tmp_path / "two.json").write_text(json.dumps(two))
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--seed", "3", "--tv", "one.json", "two.json", "--mc", "0"])
    assert exc.value.code == 2
    commands = {
        "tv": ["analyze", "--tv", "one.json", "one.json"],
        "w1": ["analyze", "--w1", "one.json", "two.json"],
        "exp": ["experiment", "--family", "gaussian-grid", "--k", "2", "--n-grid", "3,6",
                "--trials", "2"],
    }
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    previous = os.getcwd()
    os.chdir(tmp_path)
    try:
        for name, argv in commands.items():
            assert run(argv + ["--out-dir", f"in_process/{name}"]) == 0
        for name, argv in commands.items():
            subprocess.run(
                [sys.executable, "-m", "permlearn.cli", *argv, "--out-dir", f"fresh/{name}"],
                env=env, check=True, capture_output=True,
            )
    finally:
        os.chdir(previous)
    for name in commands:
        got, fresh = (read_json(tmp_path / side / name / "manifest.json")
                      for side in ("in_process", "fresh"))
        got.pop("wall_time_s"), fresh.pop("wall_time_s")
        assert got == fresh


_SCIPY_IMPORTS = """
import json, sys


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


from permlearn import cli
from permlearn.analysis import transport

steps = [[0, loaded()]]
roots = []
brentq = transport._brentq
transport._brentq = lambda *args: roots.append(1) or brentq(*args)
for argv in json.loads(sys.argv[1]):
    steps.append([cli.main(argv), loaded()])
print(json.dumps([steps, len(roots)]))
"""

_LSAP_ONLY = ({"scipy.optimize._lsap"},
              {"scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.integrate", "scipy.special"})

# One process runs these in order, from the fewest scipy modules loaded to the
# most. Each row gives the scipy modules loaded once it has run: None for no
# scipy module at all, else (modules it has loaded, modules it has not).
_SCIPY_STEPS = [
    ("import permlearn.cli", None, None),
    ("gen", ["gen", "--family", "gaussian-grid", "--k", "3", "--samples", "30", "--seed", "1",
             "--out-dir", "gen"], None),
    ("estimate --method mv", ["estimate", "--mixture", "gen/mixture.json", "--data",
                              "gen/data.csv", "--method", "mv", "--out-dir", "mv"], None),
    ("analyze --gap-mv", ["analyze", "--truth", "gen/mixture.json", "--gap-mv", "--mc", "500",
                          "--out-dir", "gap-mv"], None),
    ("analyze --risk", ["analyze", "--truth", "gen/mixture.json", "--risk", "--mc", "500",
                        "--out-dir", "risk"], None),
    ("analyze --mle-bound", ["analyze", "--mle-bound", "--k", "2", "--counts", "50,60",
                             "--exponent", "0.3", "--out-dir", "bound"], None),
    ("analyze --mv-bound", ["analyze", "--mv-bound", "--k", "2", "--counts", "50,60",
                            "--gap", "0.2", "--out-dir", "mv-bound"], None),
    ("analyze --min-count", ["analyze", "--min-count", "--n", "100", "--probs", "0.3,0.7",
                             "--m", "20", "--out-dir", "min-count"], None),
    ("analyze --required-n", ["analyze", "--required-n", "mle", "--k", "3", "--delta", "0.1",
                              "--value", "0.2", "--out-dir", "required-n"], None),
    ("estimate --method greedy", ["estimate", "--mixture", "gen/mixture.json", "--data",
                                  "gen/data.csv", "--method", "greedy", "--out-dir", "greedy"],
     None),
    # at K = 2 the matching MLE is the solver's decision in closed form
    ("gen --k 2", ["gen", "--family", "gaussian-grid", "--k", "2", "--samples", "30", "--seed",
                   "1", "--out-dir", "gen2"], None),
    ("estimate --method mle --k 2", ["estimate", "--mixture", "gen2/mixture.json", "--data",
                                     "gen2/data.csv", "--method", "mle", "--out-dir", "mle2"],
     None),
    ("analyze --gap-mle --k 2", ["analyze", "--truth", "gen2/mixture.json", "--gap-mle", "--mc",
                                 "500", "--out-dir", "gap-mle2"], None),
    ("experiment --k 2", ["experiment", "--family", "gaussian-grid", "--k", "2", "--n-grid",
                          "4,8", "--trials", "2", "--out-dir", "exp2"], None),
    # at K = 3 the matching MLE loads scipy's compiled assignment solver at its
    # first solve, and none of the scipy.optimize package around it
    ("estimate --method mle", ["estimate", "--mixture", "gen/mixture.json", "--data",
                               "gen/data.csv", "--method", "mle", "--out-dir", "mle"], _LSAP_ONLY),
    ("analyze --gap-mle", ["analyze", "--truth", "gen/mixture.json", "--gap-mle", "--mc", "500",
                           "--out-dir", "gap-mle"], _LSAP_ONLY),
    ("experiment --k 3", ["experiment", "--family", "gaussian-grid", "--k", "3", "--n-grid",
                          "4,8", "--trials", "2", "--out-dir", "exp"], _LSAP_ONLY),
    # the 1-d mixture pairs find their sign changes with the compiled solver
    # behind brentq, loaded alone like the assignment solver; their CDF
    # differences load scipy.special
    ("1-d --w1", ["analyze", "--w1", "a.json", "b.json", "--out-dir", "w1"],
     ({"scipy.optimize._zeros", "scipy.special"}, {"scipy.optimize", "scipy.integrate"})),
    # a narrow-bandwidth KDE against a mixture: f - g changes sign many times,
    # and no subinterval cap or warning brings in scipy.integrate
    ("1-d --tv kde", ["analyze", "--tv", "kde.json", "mix.json", "--out-dir", "tv"],
     ({"scipy.optimize._zeros", "scipy.special"}, {"scipy.optimize", "scipy.integrate"})),
]


def test_each_command_loads_only_the_scipy_modules_it_needs(tmp_path):
    def mixture(weights, means, sds):
        return {"type": "gaussian_mixture", "components": [
            {"weight": w, "mean": [m], "cov": [[s * s]]} for w, m, s in zip(weights, means, sds)
        ]}

    measures = {
        "a.json": [(0.5, mixture([0.3, 0.7], [-1.0, 0.5], [0.4, 1.1])),
                   (0.5, mixture([0.5, 0.5], [2.0, 3.5], [0.6, 0.3]))],
        "b.json": [(0.4, mixture([0.6, 0.4], [-0.8, 1.2], [0.5, 0.9])),
                   (0.6, mixture([0.2, 0.8], [2.4, 3.0], [0.2, 0.7]))],
    }
    rng = np.random.default_rng(2024)
    points = [[x] for x in rng.normal(0.0, 1.0, 20).tolist()]
    measures["kde.json"] = [(1.0, {"type": "kde", "points": points, "bandwidth": 0.05})]
    measures["mix.json"] = [(1.0, mixture([0.2] * 5, [-1.6, -0.7, 0.1, 0.9, 1.7], [0.3] * 5))]
    for name, atoms in measures.items():
        (tmp_path / name).write_text(json.dumps(
            {"dim": 1, "atoms": [{"weight": w, "density": d} for w, d in atoms]}
        ))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    commands = [argv for _, argv, _ in _SCIPY_STEPS[1:]]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_IMPORTS, json.dumps(commands)],
        cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
    )
    steps, roots = json.loads(proc.stdout.splitlines()[-1])
    assert len(steps) == len(_SCIPY_STEPS)
    for (name, _, expected), (code, loaded) in zip(_SCIPY_STEPS, steps):
        assert code == 0, name
        if expected is None:
            assert loaded == [], name
        else:
            present, absent = expected
            assert present <= set(loaded) and not absent & set(loaded), (name, loaded)
    # the 1-d TV between mixtures found its sign changes with transport's brentq
    assert roots > 0


def test_chernoff_exponent_loads_no_scipy(tmp_path):
    # the bounded search is a port of scipy's, so no scipy.optimize (nor the
    # scipy.linalg it would bring) loads for it
    script = (
        "import sys\n"
        "from permlearn import Gaussian, MixingMeasure, chernoff_exponent\n"
        "m = MixingMeasure([0.5, 0.5], [Gaussian([0.0], [[1.0]]), Gaussian([2.0], [[1.0]])])\n"
        "assert not chernoff_exponent(m, 1, 0.05, samples=2000).diverged\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == ["[]"]


# The fuzzer: malformed mixture JSON, spec JSON, data CSV and analyze numbers
# make every command exit 1 with an error line (2 with argparse's usage line),
# never with a traceback. Sizes stay small: K <= 5, dim <= 3, trials <= 3 and
# n_grid entries <= 50.


def _exit_of(argv):
    """main's exit code and stderr; argparse's SystemExit gives its code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _assert_exits_cleanly(argv):
    code, err = _exit_of(argv)
    if code == 0:
        assert err == "", err
    elif code == 1:
        assert err.startswith("error: "), err
    else:
        assert code == 2 and ": error: " in err, (code, err)


def _mostly(good, bad):
    """``good`` eleven times in twelve, else ``bad``."""
    return st.sampled_from([good] * 11 + [bad]).flatmap(lambda strategy: strategy)


# Numbers a JSON field may hold: the edges of the floats and an int no float holds.
_EDGES = st.sampled_from([0.0, -1.0, 1e-320, 1e-300, 1e300, math.nan, math.inf, -math.inf,
                          10**400])
_JUNK = (
    st.none() | st.booleans() | st.text(max_size=3) | st.builds(list) | st.builds(dict)
    | st.lists(st.integers(-2, 2), max_size=2) | st.builds(lambda: [[1.0], [2.0, 3.0]])
)


def _paths(obj):
    """Every (container, key) pair inside a JSON value."""
    if isinstance(obj, dict):
        items = list(obj.items())
    else:
        items = list(enumerate(obj)) if isinstance(obj, list) else []
    out = []
    for key, value in items:
        out.append((obj, key))
        out.extend(_paths(value))
    return out


@st.composite
def _mutated(draw, base):
    """A drawn JSON value, with up to two members deleted or replaced by junk."""
    obj = draw(base)
    for _ in range(draw(_mostly(st.just(0), st.integers(1, 2)))):
        paths = _paths(obj)
        if not paths:
            break
        parent, key = draw(st.sampled_from(paths))
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(_JUNK)
    return obj


@st.composite
def _vector(draw, dim, entries=_mostly(st.floats(-3.0, 3.0), _EDGES)):
    size = draw(_mostly(st.just(dim), st.sampled_from([dim - 1, dim + 1])))
    return draw(st.lists(entries, min_size=size, max_size=size))


@st.composite
def _cov(draw, dim):
    if draw(_mostly(st.just(True), st.just(False))):
        var = draw(_vector(dim, _mostly(st.floats(0.05, 4.0), _EDGES)))
        return np.diag(var).tolist() if var else []
    return [draw(_vector(dim)) for _ in range(draw(st.integers(0, dim + 1)))]


def _weights(k):
    return _mostly(st.just([1.0 / k] * k), st.lists(_EDGES, min_size=k, max_size=k))


@st.composite
def _density(draw, dim):
    kind = draw(_mostly(st.sampled_from(["gaussian", "gaussian_mixture", "kde"]),
                        st.sampled_from(["other", 1])))
    if kind == "kde":
        count = draw(_mostly(st.integers(1, 3), st.just(0)))
        points = [draw(_vector(dim)) for _ in range(count)]
        return {"type": kind, "points": points,
                "bandwidth": draw(_mostly(st.floats(0.1, 2.0), _EDGES))}
    parts = [{"mean": draw(_vector(dim)), "cov": draw(_cov(dim))}
             for _ in range(draw(_mostly(st.integers(1, 3), st.just(0))))]
    if kind == "gaussian" and parts:
        return {"type": kind, **parts[0]}
    weights = draw(_weights(len(parts))) if parts else []
    return {"type": kind, "components": [{"weight": w, **p} for w, p in zip(weights, parts)]}


@st.composite
def _mixture(draw, dim, k):
    k = draw(_mostly(st.just(k), st.integers(0, 5)))
    weights = draw(_weights(k)) if k else []
    obj = {"atoms": [{"weight": w, "density": draw(_density(dim))} for w in weights]}
    if draw(st.booleans()):
        obj["dim"] = draw(_mostly(st.just(dim), st.integers(0, 4)))
    if draw(_mostly(st.just(False), st.just(True))):
        obj["labels"] = draw(st.lists(st.text(max_size=2) | st.integers(0, 3), max_size=4))
    return obj


@settings(max_examples=70, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), k=st.integers(1, 3))
def test_fuzzed_mixture_files_exit_cleanly(data, dim, k):
    a, b = (data.draw(_mutated(_mixture(dim, k)), label) for label in "ab")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, obj in (("a.json", a), ("b.json", b)):
            paths.append(Path(tmp, name))
            paths[-1].write_text(json.dumps(obj))
        out = Path(tmp, "out")
        for argv in (
            ["analyze", "--w1", *paths],
            ["analyze", "--tv", *paths],
            ["analyze", "--truth", paths[0], "--model", paths[1], "--gap-mle", "--gap-mv",
             "--risk"],
        ):
            _assert_exits_cleanly([*argv, "--mc", "64", "--out-dir", out])


@st.composite
def _spec(draw):
    family = draw(_mostly(st.sampled_from(FAMILIES), st.sampled_from(["gaussian-grid", "", 3])))
    spec = {
        "family": family,
        "k": draw(_mostly(st.integers(2, 5), st.integers(-1, 1))),
        "dim": draw(_mostly(st.integers(2, 3), st.integers(-1, 1))),
        "eta": draw(_mostly(st.floats(0.1, 3.0), _EDGES)),
        "n_grid": draw(_mostly(st.lists(st.integers(1, 50), min_size=1, max_size=4, unique=True)
                               .map(sorted), st.lists(st.integers(-2, 50), max_size=4))),
        "trials": draw(_mostly(st.integers(1, 3), st.integers(-1, 0))),
        "label_noise": draw(_mostly(st.floats(0.0, 0.9), _EDGES)),
        "seed": draw(_mostly(st.integers(0, 2**32), st.sampled_from([-1, 2**64, 10**400]))),
    }
    if family == "custom":
        dim, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        spec["true_mixture"], spec["model_mixture"] = (
            draw(_mixture(dim, k)) for _ in range(2)
        )
    return spec


@settings(max_examples=60, deadline=None)
@given(spec=_mutated(_spec()))
def test_fuzzed_spec_files_exit_cleanly(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "spec.json")
        path.write_text(json.dumps(spec))
        argv = ["experiment", "--spec", path, "--out-dir", Path(tmp, "out")]
        # a field the spec lacks takes a small flag, not its large default
        for key, flag in (("trials", "--trials=2"), ("n_grid", "--n-grid=3,6")):
            if not isinstance(spec.get(key), (int, list)):
                argv.append(flag)
        _assert_exits_cleanly(argv)


_BAD_CELLS = ["", " 1", "x", "nan", "inf", "-inf", "1e400", "1.5", "0", "-1", "3",
              "1" + "0" * 400, "x_1", "y"]


@st.composite
def _csv(draw, dim):
    """Data CSV text of ``dim`` columns, with up to two cells replaced,
    dropped or added."""
    dim = draw(_mostly(st.just(dim), st.integers(0, 3)))
    rows = [[f"x_{j + 1}" for j in range(dim)] + ["y"]]
    for _ in range(draw(_mostly(st.integers(1, 6), st.just(0)))):
        rows.append([repr(draw(st.floats(-3.0, 3.0))) for _ in range(dim)]
                    + [str(draw(st.integers(1, 2)))])
    for _ in range(draw(_mostly(st.just(0), st.integers(1, 2)))):
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        action = draw(st.sampled_from(["replace", "drop", "add"]))
        if action == "add" or at == len(row):
            row.insert(at, draw(st.sampled_from(_BAD_CELLS)))
        elif action == "drop":
            del row[at]
        else:
            row[at] = draw(st.sampled_from(_BAD_CELLS))
    return "".join(",".join(row) + "\n" for row in rows)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 2))
def test_fuzzed_data_files_exit_cleanly(data, dim):
    text = data.draw(_mostly(_csv(dim), st.text(max_size=20)))
    two = MixingMeasure([0.5, 0.5], [Gaussian(np.zeros(dim), np.eye(dim)),
                                     Gaussian(np.ones(dim), np.eye(dim))])
    with tempfile.TemporaryDirectory() as tmp:
        mixture, data_file = Path(tmp, "mixture.json"), Path(tmp, "data.csv")
        mixture.write_text(json.dumps(mixture_to_dict(two)))
        data_file.write_text(text)
        _assert_exits_cleanly(["estimate", "--mixture", mixture, "--data", data_file,
                               "--out-dir", Path(tmp, "out")])


_BAD_NUMBERS = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e-320", "1e-200", "1e400",
                                "x", "", "1" + "0" * 400, "1,-1", "nan,0.5", "0.5,inf"])
_INTS = st.lists(st.integers(0, 200), min_size=1, max_size=5).map(
    lambda v: ",".join(map(str, v))
)
# each analyze number flag: a value it takes, else an edge or a malformed one
_ANALYZE_NUMBERS = {
    "k": st.integers(1, 10).map(str),
    "delta": st.floats(0.001, 0.5).map(repr),
    "value": st.floats(0.01, 1.0).map(repr),
    "counts": _INTS,
    "exponent": st.floats(0.0, 2.0).map(repr),
    "gap": st.floats(0.0, 1.0).map(repr),
    "n": st.integers(1, 500).map(str),
    "probs": st.sampled_from(["1.0", "0.5,0.5", "0.2,0.3,0.5"]),
    "m": st.integers(0, 50).map(str),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_analyze_numbers_exit_cleanly(data):
    argv = ["analyze"]
    if data.draw(st.booleans(), "--required-n"):
        argv.append("--required-n=" + data.draw(_mostly(st.sampled_from(["mle", "mv"]),
                                                         st.just("both"))))
    argv += data.draw(st.lists(st.sampled_from(["--mle-bound", "--mv-bound", "--min-count"]),
                               unique=True), "requests")
    for name, good in _ANALYZE_NUMBERS.items():
        if data.draw(_mostly(st.just(True), st.just(False)), name):
            argv.append(f"--{name}=" + data.draw(_mostly(good, _BAD_NUMBERS), name))
    with tempfile.TemporaryDirectory() as tmp:
        _assert_exits_cleanly([*argv, "--out-dir", tmp])
