import json
import os
import subprocess
import sys

import numpy as np
import pytest

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
from permlearn.analysis import gaps as gaps_module, risk as risk_module
from permlearn.cli import main
from permlearn.harness import resolve_model
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

    def test_missing_dependency_flag(self, out, capsys):
        assert run(["analyze", "--required-n", "mv", "--k", "4", "--out-dir", out]) == 1
        assert "--delta" in capsys.readouterr().err

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
        original_draw, original_scores = sample_labeled, MixingMeasure.log_scores

        def counted_draw(*args, **kw):
            draws.append(args)
            return original_draw(*args, **kw)

        def counted_scores(measure, x):
            scorings.append(len(x))
            return original_scores(measure, x)

        for module in (cli, gaps_module, risk_module):
            monkeypatch.setattr(module, "sample_labeled", counted_draw)
        monkeypatch.setattr(MixingMeasure, "log_scores", counted_scores)
        self._analyze(out, files[0], [])
        assert len(draws) == 1 and scorings == [self.MC]
        draws.clear(), scorings.clear()
        self._analyze(out, files[0], ["--model", files[1]])
        assert len(draws) == 1 and scorings == [self.MC, self.MC]


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


_SOLVER_IMPORTS = """
import json, sys
from permlearn import cli
from permlearn.analysis import transport

roots = []
brentq = transport._brentq
transport._brentq = lambda *args: roots.append(1) or brentq(*args)
w1_code = cli.main(["analyze", "--w1", *sys.argv[1:3], "--out-dir", "w1"])
after_w1 = sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules)
exp_code = cli.main(["experiment", "--family", "gaussian-grid", "--k", "3", "--n-grid", "4,8",
                     "--trials", "2", "--out-dir", "exp"])
print(json.dumps([w1_code, len(roots), after_w1, exp_code, "scipy.optimize" in sys.modules]))
"""


def test_1d_w1_loads_no_scipy_solver_and_an_experiment_loads_optimize(tmp_path):
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
    for name, atoms in measures.items():
        (tmp_path / name).write_text(json.dumps(
            {"dim": 1, "atoms": [{"weight": w, "density": d} for w, d in atoms]}
        ))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SOLVER_IMPORTS, "a.json", "b.json"],
        cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
    )
    w1_code, roots, after_w1, exp_code, optimize_loaded = json.loads(proc.stdout.splitlines()[-1])
    # the mixture pairs are integrated and root-found, without scipy's solvers
    assert (w1_code, after_w1) == (0, [])
    assert roots > 0
    # a K = 3 experiment's matching MLE loads scipy.optimize at its first solve
    assert (exp_code, optimize_loaded) == (0, True)
