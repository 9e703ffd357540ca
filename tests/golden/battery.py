"""A fixed battery of CLI runs whose artifact bytes are pinned by SHA-256.

The battery writes a few hand-made inputs, then runs ``permlearn`` commands
(gen, estimate, analyze, experiment and two failing commands) in one working
directory with relative paths. It hashes every file the commands write;
manifests are hashed with their ``wall_time_s`` value blanked, the one field
that varies between reruns. Failing commands keep their exit code and stderr.

    python tests/golden/battery.py --record   # re-record hashes.json, list what moved
    python tests/golden/battery.py --dir DIR  # run in DIR, print the result

``--only analyze`` runs just the analyze commands, on the inputs an earlier
full run left in ``--dir``. ``tests/golden/test_golden.py`` checks the result
against ``hashes.json``, in process and in subprocesses at one and at the
default number of OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

HASHES = Path(__file__).with_name("hashes.json")
RECORD_COMMAND = "python tests/golden/battery.py --record"


def _gaussian(mean, var):
    return {"type": "gaussian", "mean": [mean], "cov": [[var]]}


def _mixture(*atoms):
    """1-d mixture JSON from (weight, density) pairs."""
    return {"dim": 1, "atoms": [{"weight": w, "density": d} for w, d in atoms]}


def _nested(*parts):
    """1-d GaussianMixture density JSON from (weight, mean, variance) parts."""
    return {"type": "gaussian_mixture", "components": [
        {"weight": w, "mean": [m], "cov": [[v]]} for w, m, v in parts
    ]}


def _kde(points, bandwidth):
    return {"type": "kde", "points": [[p] for p in points], "bandwidth": bandwidth}


UNEQUAL3 = _mixture(
    (0.6, _gaussian(-2.0, 1.0)), (0.3, _gaussian(0.0, 0.5)), (0.1, _gaussian(2.5, 1.5))
)

INPUTS = {
    "in/unequal3.json": UNEQUAL3,
    "in/unequal3_shifted.json": _mixture(
        (0.5, _gaussian(-1.5, 1.0)), (0.3, _gaussian(0.5, 0.7)), (0.2, _gaussian(3.0, 1.0))
    ),
    "in/unequal2.json": _mixture((0.9, _gaussian(-2.0, 1.0)), (0.1, _gaussian(2.0, 1.0))),
    # its region 2 lies far beyond the truth's mass: no Monte-Carlo sample lands there
    "in/far.json": _mixture((0.5, _gaussian(0.0, 1.0)), (0.5, _gaussian(80.0, 1.0))),
    "in/tv_gauss_a.json": _mixture((1.0, _gaussian(0.0, 1.0))),
    "in/tv_gauss_b.json": _mixture((1.0, _gaussian(0.7, 2.0))),
    "in/tv_mix.json": _mixture((1.0, {
        "type": "gaussian_mixture",
        "components": [
            {"weight": 0.3, "mean": [-1.0], "cov": [[0.2]]},
            {"weight": 0.7, "mean": [1.0], "cov": [[0.5]]},
        ],
    })),
    "in/tv_kde.json": _mixture((1.0, {
        "type": "kde", "points": [[-0.5], [0.1], [0.4], [1.8]], "bandwidth": 0.3,
    })),
    # 1-d transport by quadrature: a 2x2 coupling of GaussianMixture atoms, and a
    # 3x3 coupling of KDE atoms against GaussianMixture atoms
    "in/w1_mix2_a.json": _mixture(
        (0.4, _nested((0.5, -2.0, 0.3), (0.5, -1.0, 0.6))),
        (0.6, _nested((0.3, 1.0, 0.4), (0.7, 2.2, 0.8))),
    ),
    "in/w1_mix2_b.json": _mixture(
        (0.55, _nested((0.6, -1.7, 0.5), (0.4, -0.6, 0.3))),
        (0.45, _nested((0.5, 1.4, 0.6), (0.5, 2.0, 0.2))),
    ),
    "in/w1_kde3.json": _mixture(
        (0.3, _kde([-2.5, -2.1, -1.6], 0.4)),
        (0.3, _kde([-0.3, 0.2, 0.5, 0.9], 0.25)),
        (0.4, _kde([1.8, 2.4, 3.1], 0.5)),
    ),
    "in/w1_mix3.json": _mixture(
        (0.25, _nested((0.5, -2.4, 0.2), (0.5, -1.8, 0.5))),
        (0.35, _nested((0.7, 0.1, 0.3), (0.3, 0.8, 0.1))),
        (0.4, _nested((0.4, 2.0, 0.6), (0.6, 2.9, 0.4))),
    ),
    "in/tv_2d_a.json": {"dim": 2, "atoms": [{"weight": 1.0, "density": {
        "type": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.3], [0.3, 1.0]]}}]},
    "in/tv_2d_b.json": {"dim": 2, "atoms": [{"weight": 1.0, "density": {
        "type": "gaussian", "mean": [0.5, -0.5], "cov": [[1.5, 0.0], [0.0, 0.8]]}}]},
    "in/spec.json": {
        "family": "custom",
        "true_mixture": UNEQUAL3,
        "model_mixture": _mixture(
            (0.5, _gaussian(-1.8, 1.2)), (0.35, _gaussian(0.2, 0.5)), (0.15, _gaussian(2.2, 1.5))
        ),
        "n_grid": [2, 5, 10, 20],
        "trials": 4,
        "label_noise": 0.1,
        "seed": 7,
    },
}

# A region-1 vote tie (labels 1 and 2) for majority vote, and two classes
# whose score rows both peak in region 1 for greedy.
TIE_CSV = "x_1,y\n-2.0,1\n-2.2,2\n-0.1,2\n0.2,1\n2.6,3\n"
# One sample: the MLE's log-likelihood is its score in region 1, to the last bit.
ONE_CSV = "x_1,y\n-2.0,1\n"

GEN = [
    (f"gen/{family}", ["gen", "--family", family, "--k", "3", "--dim", "2",
                       "--seed", "4", "--samples", "120"])
    for family in (
        "gaussian-grid",
        "gaussian-grid-perturbed",
        "mixture-of-mixtures",
        "mixture-of-mixtures-perturbed",
    )
] + [
    ("gen/tiny", ["gen", "--family", "gaussian-grid", "--k", "4", "--seed", "1",
                  "--samples", "3"]),
    ("gen/k9_3d", ["gen", "--family", "mixture-of-mixtures", "--k", "9", "--dim", "3",
                   "--seed", "2", "--samples", "50"]),
]

GRID = "gen/gaussian-grid"
PERTURBED = "gen/gaussian-grid-perturbed"

ESTIMATE = [
    ("est/all", ["estimate", "--mixture", f"{GRID}/mixture.json",
                 "--data", f"{GRID}/data.csv"]),
    ("est/tie_all", ["estimate", "--mixture", "in/unequal3.json",
                     "--data", "in/tie.csv", "--method", "all"]),
    ("est/one_sample", ["estimate", "--mixture", "in/unequal3.json", "--data", "in/one.csv"]),
] + [
    (f"est/tiny_{method}", ["estimate", "--mixture", "gen/tiny/mixture.json",
                            "--data", "gen/tiny/data.csv", "--method", method])
    for method in ("mle", "mv", "greedy")
]

GAPS = ["--gap-mle", "--gap-mv", "--risk", "--mc", "3000"]

ANALYZE = [
    ("ana/truth", ["analyze", "--truth", f"{GRID}/mixture.json", *GAPS, "--seed", "1"]),
    ("ana/perturbed", ["analyze", "--truth", f"{PERTURBED}/mixture.json",
                       "--model", f"{PERTURBED}/model.json", *GAPS, "--seed", "2"]),
    ("ana/nested_perturbed", ["analyze", "--truth", "gen/mixture-of-mixtures-perturbed/mixture.json",
                              "--model", "gen/mixture-of-mixtures-perturbed/model.json",
                              *GAPS, "--perm", "2,1,3", "--seed", "3"]),
    # non-identity true permutations on unequal weights
    ("ana/true_perm3", ["analyze", "--truth", "in/unequal3.json", "--true-perm", "2,3,1",
                        *GAPS, "--perm", "2,3,1", "--seed", "4"]),
    ("ana/true_perm2", ["analyze", "--truth", "in/unequal2.json", "--true-perm", "2,1",
                        *GAPS, "--seed", "5"]),
    ("ana/empty_region", ["analyze", "--truth", "in/unequal2.json", "--model", "in/far.json",
                          *GAPS, "--seed", "8"]),
    ("ana/tv_gauss", ["analyze", "--tv", "in/tv_gauss_a.json", "in/tv_gauss_b.json"]),
    ("ana/tv_mix", ["analyze", "--tv", "in/tv_gauss_a.json", "in/tv_mix.json"]),
    ("ana/tv_kde", ["analyze", "--tv", "in/tv_kde.json", "in/tv_mix.json"]),
    ("ana/tv_2d", ["analyze", "--tv", "in/tv_2d_a.json", "in/tv_2d_b.json",
                   "--mc", "4000", "--seed", "6"]),
    ("ana/w1_1d", ["analyze", "--w1", "in/unequal3.json", "in/unequal3_shifted.json"]),
    ("ana/w1_mix2", ["analyze", "--w1", "in/w1_mix2_a.json", "in/w1_mix2_b.json"]),
    ("ana/w1_kde_mix3", ["analyze", "--w1", "in/w1_kde3.json", "in/w1_mix3.json"]),
    ("ana/w1_2d", ["analyze", "--w1", f"{GRID}/mixture.json", f"{PERTURBED}/model.json",
                   "--mc", "2000", "--seed", "7"]),
    ("ana/bounds_mle", ["analyze", "--required-n", "mle", "--k", "3", "--delta", "0.05",
                        "--value", "0.3", "--mle-bound", "--counts", "10,20,30",
                        "--exponent", "0.1", "--min-count", "--n", "50",
                        "--probs", "0.2,0.3,0.5", "--m", "5"]),
    ("ana/bounds_mv", ["analyze", "--required-n", "mv", "--k", "4", "--delta", "0.1",
                       "--value", "0.2", "--mv-bound", "--counts", "5,6,7,8",
                       "--gap", "0.25"]),
]

EXPERIMENT = [
    ("exp/cli", ["experiment", "--family", "mixture-of-mixtures-perturbed", "--k", "3",
                 "--n-grid", "3,6,12", "--trials", "4", "--seed", "5"]),
    ("exp/spec", ["experiment", "--spec", "in/spec.json"]),
]

FAILING = [
    ("fail/missing", ["estimate", "--mixture", "in/nope.json", "--data", "in/nope.csv"]),
    ("fail/tv_atoms", ["analyze", "--tv", "in/unequal3.json", "in/tv_gauss_a.json"]),
]

COMMANDS = GEN + ESTIMATE + ANALYZE + EXPERIMENT + FAILING
ANALYZE_DIRS = tuple(out for out, _ in ANALYZE)

_WALL_TIME = re.compile(rb'("wall_time_s": )[^,\n}]*')


def _blas(module) -> str:
    """Name and version of the BLAS a numpy or scipy build links."""
    blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']}"


def versions() -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy),
    }


def _write_inputs(workdir: Path) -> None:
    for name, obj in INPUTS.items():
        path = workdir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    (workdir / "in/tie.csv").write_text(TIE_CSV)
    (workdir / "in/one.csv").write_text(ONE_CSV)


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = _WALL_TIME.sub(rb"\1null", data)
    return hashlib.sha256(data).hexdigest()


def run_battery(workdir, only: str | None = None) -> dict:
    """Run the battery (or its analyze commands) in workdir; hashes and failures.

    The result maps each written file's path relative to workdir to its
    SHA-256, and each failing command's output directory to its exit code and
    stderr.
    """
    from permlearn.cli import main

    workdir = Path(workdir)
    commands = ANALYZE if only == "analyze" else COMMANDS
    if only is None:
        _write_inputs(workdir)
    failures = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for out, argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--out-dir", out])
            if code != 0:
                failures[out] = {"exit": code, "stderr": err.getvalue()}
    finally:
        os.chdir(previous)
    roots = [workdir / out for out, _ in commands]
    artifacts = {
        path.relative_to(workdir).as_posix(): _digest(path)
        for root in roots if root.exists()
        for path in sorted(root.rglob("*")) if path.is_file()
    }
    return {"artifacts": dict(sorted(artifacts.items())), "failures": failures}


def diff(old: dict, new: dict) -> dict:
    """Artifact paths whose digest changed, and those only in new or only in old."""
    return {
        "changed": sorted(k for k in old.keys() & new.keys() if old[k] != new[k]),
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help=f"rewrite {HASHES.name}")
    parser.add_argument("--dir", default=None, help="working directory (default: a temp dir)")
    parser.add_argument("--only", choices=("analyze",), default=None)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        result = run_battery(args.dir or tmp, args.only)
    if args.record:
        previous = json.loads(HASHES.read_text())["artifacts"] if HASHES.exists() else {}
        record = {"record_command": RECORD_COMMAND, "versions": versions(), **result}
        HASHES.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(result['artifacts'])} artifacts in {HASHES}")
        for kind, paths in diff(previous, result["artifacts"]).items():
            print(f"{kind}: {len(paths)}", *paths, sep="\n  ")
    else:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    sys.exit(main())
