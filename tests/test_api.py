"""Contract of the public names that other code looks up by name."""

import ast
import importlib
from pathlib import Path

import permlearn
from permlearn import estimators, harness

LAYER_MODULES = (
    "mixtures",
    "matching",
    "estimators",
    "harness",
    "cli",
    "analysis",
    "analysis.gaps",
    "analysis.bounds",
    "analysis.risk",
    "analysis.transport",
)


def test_exports_resolve_and_estimator_table_is_public():
    modules = [permlearn] + [importlib.import_module(f"permlearn.{m}") for m in LAYER_MODULES]
    for mod in modules:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert missing == [], f"{mod.__name__}.__all__ names undefined {missing}"

    # a tracer that wraps every name in estimators.__all__ must find each rule
    # the harness calls, or it cannot replace the table's entries
    for method, fn in harness._ESTIMATORS:
        assert fn.__module__ == "permlearn.estimators", method
        assert fn.__name__ in estimators.__all__, method
        assert getattr(estimators, fn.__name__) is fn, method

    gone = {
        "LabeledSample": ("permlearn", "permlearn.mixtures"),
        "BoundReport": ("permlearn", "permlearn.analysis", "permlearn.analysis.bounds"),
        # a whole dataset is the one-prefix PrefixSummaries
        "DataSummary": ("permlearn", "permlearn.estimators"),
        "summary_from_scores": ("permlearn", "permlearn.estimators"),
        # one way to run each estimator: *_estimate, or the *_prefixes rules
        "mle_from_summary": ("permlearn", "permlearn.estimators"),
        "mv_from_summary": ("permlearn", "permlearn.estimators"),
        "greedy_from_summary": ("permlearn", "permlearn.estimators"),
        # wrappers with no caller: _best_two, estimate_gaps(which=...) and
        # exp(mixture_log_density) do their work
        "second_best_matching": ("permlearn", "permlearn.matching"),
        "estimate_mle_gap": ("permlearn", "permlearn.analysis", "permlearn.analysis.gaps"),
        "estimate_mv_gap": ("permlearn", "permlearn.analysis", "permlearn.analysis.gaps"),
        "mixture_density": ("permlearn", "permlearn.mixtures"),
    }
    for name, places in gone.items():
        for place in places:
            assert not hasattr(importlib.import_module(place), name), f"{place}.{name}"


def scipy_uses(name):
    """Where a module of the package imports ``name`` from scipy or reads it."""
    package = Path(permlearn.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                if any(alias.name == name for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and node.attr == name:
                offenders.append(f"{path.name}:{node.lineno}")
    return offenders


def test_no_module_uses_scipy_logsumexp():
    # every log-sum-exp goes through mixtures._logsumexp, the one kernel
    assert scipy_uses("logsumexp") == []


def test_no_module_imports_solve_triangular():
    # Gaussian whitening calls LAPACK's dtrtrs directly: scipy's wrapper
    # re-validates and copies its operands on every call
    assert scipy_uses("solve_triangular") == []


def test_no_module_draws_a_weighted_choice():
    # every weighted draw goes through mixtures._categorical, which makes the
    # draw Generator.choice(k, n, p=p) makes with counting passes, not a search
    package = Path(permlearn.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "choice"
                and (len(node.args) >= 4 or any(kw.arg == "p" for kw in node.keywords))
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_results_have_no_hand_written_encoders():
    # every artifact is written by mixtures._json_text, which encodes any
    # result dataclass field by field
    from permlearn import analysis

    results = (
        estimators.EstimateOutcome,
        analysis.GapReport,
        analysis.RiskEstimate,
        analysis.TvEstimate,
        analysis.TransportPlan,
        analysis.DualEstimate,
    )
    assert [cls.__name__ for cls in results if hasattr(cls, "to_dict")] == []


def test_one_json_writer():
    package = Path(permlearn.__file__).parent
    writers = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                    writers.append(f"{path.name}:{func.name}")
    assert writers == ["mixtures.py:_json_text"]
