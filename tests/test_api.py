"""Contract of the public names that other code looks up by name."""

import ast
import importlib
import inspect
from pathlib import Path

import permlearn
from permlearn import estimators, harness, mixtures
from permlearn.analysis import transport

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
        # the 1-d TV envelope is read from the atoms' Gaussian parts in transport
        "ENVELOPE_SIGMAS": ("permlearn.mixtures",),
    }
    for name, places in gone.items():
        for place in places:
            assert not hasattr(importlib.import_module(place), name), f"{place}.{name}"


def test_knobs_that_select_nothing_are_gone():
    atoms = (
        mixtures.ComponentDensity,
        mixtures.Gaussian,
        mixtures.GaussianMixture,
        mixtures.KernelDensity,
    )
    assert [cls.__name__ for cls in atoms if hasattr(cls, "envelope_1d")] == []
    # a spec file goes through ExperimentSpec(**_spec_fields(d)), as --spec does
    assert not hasattr(harness.ExperimentSpec, "from_dict")
    # TV and W1 take their route from the dimension; the spec carries the seed
    for fn, name in (
        (transport.tv_distance, "method"),
        (transport.wasserstein1, "method"),
        (harness.generate_true_mixture, "seed"),
    ):
        assert name not in inspect.signature(fn).parameters, fn.__name__


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
    # every atom is whitened by the forward substitution of mixtures._score
    assert scipy_uses("solve_triangular") == []


def test_no_module_scores_by_lapack_or_cdist():
    # LAPACK whitens a point alone and inside a batch differently; the forward
    # substitution of mixtures._score, one entry at a time, does not
    for name in ("dtrtrs", "cdist"):
        assert scipy_uses(name) == [], name


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
    # mixtures._json_text writes every JSON file: it is the only top-level
    # function or method that calls json.dumps, and nothing calls json.dump or
    # encodes a JSON string by hand
    package = Path(permlearn.__file__).parent
    calls = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        tops = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            tops += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
        for func in tops:
            for node in ast.walk(func):
                name = getattr(node, "attr", getattr(node, "id", None))
                if name in ("dump", "dumps", "encode_basestring_ascii"):
                    calls.append(f"{path.name}:{func.name}:{name}")
    assert calls == ["mixtures.py:_json_text:dumps"]


def unread_locals(func):
    """Names that a function binds in its own scope and never reads.

    A read anywhere in the function counts, nested functions included, and
    an augmented assignment reads its target. ``_`` and names declared
    global or nonlocal are exempt.
    """
    nested = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    own, todo = [], list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        own.append(node)
        if not isinstance(node, nested):
            todo.extend(ast.iter_child_nodes(node))
    stored = {
        node.id: node.lineno
        for node in own
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    free = {"_"}
    for node in own:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            free.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            free.add(node.target.id)
    return sorted((line, name) for name, line in stored.items() if name not in free)


def test_no_function_binds_a_local_it_never_reads():
    package = Path(permlearn.__file__).parent
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for line, name in unread_locals(func):
                    offenders.append(f"{path.name}:{line} {func.name}: {name}")
    assert offenders == []


# importer -> module -> the private names it imports from that module, for
# every permlearn module (package prefix dropped). A new reach-in into another
# module's private names shows up as an edit here.
_PRIVATE_IMPORTS = {
    "analysis.bounds": {"mixtures": ["_TiltedLogSumExp"]},
    "analysis.gaps": {
        "estimators": ["_mle_weights"],
        "matching": ["_as_weight_matrix", "_best_two"],
        "mixtures": ["_label_from_scores"],
    },
    "analysis.risk": {"analysis.gaps": ["_gaps_and_risk"]},
    "analysis.transport": {"mixtures": ["_check_atoms"]},
    "cli": {
        "analysis.gaps": ["_gaps_and_risk"],
        "estimators": ["_estimate"],
        "harness": ["_SPEC_FIELDS", "_spec_fields"],
        "mixtures": ["_json_text", "_read_json"],
    },
    "harness": {"mixtures": ["_json_field"]},
}


def test_every_cross_module_private_import_is_listed():
    package = Path(permlearn.__file__).parent
    found: dict = {}
    for path in sorted(package.rglob("*.py")):
        dotted = path.relative_to(package.parent).with_suffix("").parts
        home = dotted[:-1]  # relative imports resolve against this package
        importer = ".".join(dotted[1:] if path.stem != "__init__" else home[1:])
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = home[: len(home) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            if module != "permlearn" and not module.startswith("permlearn."):
                continue
            for name in (alias.name for alias in node.names):
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    names = found.setdefault(importer, {})
                    names.setdefault(module.removeprefix("permlearn."), []).append(name)
    assert found == _PRIVATE_IMPORTS
