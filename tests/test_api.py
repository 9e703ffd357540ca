"""Contract of the public names that other code looks up by name."""

import importlib

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
    }
    for name, places in gone.items():
        for place in places:
            assert not hasattr(importlib.import_module(place), name), f"{place}.{name}"
