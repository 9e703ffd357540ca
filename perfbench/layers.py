"""Which bindings the traced run wraps, and the per-layer metrics it reports.

Every public function (``__all__``) of the layer modules is wrapped at every
binding inside the package that refers to it, so functions imported by name
(``from .matching import max_weight_matching``) are caught where their
callers look them up. Three more bindings are wrapped by hand: the estimator
table ``harness._ESTIMATORS``, scipy's ``linear_sum_assignment`` as imported
by ``matching`` and scipy's ``quad`` as imported by ``analysis.transport``
(to count integrand evaluations). Atom ``log_density`` methods and
``MixingMeasure.log_scores`` are wrapped on their classes.

``layers.json`` says which end-to-end metric each per-layer metric should
move, and on which workloads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict

import numpy as np

from .tracing import Tracer, self_times

LAYER_MODULES = (
    "mixtures",
    "matching",
    "estimators",
    "harness",
    "cli",
    "analysis.gaps",
    "analysis.bounds",
    "analysis.risk",
    "analysis.transport",
)

_SPAN_NAMES = {
    "estimators.summary_from_scores": "estimators.summary",
    "estimators.mle_from_summary": "estimators.mle",
    "estimators.mv_from_summary": "estimators.mv",
    "estimators.greedy_from_summary": "estimators.greedy",
}

_ATOM_SPANS = {
    "Gaussian": "mixtures.atom.gaussian",
    "GaussianMixture": "mixtures.atom.gaussian_mixture",
    "KernelDensity": "mixtures.atom.kde",
}

CLI_BYTES = "cli.bytes_written"
INTEGRAND_EVALS = "analysis.transport.integrand_evals"

def _rows(x) -> int:
    a = np.asarray(x)
    return int(a.shape[0]) if a.ndim == 2 else 1


def _threads(args, kwargs, _result) -> int:
    return int(kwargs.get("threads", args[1] if len(args) > 1 else 1))


_WORK = {
    "mixtures.sample_labeled": lambda a, k, r: r.n,
    "estimators.summary": lambda a, k, r: r.n,
    "harness.run_recovery_experiment": _threads,
}


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "permlearn" or name.startswith("permlearn."))
    ]


def _rebind(tracer: Tracer, modules, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                tracer.patch(mod, attr, wrapper)


def _counting_quad(tracer: Tracer, quad):
    @functools.wraps(quad)
    def wrapper(func, *args, **kwargs):
        if not tracer.enabled:
            return quad(func, *args, **kwargs)
        calls = [0]

        def counted(x, *extra):
            calls[0] += 1
            return func(x, *extra)

        try:
            return quad(counted, *args, **kwargs)
        finally:
            tracer.count(INTEGRAND_EVALS, calls[0])

    return wrapper


def instrument(tracer: Tracer) -> None:
    """Wrap the layer functions of the permlearn package; undone by restore."""
    try:
        _instrument(tracer)
    except BaseException:
        tracer.restore()
        raise


def _instrument(tracer: Tracer) -> None:
    layers = {short: importlib.import_module("permlearn." + short) for short in LAYER_MODULES}
    transport, harness = layers["analysis.transport"], layers["harness"]
    matching, mixtures = layers["matching"], layers["mixtures"]
    modules = _package_modules()
    wrappers = {}
    for short, mod in layers.items():
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            span = _SPAN_NAMES.get(f"{short}.{name}", f"{short}.{name}")
            if fn is transport.tv_distance:
                wrapper = tracer.span(
                    fn, span, rename=lambda est: "analysis.transport.tv." + est.method
                )
            else:
                wrapper = tracer.span(fn, span, work=_WORK.get(span))
            wrappers[fn] = wrapper
            _rebind(tracer, modules, fn, wrapper)

    tracer.patch(
        harness,
        "_ESTIMATORS",
        tuple((name, wrappers[fn]) for name, fn in harness._ESTIMATORS),
    )
    lsa = matching.linear_sum_assignment
    tracer.patch(matching, "linear_sum_assignment", tracer.leaf(lsa, "matching.lsa"))
    tracer.patch(transport, "quad", _counting_quad(tracer, transport.quad))

    cls = mixtures.MixingMeasure
    tracer.patch(
        cls,
        "log_scores",
        tracer.span(
            cls.__dict__["log_scores"],
            "mixtures.log_scores",
            work=lambda a, k, r: int(r.shape[0]) if r.ndim == 2 else 1,
        ),
    )
    for cls_name, span in _ATOM_SPANS.items():
        cls = getattr(mixtures, cls_name)
        tracer.patch(
            cls,
            "log_density",
            tracer.leaf(
                cls.__dict__["log_density"], span, work=lambda a, k: _rows(a[1])
            ),
        )


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans, tracer.leaves)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    for s in spans:
        incl[s.name] += s.end - s.start
        own[s.name] += selfs[s.idx]
        calls[s.name] += 1
        work[s.name] += s.work
    for (_parent, name, _tid, _nested), (n, seconds, w) in tracer.leaves.items():
        incl[name] += seconds
        calls[name] += n
        work[name] += w

    def layer_self(prefix: str) -> float:
        return sum(
            (v for k, v in own.items() if k == prefix or k.startswith(prefix + ".")), 0.0
        )

    harness_spans = {
        s.idx: s for s in spans if s.name == "harness.run_recovery_experiment"
    }
    busy = sum(s.end - s.start for s in spans if s.parent in harness_spans)
    capacity = sum((h.end - h.start) * h.work for h in harness_spans.values())
    matchings = calls["matching.max_weight_matching"] + calls["matching.second_best_matching"]
    atom_calls = sum(calls[name] for name in _ATOM_SPANS.values())
    density_evals = sum(work[name] for name in _ATOM_SPANS.values())

    out = {
        "matching.lsa_solves": calls["matching.lsa"],
        "matching.lsa.s": incl["matching.lsa"],
        "matching.max_weight_matching.s": incl["matching.max_weight_matching"],
        "matching.second_best_matching.s": incl["matching.second_best_matching"],
        "matching.solves_per_matching": (
            calls["matching.lsa"] / matchings if matchings else 0.0
        ),
        "estimators.summary.s": incl["estimators.summary"],
        "estimators.summary.rows": work["estimators.summary"],
        "estimators.mle.self_s": own["estimators.mle"],
        "estimators.mv.s": incl["estimators.mv"],
        "estimators.greedy.s": incl["estimators.greedy"],
        "estimators.cells": (
            calls["estimators.mle"] + calls["estimators.mv"] + calls["estimators.greedy"]
        ),
        "harness.self_s": layer_self("harness"),
        "harness.busy_frac": busy / capacity if capacity else 0.0,
        "cli.self_s": layer_self("cli"),
        CLI_BYTES: tracer.counters[CLI_BYTES],
        "mixtures.log_scores.s": incl["mixtures.log_scores"],
        "mixtures.log_scores.points": work["mixtures.log_scores"],
        "mixtures.atom.gaussian.s": incl["mixtures.atom.gaussian"],
        "mixtures.atom.gaussian_mixture.s": incl["mixtures.atom.gaussian_mixture"],
        "mixtures.atom.kde.s": incl["mixtures.atom.kde"],
        "mixtures.density_evals": density_evals,
        "mixtures.points_per_atom_call": (
            density_evals / atom_calls if atom_calls else 0.0
        ),
        "mixtures.sample_labeled.s": incl["mixtures.sample_labeled"],
        "mixtures.sample_labeled.points": work["mixtures.sample_labeled"],
        "analysis.bounds.chernoff.self_s": (
            own["analysis.bounds.chernoff_exponent"]
            + own["analysis.bounds.chernoff_exponent_from_scores"]
        ),
        "analysis.bounds.chernoff.calls": calls[
            "analysis.bounds.chernoff_exponent_from_scores"
        ],
        "analysis.gaps.self_s": layer_self("analysis.gaps"),
        "analysis.risk.self_s": layer_self("analysis.risk"),
        "analysis.transport.tv.quadrature.s": incl["analysis.transport.tv.quadrature"],
        "analysis.transport.tv.quadrature.calls": calls["analysis.transport.tv.quadrature"],
        INTEGRAND_EVALS: tracer.counters[INTEGRAND_EVALS],
        "analysis.transport.coupling.s": own["analysis.transport.wasserstein1"],
        "analysis.transport.tv.mc.s": incl["analysis.transport.tv.mc"],
        "analysis.transport.tv.mc.calls": calls["analysis.transport.tv.mc"],
        "trace.overhead_frac": overhead_frac,
    }
    return out
