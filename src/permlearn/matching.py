"""Maximum-weight perfect matching on square score matrices.

Entry (k, b) of a weight matrix scores assigning class k to region b; a
permutation is a perfect matching of classes to regions. The solver runs as
a min-cost assignment on negated weights, so tie tolerances below refer to
total weights of whole permutations. At K = 2 a closed form follows scipy's
solver decision for decision, exact ties included, and loads no scipy. Larger
K call scipy's compiled solver, the ``scipy.optimize._lsap`` extension, which
``_load_extension`` loads from its file at the first such solve without the
rest of the ``scipy.optimize`` package; 1-d TV loads its root finder the same
way.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .mixtures import Permutation

__all__ = [
    "MatchingResult",
    "max_weight_matching",
    "max_weight_assignments",
    "brute_force_matching",
    "TIE_TOL",
    "BRUTE_FORCE_LIMIT",
]

# Two permutations count as tied when their totals differ by at most
# TIE_TOL * max(1, sum_k |w[k, perm(k)]|) of the optimum perm. Weight
# matrices are sums over samples, so an absolute tolerance would change
# meaning with the sample size; this one is invariant to scaling by 2**j.
TIE_TOL = 1e-9

# brute_force_matching refuses anything above 9! evaluations.
BRUTE_FORCE_LIMIT = 9


@dataclass(frozen=True)
class MatchingResult:
    """A permutation with its total weight.

    ``is_unique`` is False when some other permutation's total comes within
    the tie tolerance (TIE_TOL relative to the optimum's absolute weight) of
    the best total.
    """

    permutation: Permutation
    total_weight: float
    is_unique: bool


def _as_weight_matrix(weights: ArrayLike, ndim: int = 2) -> np.ndarray:
    """Validated float weights: one matrix (ndim 2) or a stack of them (3).

    Each matrix must be square, nonempty and finite.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != ndim or w.shape[-1] != w.shape[-2] or w.shape[-1] == 0:
        raise ValueError("weight matrix must be square and nonempty")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix entries must be finite")
    return w


def __getattr__(name: str):
    # The solver loads at the first K >= 3 solve, not at import. The first
    # lookup stores it in the module __dict__, so tests and perfbench's tracer
    # patch and restore it as an imported name.
    if name == "linear_sum_assignment":
        value = globals()[name] = _load_extension("scipy.optimize._lsap", name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load_extension(name: str, attr: str):
    """``attr`` of scipy's compiled extension module ``name``, without its package.

    The assignment solver (``scipy.optimize._lsap``) and the root finder
    behind ``brentq`` (``scipy.optimize._zeros``) live in such modules, which
    need only numpy. The module is executed from its file and registered in
    ``sys.modules`` under its full name, so a later ``import scipy.optimize``
    reuses it and uses this very attribute. CPython may register an
    extension while creating it, before it runs; ``setdefault`` keeps
    whichever module object is registered, and its attribute is the same
    either way. Where no such file exists, the attribute is bound through
    the imported package.
    """
    module = sys.modules.get(name)
    if module is None:
        import scipy

        package, _, leaf = name.rpartition(".")
        paths = [os.path.join(path, *package.split(".")[1:]) for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec(name, paths)
        if spec is None:
            return getattr(getattr(importlib.import_module(package), leaf), attr)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module = sys.modules.setdefault(name, module)
    return getattr(module, attr)


def _columns(w: np.ndarray) -> np.ndarray:
    """scipy's min-cost columns for the costs -w of a (G, K, K) stack, K >= 2.

    A weight of -inf forbids its edge. At K = 2 the swap below is the solver's
    two shortest augmenting paths in closed form: its comparisons and
    left-to-right sums, exact for one +inf cost too. Other K call the solver
    bound to ``linear_sum_assignment`` now, loaded on first use.
    """
    if w.shape[1] == 2:
        c00, c01, c10, c11 = (-w[:, i, j] for i in (0, 1) for j in (0, 1))
        # row 0 takes its cheaper column, column 0 on a tie; row 1 takes the
        # other one unless a strictly cheaper path reroutes row 0
        with np.errstate(over="ignore", invalid="ignore"):
            swap = np.where(
                c00 <= c01,
                (c10 < c11) & (c10 + c01 - c00 < c11),
                ~((c11 < c10) & (c11 + c00 - c01 < c10)),
            )
        return np.stack([swap, ~swap], axis=1).astype(np.intp)
    lsa = globals().get("linear_sum_assignment") or __getattr__("linear_sum_assignment")
    return np.array([lsa(-m)[1] for m in w], dtype=np.intp).reshape(w.shape[:2])


def _total(w: np.ndarray, cols: np.ndarray) -> float:
    return float(w[np.arange(w.shape[0]), cols].sum())


def _tie_tol(w: np.ndarray, cols: np.ndarray) -> float:
    """Total-weight distance within which another permutation ties cols."""
    return TIE_TOL * max(1.0, float(np.abs(w[np.arange(w.shape[0]), cols]).sum()))


def _permutation(cols: np.ndarray) -> Permutation:
    return Permutation(tuple(int(c) + 1 for c in cols))


def _best_two(w: np.ndarray) -> tuple[MatchingResult, MatchingResult]:
    """Optimum and runner-up of w (K >= 2), both flagged with the optimum's tie.

    Any permutation other than the optimum disagrees with it on at least one
    row, so forbidding each optimal edge in turn and re-solving covers all of
    them exactly.
    """
    forbid = w[np.newaxis].copy()
    best = _columns(forbid)[0]
    second_total, second = -np.inf, None
    for row in range(w.shape[0]):
        saved = forbid[0, row, best[row]]
        forbid[0, row, best[row]] = -np.inf
        cols = _columns(forbid)[0]
        forbid[0, row, best[row]] = saved
        total = _total(w, cols)
        if total > second_total:
            second_total, second = total, cols
    best_total = _total(w, best)
    unique = best_total - second_total > _tie_tol(w, best)
    return (
        MatchingResult(_permutation(best), best_total, unique),
        MatchingResult(_permutation(second), second_total, unique),
    )


def max_weight_matching(weights: ArrayLike) -> MatchingResult:
    """Permutation maximizing the total weight sum_k w[k, perm(k)]."""
    w = _as_weight_matrix(weights)
    if w.shape[0] == 1:
        return MatchingResult(Permutation.identity(1), float(w[0, 0]), True)
    return _best_two(w)[0]


def max_weight_assignments(weights: ArrayLike) -> np.ndarray:
    """Max-weight columns of a stack of G weight matrices, shape (G, K, K).

    Row g of the result holds the 0-based region of each class for
    weights[g], the permutation max_weight_matching(weights[g]) returns. It
    makes one assignment solve per matrix and no runner-up solve, so it has
    no tie flag.
    """
    w = _as_weight_matrix(weights, ndim=3)
    if w.shape[1] == 1:
        return np.zeros(w.shape[:2], dtype=np.intp)
    return _columns(w)


@functools.cache
def _lex_table(k: int) -> np.ndarray:
    """Every permutation of range(k) as an int8 row, in lexicographic order."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int8)
    rest = _lex_table(k - 1)
    # head h, then the rows of rest relabelled to the other values in order
    return np.concatenate([np.insert(rest + (rest >= h), 0, h, axis=1) for h in range(k)])


def brute_force_matching(weights: ArrayLike) -> MatchingResult:
    """Exhaustive reference maximizer; refuses K > BRUTE_FORCE_LIMIT.

    Every permutation of the cached lexicographic table is scored in one
    gather; the first of tied optima wins, which gives lexicographically-first
    semantics.
    """
    w = _as_weight_matrix(weights)
    k = w.shape[0]
    if k > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force refused for K > {BRUTE_FORCE_LIMIT}")
    table = _lex_table(k)
    totals = w[np.arange(k), table].sum(axis=1)
    top = int(np.argmax(totals))
    # the runner-up is a distinct permutation, even on an exact tie with the optimum
    best, runner = float(totals[top]), float(np.delete(totals, top).max(initial=-np.inf))
    is_unique = k == 1 or best - runner > _tie_tol(w, table[top])
    return MatchingResult(_permutation(table[top]), best, is_unique)
