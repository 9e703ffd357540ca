import importlib.machinery
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, linear_sum_assignment

from permlearn import (
    Gaussian,
    GaussianMixture,
    Permutation,
    brute_force_matching,
    matching,
    max_weight_matching,
    tv_distance,
)
from permlearn.harness import ExperimentSpec, run_recovery_experiment
from permlearn.matching import (
    TIE_TOL,
    _as_weight_matrix,
    _best_two,
    _columns,
    max_weight_assignments,
)


def runner_up(w):
    """The runner-up of the MLE gap: the best permutation other than the optimum."""
    return _best_two(_as_weight_matrix(w))[1]


def test_worked_two_by_two():
    w = [[4.0, 1.0], [2.0, 3.0]]
    r = max_weight_matching(w)
    assert r.permutation.to_region == (1, 2)
    assert r.total_weight == 7.0
    assert r.is_unique
    s = runner_up(w)
    assert s.permutation.to_region == (2, 1)
    assert s.total_weight == 3.0


def test_single_class():
    r = max_weight_matching([[2.5]])
    assert r.permutation.to_region == (1,)
    assert r.total_weight == 2.5
    assert r.is_unique


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros((0, 0)), [[np.nan, 0], [0, 1]]])
def test_rejects_bad_matrices(bad):
    with pytest.raises(ValueError):
        max_weight_matching(bad)


def test_exact_tie_detected():
    w = np.ones((3, 3))
    r = max_weight_matching(w)
    assert not r.is_unique
    s = runner_up(w)
    assert s.total_weight == r.total_weight
    assert s.permutation != r.permutation


def test_near_tie_within_tolerance():
    # identity totals 2.0; the swap totals 2.0 + eps
    w = np.array([[1.0, 1.0 + 0.5 * TIE_TOL], [1.0, 1.0]])
    assert not max_weight_matching(w).is_unique
    w2 = np.array([[1.0, 1.0 + 10 * TIE_TOL], [1.0, 1.0]])
    assert max_weight_matching(w2).is_unique


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_agrees_with_brute_force(k):
    rng = np.random.default_rng(k)
    for _ in range(40):
        w = rng.normal(size=(k, k))
        fast = max_weight_matching(w)
        slow = brute_force_matching(w)
        assert fast.permutation == slow.permutation
        assert fast.total_weight == pytest.approx(slow.total_weight, abs=1e-12)
        assert fast.is_unique == slow.is_unique


def test_second_best_agrees_with_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(2, 6))
        w = rng.normal(size=(k, k))
        best = max_weight_matching(w)
        second = runner_up(w)
        totals = {
            perm: float(w[np.arange(k), perm].sum())
            for perm in itertools.permutations(range(k))
        }
        best_key = tuple(c - 1 for c in best.permutation.to_region)
        runner = max(v for p, v in totals.items() if p != best_key)
        assert second.total_weight == pytest.approx(runner, abs=1e-12)
        assert second.permutation != best.permutation


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(
                st.floats(
                    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
                ),
                min_size=k * k,
                max_size=k * k,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_row_shift_leaves_argmax_alone(kw):
    # adding a constant to one row shifts every permutation's total equally
    k, flat = kw
    w = np.array(flat).reshape(k, k)
    before = max_weight_matching(w)
    shifted = w.copy()
    shifted[0] += 17.25
    after = max_weight_matching(shifted)
    if before.is_unique:
        assert after.permutation == before.permutation
    assert after.total_weight == pytest.approx(before.total_weight + 17.25, rel=1e-9, abs=1e-7)


def test_zero_rows_fall_back_to_available_columns():
    # rows with no information keep the matching feasible; with the other
    # rows pinned to the diagonal the free rows land on their own columns
    w = np.zeros((4, 4))
    w[0, 0] = 5.0
    w[2, 2] = 5.0
    r = max_weight_matching(w)
    assert r.permutation.to_region == (1, 2, 3, 4)
    assert not r.is_unique


def test_forbidden_edge_handles_infinite_cost():
    # second-best machinery must not leak the sentinel into results
    w = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    s = runner_up(w)
    assert np.isfinite(s.total_weight)
    assert s.total_weight == pytest.approx(10.0)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_assignments_match_single_solves(k):
    rng = np.random.default_rng(k)
    stack = rng.normal(size=(6, k, k))
    stack[1] = 0.0  # all ties: the solver's deterministic choice must agree too
    cols = max_weight_assignments(stack)
    assert cols.shape == (6, k)
    for w, row in zip(stack, cols):
        assert tuple(row + 1) == max_weight_matching(w).permutation.to_region


@pytest.mark.parametrize(
    "bad", [np.zeros((2, 2)), np.zeros((2, 2, 3)), np.full((1, 2, 2), np.inf)]
)
def test_assignments_reject_bad_stacks(bad):
    with pytest.raises(ValueError):
        max_weight_assignments(bad)


def _two_by_two_costs(rng):
    """(G, 2, 2) cost stacks, -weights, where scipy's tie-breaks and rounding decide."""
    yield rng.integers(-3, 4, size=(2000, 2, 2)).astype(float)  # exact ties
    zero_row = rng.integers(-2, 3, size=(1000, 2, 2)).astype(float)
    zero_row[::2, 0] = 0.0
    zero_row[1::2, 1] = 0.0
    yield zero_row
    yield rng.choice([0.0, -0.0, 1.0, -1.0], size=(1000, 2, 2))
    # c10 = c11 = 2**e and row 0 below one ulp of it: the solver's sums round
    # across the binade, so each of its four comparisons decides some of these
    edge = np.ones((4000, 2, 2)) * 2.0 ** rng.integers(-20, 21, size=(4000, 1, 1))
    edge[:, 0] *= rng.uniform(0.0, 2.0**-52, size=(4000, 2))
    yield edge
    for scale in (1e-3, 1.0, 1e6):
        c = rng.normal(size=(1000, 2, 2)) * scale
        # c11 on the solver's sum c10 + c01 - c00, c10 on c11 + c00 - c01, and
        # each one ulp to either side
        on_c11, on_c10 = c.copy(), c.copy()
        on_c11[:, 1, 1] = c[:, 1, 0] + c[:, 0, 1] - c[:, 0, 0]
        on_c10[:, 1, 0] = c[:, 1, 1] + c[:, 0, 0] - c[:, 0, 1]
        for tie, col in ((on_c11, 1), (on_c10, 0)):
            yield tie
            for toward in (np.inf, -np.inf):
                off = tie.copy()
                off[:, 1, col] = np.nextafter(tie[:, 1, col], toward)
                yield off
    for pos in range(4):
        c = rng.integers(-3, 4, size=(1000, 2, 2)).astype(float)
        c[:, pos // 2, pos % 2] = np.inf  # a forbidden edge of the runner-up search
        yield c


def test_two_by_two_columns_are_scipys():
    for cost in _two_by_two_costs(np.random.default_rng(2)):
        got = _columns(-cost)
        assert got.dtype == np.intp
        for c, cols in zip(cost, got):
            assert tuple(cols) == tuple(linear_sum_assignment(c)[1]), c


def test_two_by_two_tie_flag_and_runner_up_are_brute_forces():
    rng = np.random.default_rng(3)
    draws = [rng.integers(-2, 3, size=(2, 2)).astype(float) for _ in range(300)]
    draws += [rng.normal(size=(2, 2)) for _ in range(300)]
    for w in draws:
        fast, runner = max_weight_matching(w), runner_up(w)
        slow = brute_force_matching(w)
        other = [2 - c for c in slow.permutation.to_region]  # the other permutation
        assert fast.is_unique == runner.is_unique == slow.is_unique
        assert fast.total_weight == slow.total_weight
        assert runner.total_weight == w[[0, 1], other].sum()
        if slow.is_unique:
            assert fast.permutation == slow.permutation


def test_two_class_recovery_makes_no_scipy_solve(monkeypatch):
    spec = ExperimentSpec("gaussian_grid", k=2, dim=2, n_grid=(3, 6, 12, 24), trials=5, seed=4)
    expected = run_recovery_experiment(spec).points

    def refuse(cost):
        raise AssertionError("a K = 2 solve reached scipy")

    monkeypatch.setattr(matching, "linear_sum_assignment", refuse)
    assert run_recovery_experiment(spec).points == expected


_LOAD_ORDER = """
import sys
import numpy as np
from permlearn import matching

matching.max_weight_assignments(np.eye(3)[np.newaxis])
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
import scipy.optimize

print(loaded, scipy.optimize.linear_sum_assignment is matching.linear_sum_assignment)
"""


def test_the_solver_loaded_alone_is_scipy_optimizes_own():
    # a K = 3 solve loads the extension alone; the package imported after it
    # exports the same function, so each later solve breaks ties the same way
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(matching.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOAD_ORDER], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == ["['scipy.optimize._lsap']", "True"]


_TV_LOAD_ORDER = """
import sys
from permlearn import Gaussian, GaussianMixture, tv_distance


def mixture(means, sds):
    return GaussianMixture([0.3, 0.7], [Gaussian([m], [[s * s]]) for m, s in zip(means, sds)])


called = set()
sys.setprofile(lambda frame, event, arg: event == "c_call" and arg.__name__ == "_brentq"
               and called.add(arg))
tv_distance(mixture([-1.0, 0.5], [0.4, 1.1]), mixture([-0.8, 1.2], [0.5, 0.9]))
sys.setprofile(None)
loaded = sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
import scipy.optimize

print(loaded, called == {scipy.optimize.brentq.__globals__["_zeros"]._brentq})
"""


def test_the_root_finder_loaded_alone_is_scipy_brentqs_own():
    # a 1-d mixture TV loads the extension behind brentq alone, and the
    # package imported after it calls the same compiled function
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(matching.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TV_LOAD_ORDER], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.split() == ["['scipy.optimize._zeros']", "True"]


def _assignments():
    rng = np.random.default_rng(5)
    zero_rows = rng.normal(size=(40, 5, 5))
    zero_rows[:, :3] = 0.0  # three classes that saw no labelled point
    tied = rng.integers(-1, 2, size=(40, 5, 5)).astype(float)
    return [max_weight_assignments(w).tolist() for w in (zero_rows, tied, np.zeros((1, 5, 5)))]


def _mixture_tvs():
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(4):
        f, g = (GaussianMixture(rng.dirichlet(np.ones(3)), [
            Gaussian([m], [[s * s]]) for m, s in zip(rng.normal(size=3), rng.uniform(0.3, 1.5, 3))
        ]) for _ in range(2))
        pairs.append(tv_distance(f, g))
    return pairs


@pytest.mark.parametrize("name, attr, public, solve", [
    ("scipy.optimize._lsap", "linear_sum_assignment", linear_sum_assignment, _assignments),
    ("scipy.optimize._zeros", "_brentq", brentq.__globals__["_zeros"]._brentq, _mixture_tvs),
], ids=["_lsap", "_zeros"])
def test_without_the_extension_file_the_public_solver_is_bound(monkeypatch, name, attr, public,
                                                               solve):
    expected = solve()
    looked = []
    monkeypatch.delitem(vars(matching), "linear_sum_assignment", raising=False)
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: looked.append(name)))
    assert solve() == expected
    assert set(looked) == {name}
    assert matching._load_extension(name, attr) is public


def test_brute_force_limit():
    with pytest.raises(ValueError, match="brute force"):
        brute_force_matching(np.zeros((10, 10)))


def _enumerated(w, perms):
    """Optimum, total and tie flag of w over perms, all of them in itertools order.

    The first of tied optima wins; the runner-up is the best of the others.
    """
    k = w.shape[0]
    totals = w[np.arange(k), perms].sum(axis=1)
    top = int(np.argmax(totals))
    runner = np.delete(totals, top).max(initial=-np.inf)
    tol = TIE_TOL * max(1.0, float(np.abs(w[np.arange(k), perms[top]]).sum()))
    unique = k == 1 or totals[top] - runner > tol
    return Permutation(tuple(int(c) + 1 for c in perms[top])), float(totals[top]), unique


def _test_matrices(k, rng):
    """Random matrices, and tied ones: small integers, all equal, and a_i + b_j."""
    yield from (rng.normal(size=(k, k)) for _ in range(3))
    yield from (rng.integers(-1, 2, size=(k, k)).astype(float) for _ in range(3))
    yield np.full((k, k), 0.5)
    yield rng.integers(-3, 4, size=(k, 1)) + rng.integers(-3, 4, size=(1, k)).astype(float)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_brute_force_equals_itertools_enumeration(k):
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    rng = np.random.default_rng([5, k])
    matrices = list(_test_matrices(k, rng))
    for w in matrices if k < 9 else matrices[::3]:
        got = brute_force_matching(w)
        assert (got.permutation, got.total_weight, got.is_unique) == _enumerated(w, perms)


@pytest.mark.parametrize("k", [1, 2, 9])
def test_brute_force_fields_are_python_scalars(k):
    for w in (np.random.default_rng([6, k]).normal(size=(k, k)), np.full((k, k), 0.5)):
        got = brute_force_matching(w)
        assert type(got.total_weight) is float and type(got.is_unique) is bool


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.sampled_from([-2, -1, 1, 2]), min_size=k * k, max_size=k * k
            ),
            st.lists(st.sampled_from([-1, 0, 1]), min_size=k * k, max_size=k * k),
        )
    ),
    st.floats(min_value=-14.0, max_value=-6.0).map(lambda e: 10.0**e),
)
@settings(max_examples=60, deadline=None)
def test_tie_flag_is_invariant_to_scaling(parts, eps):
    # Weight matrices are sums over n samples, so scaling them by n must not
    # change whether the optimum counts as tied. Integer parts make exact ties,
    # eps-sized parts make near-ties around the tolerance; |w| >= 1 keeps the
    # tolerance on its relative branch at every scale, and powers of two scale
    # every total exactly.
    base, nudge = parts
    k = math.isqrt(len(base))
    w = (np.array(base, dtype=float) + eps * np.array(nudge)).reshape(k, k)
    flags = set()
    for j in range(18):
        scaled = w * 2.0**j
        fast = max_weight_matching(scaled)
        flags.add(fast.is_unique)
        assert runner_up(scaled).is_unique == fast.is_unique
        assert brute_force_matching(scaled).is_unique == fast.is_unique
    assert len(flags) == 1


def test_a_direct_solve_names_the_weight_matrix():
    # the estimators refuse a model's -inf scores first, in their own words
    w = np.array([[0.0, -np.inf], [1.0, 2.0]])
    for solve, weights in ((max_weight_matching, w), (max_weight_assignments, w[np.newaxis])):
        with pytest.raises(ValueError, match="^weight matrix entries must be finite$"):
            solve(weights)
