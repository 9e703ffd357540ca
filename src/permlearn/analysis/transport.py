"""Distances between mixing measures: total variation and optimal transport.

Total variation (TV) between two component densities is computed
deterministically in one dimension (method label ``"quadrature"``) and
otherwise by importance sampling from the balanced mixture of the two
densities (whose integrand is bounded by 2). In one dimension:

* identical atoms give exactly 0;
* two Gaussians have a closed form: the densities cross at the roots of a
  quadratic, and TV is the difference of their normal-CDF masses between the
  crossings (half-width 0);
* every other pair (Gaussian mixtures and kernel density estimates, alone or
  against a Gaussian) is written as one signed Gaussian mixture f - g, whose
  absolute value ``quad`` integrates over the atoms' envelope with
  breakpoints at the part centres, thinned to at least the smallest part
  standard deviation apart. A part far narrower than the subintervals next
  to the breakpoint it was thinned onto gets a window around that
  breakpoint, graded at 1, 4 and 8 of its standard deviations from its own
  centre and integrated in the offset from the breakpoint. The CDF
  differences between the sign changes of f - g at quad's nodes give a
  second, partition-based value; the larger of the two is reported, and
  their disagreement widens the half-width. The integrand reuses one buffer
  per distance, so each of quad's calls allocates no array.

The transport distance couples two measures' weight vectors under the
pairwise TV cost; the coupling is the optimum of the transportation linear
program, found by the transportation simplex (u/v potentials over a
spanning-tree basis) from a least-cost start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

from ..mixtures import (
    ComponentDensity,
    Gaussian,
    GaussianMixture,
    KernelDensity,
    MixingMeasure,
)

__all__ = [
    "TvEstimate",
    "TransportPlan",
    "tv_distance",
    "wasserstein1",
    "MAX_ATOMS",
]

MAX_ATOMS = 64


@dataclass(frozen=True)
class TvEstimate:
    """Total-variation distance with an uncertainty half-width.

    ``method`` is ``"quadrature"`` for every deterministic 1-d route: the
    half-width is 0 for identical atoms and for the closed form between two
    Gaussians, and otherwise half the larger of quad's absolute-error
    estimate and the gap between quad and the partition-based value. Monte
    Carlo (``"mc"``) reports three standard errors.
    """

    value: float
    half_width: float
    method: str
    samples_used: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two measures' weights under a pairwise cost."""

    matrix: np.ndarray
    cost_matrix: np.ndarray
    cost_half_widths: np.ndarray
    total_cost: float
    total_half_width: float
    method: str


def _tv_gaussians(f: Gaussian, g: Gaussian) -> float:
    """Closed-form TV between two 1-d Gaussians.

    f - g changes sign only where log f = log g, a quadratic with two real
    roots when the variances differ; the outer two intervals carry the same
    sign, so TV is the absolute difference of the masses between the roots.
    """
    m1, v1 = float(f.mean[0]), float(f.cov[0, 0])
    m2, v2 = float(g.mean[0]), float(g.cov[0, 0])
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    d = m2 - m1
    if v1 == v2:
        return math.erf(abs(d) / (2.0 * s1 * math.sqrt(2.0)))
    # With x measured from m1: (v1 - v2) x^2 + 2 b x + c = 0. The discriminant
    # b^2 - (v1 - v2) c is written as a sum of nonnegative terms and the root
    # of smaller magnitude is taken as c / q, so neither cancels.
    log_ratio = math.log(v1 / v2)
    b = -d * v1
    c = v1 * (d * d - v2 * log_ratio)
    q = -(b + math.copysign(s1 * s2 * math.sqrt(d * d + (v1 - v2) * log_ratio), b))
    lo, hi = sorted((q / (v1 - v2), c / q))
    mass_f = ndtr(hi / s1) - ndtr(lo / s1)
    mass_g = ndtr((hi - d) / s2) - ndtr((lo - d) / s2)
    return abs(float(mass_f - mass_g))


def _gaussian_parts(d: ComponentDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 1-d atom as a Gaussian mixture: (weights, means, standard deviations)."""
    if isinstance(d, Gaussian):
        return np.ones(1), d.mean, np.sqrt(d.cov[0])
    if isinstance(d, GaussianMixture):
        means = np.array([p.mean[0] for p in d.parts])
        sds = np.sqrt([p.cov[0, 0] for p in d.parts])
        return d.weights, means, sds
    if isinstance(d, KernelDensity):
        m = d.points.shape[0]
        return np.full(m, 1.0 / m), d.points[:, 0], np.full(m, d.bandwidth)
    raise ValueError(
        f"quadrature does not support {type(d).__name__} atoms; use method='mc'"
    )


def _breakpoints(centres: np.ndarray, spacing: float) -> list[float]:
    """Sorted centres, dropping any closer than ``spacing`` to the last kept."""
    kept: list[float] = []
    for x in np.sort(centres):
        if not kept or x - kept[-1] >= spacing:
            kept.append(float(x))
    return kept


# A part narrower than _NARROW_RATIO times the longer subinterval next to the
# breakpoint it was thinned onto is a spike that quad's first rule there steps
# over. It is integrated on a window of its own with breakpoints at these
# offsets from its centre, in its standard deviations.
_NARROW_RATIO = 1e-3
_NARROW_OFFSETS = np.array([-8.0, -4.0, -1.0, 0.0, 1.0, 4.0, 8.0])


def _narrow_windows(
    kept: list[float], lo: float, hi: float, mu: np.ndarray, sds: np.ndarray
) -> dict[float, list[float]]:
    """Kept breakpoint -> sorted offsets from it of its narrow parts' window.

    ``_breakpoints`` thins each part onto the kept breakpoint at or below its
    centre, less than the smallest standard deviation away. Each narrow part
    thinned onto a breakpoint adds its own offset plus ``_NARROW_OFFSETS`` of
    its standard deviations, and the breakpoint itself stays at offset 0. The
    first and last offsets are the window's ends. A window reaches at most
    half way to the neighbouring breakpoints or envelope ends, so the windows
    are disjoint and hold no other breakpoint.
    """
    edges = np.array([lo, *kept, hi])
    gaps = np.diff(edges)
    # lo < kept[0] = min(mu) and mu < hi, so 1 <= k <= len(kept)
    k = np.searchsorted(edges, mu, side="right") - 1
    narrow = sds < _NARROW_RATIO * np.maximum(gaps[k - 1], gaps[k])
    windows = {}
    for kk in np.unique(k[narrow]):
        at = narrow & (k == kk)
        c = edges[kk]
        spread = (mu[at] - c)[:, np.newaxis] + sds[at, np.newaxis] * _NARROW_OFFSETS
        offsets = np.unique(np.append(spread, 0.0))
        a, b = max(-0.5 * gaps[kk - 1], offsets[0]), min(0.5 * gaps[kk], offsets[-1])
        windows[float(c)] = [a, *offsets[(offsets > a) & (offsets < b)].tolist(), b]
    return windows


def _tv_quadrature(f: ComponentDensity, g: ComponentDensity) -> TvEstimate:
    if type(f) is type(g) and f == g:
        return TvEstimate(0.0, 0.0, "quadrature")
    if isinstance(f, Gaussian) and isinstance(g, Gaussian):
        return TvEstimate(_tv_gaussians(f, g), 0.0, "quadrature")

    # f - g as one signed Gaussian mixture; breakpoints at the part centres
    # keep quad from stepping over peaks narrower than its first rule.
    w_f, mu_f, sd_f = _gaussian_parts(f)
    w_g, mu_g, sd_g = _gaussian_parts(g)
    weights = np.concatenate([w_f, -w_g])
    mu = np.concatenate([mu_f, mu_g])
    sds = np.concatenate([sd_f, sd_g])
    coef = weights / (sds * math.sqrt(2.0 * math.pi))
    scale = 1.0 / (sds * math.sqrt(2.0))
    # quad's nodes as x = centre + u and h = (f - g)(x)
    node_x: list[float] = []
    node_h: list[float] = []
    buf = np.empty_like(mu)

    def signed(u: float, shift: np.ndarray = -mu) -> float:
        # f - g at x = u + centre, given shift = centre - mu; every step writes
        # into buf, so a call allocates no array
        np.add(shift, u, buf)
        np.multiply(buf, scale, buf)
        np.multiply(buf, buf, buf)
        np.negative(buf, buf)
        np.exp(buf, buf)
        return float(coef.dot(buf))

    def integral_over(a: float, b: float, points: list[float], centre: float = 0.0):
        # |f - g| at centre + u, integrated over u in [a, b]. Offsets from a
        # narrow window's breakpoint stay exact where x = centre + u would
        # round by a sizeable share of a part's standard deviation.
        shift = centre - mu

        def integrand(u: float) -> float:
            h = signed(u, shift)
            node_x.append(centre + u)
            node_h.append(h)
            return abs(h)

        return quad(
            integrand, a, b, points=points or None, limit=200 + len(points),
            epsabs=1e-10, epsrel=1e-10,
        )

    lo_f, hi_f = f.envelope_1d()
    lo_g, hi_g = g.envelope_1d()
    lo, hi = min(lo_f, lo_g), max(hi_f, hi_g)
    kept = _breakpoints(mu, float(sds.min()))
    pieces, start = [], lo
    for c, offsets in _narrow_windows(kept, lo, hi, mu, sds).items():
        # window ends rounded onto the x axis, so windows and pieces meet exactly
        a, b = c + offsets[0], c + offsets[-1]
        pieces.append(integral_over(start, a, [p for p in kept if start < p < a]))
        pieces.append(integral_over(a - c, b - c, offsets[1:-1], centre=c))
        start = b
    pieces.append(integral_over(start, hi, [p for p in kept if start < p < hi]))
    integral, err = map(sum, zip(*pieces))

    # quad's error estimate misses a kink of |f - g| just inside a subinterval
    # end, and there it reads low. Summing |F - G| differences over any
    # partition also reads low, and over the sign changes of f - g it is
    # exact, so take the larger of the two with the sign changes seen at
    # quad's nodes, and report their disagreement in the half-width.
    x, h = np.array(node_x), np.array(node_h)
    order = np.lexsort((h, x))  # by x, then h, as sorting the (x, h) pairs does
    x, h = x[order], h[order]
    cross = np.flatnonzero(h[:-1] * h[1:] < 0.0)
    roots = np.sort(np.concatenate([
        x[h == 0.0], [brentq(signed, x[k], x[k + 1]) for k in cross]
    ]))
    cdf = ndtr((roots[:, np.newaxis] - mu) / sds) @ weights
    exact = float(np.abs(np.diff(cdf, prepend=0.0, append=weights.sum())).sum())
    value = min(1.0, max(0.0, 0.5 * max(integral, exact)))
    return TvEstimate(value, 0.5 * max(err, abs(integral - exact)), "quadrature")


def _tv_monte_carlo(
    f: ComponentDensity,
    g: ComponentDensity,
    samples: int,
    rng: np.random.Generator,
    seed: int | None,
) -> TvEstimate:
    n_f = int(rng.binomial(samples, 0.5))
    x = np.vstack([f.sample(rng, n_f), g.sample(rng, samples - n_f)])
    log_f = f.log_density(x)
    log_g = g.log_density(x)
    log_h = np.logaddexp(log_f, log_g) - math.log(2.0)
    vals = np.abs(np.exp(log_f - log_h) - np.exp(log_g - log_h))
    value = min(1.0, max(0.0, 0.5 * float(vals.mean())))
    se = float(vals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else 0.0
    return TvEstimate(value, 0.5 * 3.0 * se, "mc", samples, seed)


def tv_distance(
    f: ComponentDensity,
    g: ComponentDensity,
    method: str = "auto",
    mc_samples: int = 200_000,
    seed: int | np.random.Generator = 0,
) -> TvEstimate:
    """Total-variation distance between two component densities."""
    if f.dim != g.dim:
        raise ValueError("densities must share one dimension")
    if method == "auto":
        method = "quadrature" if f.dim == 1 else "mc"
    if method == "quadrature":
        if f.dim != 1:
            raise ValueError("quadrature is only available in one dimension")
        return _tv_quadrature(f, g)
    if method == "mc":
        if mc_samples < 2:
            raise ValueError("mc_samples must be >= 2")
        rng = np.random.default_rng(seed)
        return _tv_monte_carlo(f, g, mc_samples, rng, seed if isinstance(seed, int) else None)
    raise ValueError("method must be 'auto', 'quadrature', or 'mc'")


# The simplex stops when every reduced cost is at least -_TOL times the largest
# cost: the plan's total then exceeds the optimum by at most that much per unit
# of mass, and the tolerance absorbs the round-off of potentials summed along
# the basis tree.
_TOL = 1e-13
# After this many degenerate pivots in a row Bland's rule takes over, entering
# and leaving by lowest cell index, which cannot cycle.
_DEGENERATE_RUN = 8


def _least_cost_start(cost: np.ndarray, s: np.ndarray, d: np.ndarray):
    """Least-cost (matrix-minimum) basic plan: m + n - 1 cells, a spanning tree.

    Cells are taken in order of cost (ties in row-major order) while their
    row and column are open. Each closes exactly one line, the row when its
    supply is used up first; a tie closes the row and leaves the column open
    with zero demand, so the basis may hold zero cells. The last open row or
    column is never closed before the other side, which keeps the cells a
    tree.
    """
    m, n = cost.shape
    plan = [[0.0] * n for _ in range(m)]
    rest_s, rest_d = s.tolist(), d.tolist()
    row_open, col_open = [True] * m, [True] * n
    rows, cols = m, n
    basis = []
    for k in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(k, n)
        if not (row_open[i] and col_open[j]):
            continue
        basis.append((i, j))
        if cols == 1 or (rows > 1 and rest_s[i] <= rest_d[j]):
            plan[i][j] = rest_s[i]
            rest_d[j] = max(rest_d[j] - rest_s[i], 0.0)
            row_open[i], rows = False, rows - 1
        else:
            plan[i][j] = rest_d[j]
            rest_s[i] = max(rest_s[i] - rest_d[j], 0.0)
            col_open[j], cols = False, cols - 1
        if len(basis) == m + n - 1:
            return plan, basis


def _optimal_coupling(cost: np.ndarray, supply, demand) -> tuple[np.ndarray, float]:
    """Min-cost coupling of two discrete weight vectors, by the transportation simplex.

    The plan starts from the least-cost basis. Each pivot takes the potentials
    u_i + v_j = c_ij over the basis tree, enters the cell of most negative
    reduced cost c_ij - u_i - v_j (lowest index under Bland's rule), and
    shifts theta, the least entry on the cycle's "-" cells, around the cycle
    the cell closes; the leaving cell is set to exactly 0, so the plan never
    goes negative. With one supply or one demand atom the only feasible plan
    ships every weight to or from it, and no pivot is made.
    """
    cost = np.asarray(cost, dtype=float)
    s = np.asarray(supply, dtype=float).ravel()
    d = np.asarray(demand, dtype=float).ravel()
    m, n = cost.shape
    if s.size != m or d.size != n:
        raise ValueError("cost shape does not match the weight vectors")
    if np.any(s <= 0) or np.any(d <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(s.sum() - d.sum()) > 1e-9:
        raise ValueError("supply and demand must carry equal mass")
    if not np.all(np.isfinite(cost)):
        raise ValueError("costs must be finite")

    if m == 1 or n == 1:
        plan = (d.reshape(1, n) if m == 1 else s.reshape(m, 1)).copy()
        return plan, float((plan * cost).sum())
    plan, basis = _least_cost_start(cost, s, d)
    c = cost.tolist()
    tol = _TOL * float(np.abs(cost).max())
    bland, degenerate, max_pivots = False, 0, 10 * m * n
    for _ in range(max_pivots):
        # nodes 0..m-1 are rows and m..m+n-1 columns; walk the tree from row 0
        adjacent = [[] for _ in range(m + n)]
        for i, j in basis:
            adjacent[i].append(m + j)
            adjacent[m + j].append(i)
        pot, parent, depth = [0.0] * (m + n), [0] * (m + n), [0] * (m + n)
        order, seen = [0], [True] + [False] * (m + n - 1)
        for a in order:
            for b in adjacent[a]:
                if not seen[b]:
                    seen[b], parent[b], depth[b] = True, a, depth[a] + 1
                    pot[b] = (c[a][b - m] if a < m else c[b][a - m]) - pot[a]
                    order.append(b)
        reduced = cost - np.add.outer(pot[:m], pot[m:])
        if bland:
            entering = np.flatnonzero(reduced < -tol)
            if entering.size == 0:
                break
            k = int(entering[0])
        else:
            k = int(reduced.argmin())
            if reduced.flat[k] >= -tol:
                break
        p, q = divmod(k, n)
        # the tree path from row p to column q; its cells alternate "-" and
        # "+" counting from either end
        ends, steps, minus, plus = [p, m + q], [0, 0], [], [(p, q)]
        while ends[0] != ends[1]:
            side = 0 if depth[ends[0]] >= depth[ends[1]] else 1
            a = ends[side]
            b = parent[a]
            (plus if steps[side] % 2 else minus).append((a, b - m) if a < m else (b, a - m))
            ends[side], steps[side] = b, steps[side] + 1
        theta, leaving = min((plan[i][j], (i, j)) for i, j in minus)
        for i, j in plus:
            plan[i][j] += theta
        for i, j in minus:
            plan[i][j] -= theta
        plan[leaving[0]][leaving[1]] = 0.0
        basis.remove(leaving)
        basis.append((p, q))
        degenerate = degenerate + 1 if theta == 0.0 else 0
        bland = bland or degenerate >= _DEGENERATE_RUN
    else:
        raise RuntimeError(f"transport simplex made {max_pivots} pivots without converging")
    plan = np.array(plan)
    return plan, float((plan * cost).sum())


def wasserstein1(
    a: MixingMeasure,
    b: MixingMeasure,
    method: str = "auto",
    mc_samples: int = 200_000,
    seed: int | np.random.Generator = 0,
) -> tuple[float, TransportPlan]:
    """Optimal-transport distance between two mixing measures.

    The ground cost between atoms is their total-variation distance, so the
    result lies in [0, 1], vanishes only when the measures agree atom-for-atom
    up to relabeling, and is invariant to permuting either measure's atoms.
    """
    if a.dim != b.dim:
        raise ValueError("measures must share one dimension")
    if a.n_atoms > MAX_ATOMS or b.n_atoms > MAX_ATOMS:
        raise ValueError(f"transport solver supports at most {MAX_ATOMS} atoms")
    rng = np.random.default_rng(seed)
    seed_int = seed if isinstance(seed, int) else None

    ka, kb = a.n_atoms, b.n_atoms
    cost = np.zeros((ka, kb))
    hw = np.zeros((ka, kb))
    used_methods = set()
    for i in range(ka):
        for j in range(kb):
            est = tv_distance(
                a.components[i], b.components[j], method=method,
                mc_samples=mc_samples, seed=rng,
            )
            cost[i, j] = est.value
            hw[i, j] = est.half_width
            used_methods.add(est.method)

    plan, total = _optimal_coupling(cost, a.weights, b.weights)
    total_hw = float((plan * hw).sum())
    resolved = used_methods.pop() if len(used_methods) == 1 else "mixed"
    return total, TransportPlan(plan, cost, hw, total, total_hw, resolved)
