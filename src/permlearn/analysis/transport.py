"""Distances between mixing measures: total variation and optimal transport.

Total variation (TV) between two atoms (``Gaussian``, ``GaussianMixture`` or
``KernelDensity``; no other atom is taken) takes its route from their
dimension: deterministic in one (method label ``"quadrature"``), and in more
by importance sampling from the balanced mixture of the two densities, whose
integrand is bounded by 2 (label ``"mc"``). In one dimension:

* identical atoms give exactly 0;
* two Gaussians have a closed form: the densities cross at the roots of a
  quadratic, and TV is the difference of their normal-CDF masses between the
  crossings (half-width 0);
* every other pair (Gaussian mixtures and kernel density estimates, alone or
  against a Gaussian) is written as one signed Gaussian mixture f - g, and
  TV is half the sum of |F - G| steps between its roots. Each part lays
  nodes at 0, 1, 2, 3, 6 and 10 standard deviations either side of its
  centre; a gap between nodes of one sign is proved root-free by a bound on
  the slope of f - g, or by the cubic that matches f - g and its slope at
  the gap's ends with a bound on the fourth derivative, or split until it
  is, and each sign change is refined by scipy's compiled ``brentq``, loaded
  without the ``scipy.optimize`` package.

The transport distance couples two measures' weight vectors under the
pairwise TV cost; the coupling is the optimum of the transportation linear
program, found by the transportation simplex (u/v potentials over a
spanning-tree basis) from a least-cost start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..matching import _load_extension
from ..mixtures import ComponentDensity, Gaussian, MixingMeasure, _check_atoms

__all__ = [
    "TvEstimate",
    "TransportPlan",
    "tv_distance",
    "wasserstein1",
    "MAX_ATOMS",
]

MAX_ATOMS = 64


def __getattr__(name: str):
    # quad is not called here; perfbench/layers.py and its tests patch this
    # name. scipy.integrate loads only when it is looked up, and the first
    # lookup stores it in the module __dict__, where the tracer's patch reads
    # the original. quad can go once perfbench/layers.py drops _counting_quad.
    if name == "quad":
        from scipy.integrate import quad

        globals()[name] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TvEstimate:
    """Total-variation distance with an uncertainty half-width.

    ``method`` is ``"quadrature"`` for every deterministic 1-d route: the
    half-width is 0 for identical atoms and two Gaussians, and otherwise
    bounds the TV that a dip of f - g through 0 could hide in gaps left
    unproved, plus the CDF sums' roundoff. ``"mc"`` reports three standard
    errors.
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
    from scipy.special import ndtr

    mass_f = ndtr(hi / s1) - ndtr(lo / s1)
    mass_g = ndtr((hi - d) / s2) - ndtr((lo - d) / s2)
    return abs(float(mass_f - mass_g))


def _gaussian_parts(d: ComponentDensity) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A 1-d atom as a Gaussian mixture: (weights, means, standard deviations)."""
    return d._table.weights, d._table.means[:, 0], d._table.chol[:, 0, 0]


# Each part lays nodes at these offsets from its centre, in its standard
# deviations, floored onto a grid of half of one, so that parts of one width
# (a KDE's kernels) share nodes.
_LADDER = np.array([-10.0, -6.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 6.0, 10.0])
# A part's slope is 2 |coef| scale |t| exp(-t^2) in size, largest at 1
# standard deviation from its centre; its fourth derivative 4 |coef| scale^4
# |4 t^4 - 12 t^2 + 3| exp(-t^2) is at most _QUARTIC exp(-t^2 / 2) (the
# bound is tight where t^2 = (7 + sqrt(22)) / 2), largest at the centre.
_MARKS = np.array([-1.0, 1.0, 0.0])
_STEEPEST, _QUARTIC = math.sqrt(0.5) * math.exp(-0.5), 3.75
# Nodes x parts entries of one evaluation block: each of its three 64 KB
# buffers stays in cache and under malloc's 128 KB mmap threshold, and
# OpenBLAS threads no matrix-vector product under 9216 entries.
_BLOCK = 8192
# An unproved gap is split into at most _PIECES pieces at a time, until it
# could hide at most _NEGLIGIBLE of TV, at float resolution, or until the
# nodes beyond the ladder would pass _NODE_BUDGET.
_PIECES, _NEGLIGIBLE, _NODE_BUDGET = 16, 1e-17, 65536


class _SignedMixture:
    """f - g as sum_i coef_i exp(-t_i^2) with t_i = (x - mu_i) scale_i."""

    def __init__(self, weights: np.ndarray, mu: np.ndarray, sds: np.ndarray):
        self.mu = mu
        self.coef = weights / (sds * math.sqrt(2.0 * math.pi))
        self.scale = 1.0 / (sds * math.sqrt(2.0))
        self.tilt = -2.0 * self.coef * self.scale
        self.slope = np.abs(self.tilt)
        self.quart = 4.0 * _QUARTIC * np.abs(self.coef) * self.scale**4
        self.marks = (mu + sds * _MARKS[:, np.newaxis]).ravel()
        self.part = np.tile(np.arange(mu.size), _MARKS.size)

    def __call__(self, u: float) -> float:
        t = (u - self.mu) * self.scale
        return float(np.exp(-(t * t)) @ self.coef)

    def scan(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """f - g and its slope at the sorted nodes x, and bounds on its slope
        and its fourth derivative between neighbours, from each part's
        largest |t| exp(-t^2) and exp(-t^2 / 2) there: at the ends, or at
        _MARKS between them."""
        mu, p = self.mu, self.mu.size
        h, dh = np.empty(x.size), np.empty(x.size)
        bound, quart = np.empty(x.size - 1), np.empty(x.size - 1)
        gap = np.searchsorted(x, self.marks) - 1
        rows = min(max(2, _BLOCK // p), x.size)
        buffers = [np.empty((rows, p)) for _ in range(3)]
        for i in range(0, max(x.size - 1, 1), rows - 1):
            j = min(i + rows, x.size)
            t, sq, e = (buffer[: j - i] for buffer in buffers)
            np.subtract.outer(x[i:j], mu, out=t)
            t *= self.scale
            np.square(t, out=sq)
            np.exp(np.negative(sq, out=e), out=e)
            h[i:j] = e @ self.coef
            t *= e
            dh[i:j] = t @ self.tilt
            here = np.flatnonzero((gap >= i) & (gap < j - 1))
            at, part = gap[here] - i, self.part[here]
            steep = np.searchsorted(here, 2 * p)
            # each block's maxima go into a buffer that is free by then
            top = np.maximum(np.abs(t, out=t)[:-1], t[1:], out=sq[:-1])
            top[at[:steep], part[:steep]] = _STEEPEST
            bound[i : j - 1] = top @ self.slope
            top = np.maximum(np.sqrt(e, out=e)[:-1], e[1:], out=t[:-1])
            top[at[steep:], part[steep:]] = 1.0
            quart[i : j - 1] = top @ self.quart
        return h, dh, bound, quart


def _brentq(f, a: float, b: float) -> float:
    """A root of f in [a, b] by scipy's compiled ``brentq``, without scipy.optimize.

    The solver of ``scipy.optimize._zeros`` is called as ``brentq`` calls it
    with its defaults (xtol 2e-12, rtol 4 ulp(1), 100 iterations), behind
    the same NaN check, so each root has ``brentq``'s bits. f is called with
    Python floats; a nan value raises ``ValueError``, as do values of one
    sign at the ends, and no convergence raises ``RuntimeError``.
    """

    def checked(x: float):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    solver = _load_extension("scipy.optimize._zeros", "_brentq")
    return solver(checked, a, b, 2e-12, 4.0 * math.ulp(1.0), 100, (), False, True)


def _root(fn, a: float, b: float) -> float:
    """A root of fn between two nodes whose values have opposite signs. Node
    values and fn round differently near a root: when fn's values at the ends
    no longer have opposite signs (compared, not multiplied, which can
    underflow), the end where |fn| is smaller is the root."""
    fa, fb = fn(a), fn(b)
    if fa < 0.0 < fb or fb < 0.0 < fa:
        return _brentq(fn, a, b)
    return a if abs(fa) <= abs(fb) else b


def _tv_quadrature(f: ComponentDensity, g: ComponentDensity) -> TvEstimate:
    if type(f) is type(g) and f == g:
        return TvEstimate(0.0, 0.0, "quadrature")
    if isinstance(f, Gaussian) and isinstance(g, Gaussian):
        return TvEstimate(_tv_gaussians(f, g), 0.0, "quadrature")

    # f - g as one signed Gaussian mixture
    w_f, mu_f, sd_f = _gaussian_parts(f)
    w_g, mu_g, sd_g = _gaussian_parts(g)
    weights = np.concatenate([w_f, -w_g])
    mu = np.concatenate([mu_f, mu_g])
    sds = np.concatenate([sd_f, sd_g])
    lo, hi = float((mu - 10.0 * sds).min()), float((mu + 10.0 * sds).max())
    # parts narrower than 1e-12 of the span 10 standard deviations beyond
    # every part, or than 1e-15 of its ends, fall between representable nodes
    if float(sds.min()) < 1e-12 * max(hi - lo, 1e-3 * max(-lo, hi)):
        raise ValueError("1-d TV cannot resolve a part this narrow against the others")
    # parts that f and g share would leave only roundoff: merge equal parts
    # (the test takes 1.5 us on 3-part mixtures, where np.unique takes 16)
    if not set(zip(mu_f.tolist(), sd_f.tolist())).isdisjoint(zip(mu_g.tolist(), sd_g.tolist())):
        parts, index = np.unique(mu + 1j * sds, return_inverse=True)
        net = np.bincount(index, weights)
        mu, sds, weights = parts.real[net != 0.0], parts.imag[net != 0.0], net[net != 0.0]
        if not weights.size:
            return TvEstimate(0.0, 0.0, "quadrature")
    signed = _SignedMixture(weights, mu, sds)
    half = 0.5 * sds[:, np.newaxis]
    x = np.unique(np.floor((mu[:, np.newaxis] + sds[:, np.newaxis] * _LADDER) / half) * half)
    h, dh, bound, quart = signed.scan(x)
    # A root between nodes shows as a sign change, or hides in a gap with ends
    # of one sign. That gap is root-free if the slope bound cannot take f - g
    # from both ends to 0 (span <= ends), or if the cubic that matches f - g
    # and its slope at both ends keeps its Bernstein coefficients (ha,
    # ha + w da / 3, hb - w db / 3, hb) farther from 0 (low) than f - g can
    # stray from it (err, the fourth-derivative bound times w^4 / 384); else
    # it is split as the nearer test asks. Unproved, it hides at most
    # w (err - low) of TV. Unlike the slope bound, the cubic sees f - g's
    # cancellation: atoms 1e-8 apart need no more nodes than 1e-4 apart.
    # A gap is a row (a, b, f - g at a and b, its slope there, bound, quart).
    gaps = np.column_stack([x[:-1], x[1:], h[:-1], h[1:], dh[:-1], dh[1:], bound, quart])
    roots, brackets, hidden, budget = [x[h == 0.0]], [], 0.0, _NODE_BUDGET
    while gaps.size:
        a, b, ha, hb, da, db, bound, quart = gaps.T
        cross = (ha < 0.0) & (hb > 0.0) | (ha > 0.0) & (hb < 0.0)
        brackets += gaps[cross, :2].tolist()
        width, sign, third = b - a, np.sign(ha), (b - a) / 3.0
        span, ends = bound * width, np.abs(ha) + np.abs(hb)
        inner = np.minimum(sign * (ha + third * da), sign * (hb - third * db))
        low = np.minimum(np.minimum(np.abs(ha), np.abs(hb)), inner)
        err = quart * (width * width) ** 2 / 384.0
        live = np.flatnonzero(~(cross | (span <= ends) | (err < low)))
        if not live.size:
            break
        gaps, width, span, ends, low, err = (v[live] for v in (gaps, width, span, ends, low, err))
        with np.errstate(divide="ignore", invalid="ignore"):
            dip = width * (err - low)
            pieces = np.ceil(np.fmin(span / ends, (err / low.clip(0.0)) ** 0.25)).clip(2, _PIECES)
        split = ~(dip <= _NEGLIGIBLE) & (width > pieces * np.spacing(np.abs(gaps[:, :2]).max(1)))
        hidden += float(dip[~split].sum())
        gaps, width, pieces = gaps[split], width[split], pieces[split].astype(int)
        last = np.cumsum(pieces + 1) - 1
        if not gaps.size or last[-1] >= budget:
            hidden += float(dip[split].sum())
            break
        budget -= last[-1] + 1
        # each gap's ends and its pieces' inner nodes
        k = np.arange(last[-1] + 1) - np.repeat(last - pieces, pieces + 1)
        x = np.repeat(gaps[:, 0], pieces + 1) + np.repeat(width / pieces, pieces + 1) * k
        x[last] = gaps[:, 1]
        h, dh, bound, quart = signed.scan(x)
        h[last - pieces], h[last] = gaps[:, 2], gaps[:, 3]
        dh[last - pieces], dh[last] = gaps[:, 4], gaps[:, 5]
        roots.append(x[h == 0.0])
        # the pairs that straddle two gaps are not gaps
        rows = np.column_stack([x[:-1], x[1:], h[:-1], h[1:], dh[:-1], dh[1:], bound, quart])
        gaps = np.delete(rows, last[:-1], 0)
    roots = np.sort(np.concatenate([*roots, [_root(signed, *ab) for ab in brackets]]))
    from scipy.special import ndtr

    # TV is half the sum of |F - G| steps between the roots. A CDF sum of ndtr
    # values within a few ulp is off by (parts + 4) ulp(1) sum|w| at most.
    cdf = [0.0, *(ndtr((roots[:, np.newaxis] - mu) / sds) @ weights).tolist(), float(weights.sum())]
    value = 0.5 * sum(abs(hi - lo) for lo, hi in zip(cdf[:-1], cdf[1:]))
    roundoff = (roots.size + 1) * (mu.size + 4) * math.ulp(1.0) * float(np.abs(weights).sum())
    return TvEstimate(min(1.0, max(0.0, value)), hidden + roundoff, "quadrature")


def tv_distance(
    f: ComponentDensity,
    g: ComponentDensity,
    mc_samples: int = 200_000,
    seed: int | np.random.Generator = 0,
) -> TvEstimate:
    """Total-variation distance between two component densities.

    ``mc_samples`` and ``seed`` serve only the Monte Carlo route, beyond 1-d.
    An atom of a type other than the three is refused in every dimension.
    """
    _check_atoms(f, g)
    if f.dim != g.dim:
        raise ValueError("densities must share one dimension")
    if f.dim == 1:
        return _tv_quadrature(f, g)
    if mc_samples < 2:
        raise ValueError("mc_samples must be >= 2")
    rng = np.random.default_rng(seed)
    n_f = int(rng.binomial(mc_samples, 0.5))
    x = np.vstack([f.sample(rng, n_f), g.sample(rng, mc_samples - n_f)])
    log_f = f.log_density(x)
    log_g = g.log_density(x)
    log_h = np.logaddexp(log_f, log_g) - math.log(2.0)
    vals = np.abs(np.exp(log_f - log_h) - np.exp(log_g - log_h))
    value = min(1.0, max(0.0, 0.5 * float(vals.mean())))
    se = float(vals.std(ddof=1)) / math.sqrt(mc_samples)
    seed_used = seed if isinstance(seed, int) else None
    return TvEstimate(value, 0.5 * 3.0 * se, "mc", mc_samples, seed_used)


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

    ka, kb = a.n_atoms, b.n_atoms
    cost = np.zeros((ka, kb))
    hw = np.zeros((ka, kb))
    for i in range(ka):
        for j in range(kb):
            est = tv_distance(
                a.components[i], b.components[j], mc_samples=mc_samples, seed=rng
            )
            cost[i, j] = est.value
            hw[i, j] = est.half_width

    plan, total = _optimal_coupling(cost, a.weights, b.weights)
    total_hw = float((plan * hw).sum())
    return total, TransportPlan(plan, cost, hw, total, total_hw, est.method)
