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
  against a Gaussian) is written as one signed Gaussian mixture f - g, whose
  absolute value an adaptive 21-point Gauss-Kronrod rule (QUADPACK's qk21
  nodes, weights and error estimate) integrates out to 10 standard
  deviations beyond the outermost parts, with breakpoints at the part
  centres, thinned to at least the smallest part standard deviation apart.
  Each pass of the rule evaluates the nodes of every live subinterval in one
  vectorised step and splits each subinterval not yet within its share of
  the tolerance: at a root of f - g where f - g changes sign among its
  nodes, so |f - g| is smooth on both halves, and otherwise at its midpoint.
  Roots come from scipy's compiled ``brentq`` solver, loaded without the
  ``scipy.optimize`` package.
  A part far narrower than the subintervals next to the breakpoint it was
  thinned onto gets a window around that breakpoint, graded at 1, 4 and 8
  of its standard deviations from its own centre and integrated in the
  offset from the breakpoint. The CDF differences between the sign changes
  of f - g at the rule's nodes, and between the two roots of any dip of
  f - g through 0 between two nodes, give a second, partition-based value;
  the larger of the two is reported, and their disagreement widens the
  half-width.

The transport distance couples two measures' weight vectors under the
pairwise TV cost; the coupling is the optimum of the transportation linear
program, found by the transportation simplex (u/v potentials over a
spanning-tree basis) from a least-cost start.
"""

from __future__ import annotations

import math
import warnings
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
    # name. scipy.integrate loads only when one of these names is looked up,
    # and the first lookup stores it in the module __dict__, where the
    # tracer's patch reads the original. quad can go once perfbench/layers.py
    # drops _counting_quad.
    if name in ("quad", "IntegrationWarning"):
        import scipy.integrate

        value = globals()[name] = getattr(scipy.integrate, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class TvEstimate:
    """Total-variation distance with an uncertainty half-width.

    ``method`` is ``"quadrature"`` for every deterministic 1-d route: the
    half-width is 0 for identical atoms and for the closed form between two
    Gaussians, and otherwise half the larger of the Gauss-Kronrod rule's
    summed error estimate and the gap between the rule's value and the
    partition-based value. Monte Carlo (``"mc"``) reports three standard
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


def _breakpoints(centres: np.ndarray, spacing: float) -> list[float]:
    """Sorted centres, dropping any closer than ``spacing`` to the last kept."""
    kept: list[float] = []
    for x in np.sort(centres):
        if not kept or x - kept[-1] >= spacing:
            kept.append(float(x))
    return kept


# A part narrower than _NARROW_RATIO times the longer subinterval next to the
# breakpoint it was thinned onto is a spike that the rule's first nodes there
# step over. It is integrated on a window of its own with breakpoints at these
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


# QUADPACK's qk21: the 21 Gauss-Kronrod nodes on [-1, 1] in ascending order,
# their Kronrod weights, and the 10-point Gauss weights on the same nodes (0 on
# the Kronrod-only ones).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208814748328, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[19:10:-2] = _WG
# Nodes x parts entries of one evaluation block. Its 64 KB buffer stays in
# cache, and a matrix-vector product this small runs on the calling thread
# (OpenBLAS threads it from 9216 entries). Blocks of 32768 entries with a
# fresh temporary per step took 2-3 times as long on 2100-8400 nodes x 25
# parts.
_BLOCK = 8192
# The adaptive rule stops at this many subintervals plus the breakpoints, as
# quad's ``limit`` did.
_LIMIT = 200


def _gk21(f: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 on each row of a nonnegative integrand at ``_GK_NODES``.

    Returns each interval's Kronrod value and QUADPACK's error estimate: the
    Kronrod-Gauss difference, scaled by ``resasc`` (the integral of the
    integrand's deviation from its mean), and never below 50 machine epsilons
    of the value.
    """
    resk = f @ _GK_WEIGHTS
    resasc = (np.abs(f - 0.5 * resk[:, np.newaxis]) @ _GK_WEIGHTS) * half
    err = np.abs((f @ (_GK_WEIGHTS - _G_WEIGHTS)) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    value = resk * half
    return value, np.maximum(50.0 * np.finfo(float).eps * value, err)


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
    """A root of fn between two nodes whose values have opposite signs.

    Node values and fn round differently near a root: when fn's values at the
    ends no longer straddle 0, the end where |fn| is smaller is the root.
    """
    fa, fb = fn(a), fn(b)
    if fa * fb < 0.0:
        return _brentq(fn, a, b)
    return a if abs(fa) <= abs(fb) else b


def _dip_roots(fn, x: np.ndarray, h: np.ndarray) -> list[float]:
    """Pairs of roots of fn that fall between sorted nodes x of one sign.

    Where |h| = |fn(x)| has a local minimum at a node without a sign change,
    fn is also taken at the vertex of the parabola through that node and its
    two neighbours. Where fn has the other sign there, it dips through 0 and
    back, and both roots are returned.
    """
    x0, x1, x2, h0, h1, h2 = x[:-2], x[1:-1], x[2:], h[:-2], h[1:-1], h[2:]
    low = (h0 * h1 > 0.0) & (h1 * h2 > 0.0) & (np.abs(h1) <= np.minimum(np.abs(h0), np.abs(h2)))
    x0, x1, x2, h0, h1, h2 = (v[low] for v in (x0, x1, x2, h0, h1, h2))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (h1 - h0) / (x1 - x0)
        curve = ((h2 - h1) / (x2 - x1) - slope) / (x2 - x0)
        v = 0.5 * (x0 + x1) - 0.5 * slope / curve
    inside = np.flatnonzero(np.isfinite(v) & (v > x0) & (v < x2) & (v != x1))
    dips = inside[fn(v[inside]) * h1[inside] <= 0.0]
    roots = []
    for k in dips.tolist():
        left, right = (x1[k], x2[k]) if v[k] > x1[k] else (x0[k], x1[k])
        roots += [_root(fn, left, v[k]), _root(fn, v[k], right)]
    return roots


def _integrate_abs(fn, a: float, b: float, points: list[float]):
    """Integral of |fn| over [a, b] by an adaptive 21-point Gauss-Kronrod rule.

    ``fn`` maps a float to a float and an array to one value per entry. Each
    pass evaluates the nodes of every live subinterval at once, starting from
    the partition at ``points``. A subinterval is done when its error
    estimate is within its length's share of the tolerance
    max(1e-10, 1e-10 |total|), and all are once the estimates sum to within
    it, as quad stops (next to a part 1e-8 wide, the roundoff floor per unit
    length exceeds the share). Every other one is split: at a root of fn where fn changes sign
    among its nodes, so that |fn| is smooth on both halves, and otherwise at
    its midpoint. Past ``_LIMIT`` plus the breakpoints subintervals, the
    largest errors are split, the rest are kept with their error, and an
    ``IntegrationWarning`` is emitted. Returns the integral, the summed error
    estimate, and every node with fn's value there.
    """
    lo, hi = np.array([a, *points]), np.array([*points, b])
    cap, count, capped = _LIMIT + len(points), lo.size, False
    value, err, nodes, values = 0.0, 0.0, [], []
    while lo.size:
        half = 0.5 * (hi - lo)
        u = (lo + half)[:, np.newaxis] + half[:, np.newaxis] * _GK_NODES
        h = fn(u.ravel()).reshape(u.shape)
        nodes.append(u.ravel())
        values.append(h.ravel())
        part, part_err = _gk21(np.abs(h), half)
        tol = max(1e-10, 1e-10 * abs(value + part.sum()))
        split = (part_err > tol * (2.0 * half) / (b - a)) & (err + part_err.sum() > tol)
        if np.count_nonzero(split) > cap - count:
            capped = True
            worst = np.flatnonzero(split)[np.argsort(-part_err[split], kind="stable")]
            split[worst[cap - count :]] = False
        value += part[~split].sum()
        err += part_err[~split].sum()
        count += np.count_nonzero(split)
        u, h, cut = u[split], h[split], (lo + half)[split]
        change = h[:, :-1] * h[:, 1:] < 0.0
        for i in np.flatnonzero(change.any(axis=1)):
            k = int(change[i].argmax())
            cut[i] = _root(fn, u[i, k], u[i, k + 1])
        lo, hi = np.concatenate([lo[split], cut]), np.concatenate([cut, hi[split]])
    if capped:
        from scipy.integrate import IntegrationWarning

        warnings.warn(
            f"TV quadrature reached its limit of {cap} subintervals; "
            "the half-width carries the remaining error estimate",
            IntegrationWarning,
            stacklevel=5,
        )
    return float(value), float(err), np.concatenate(nodes), np.concatenate(values)


def _tv_quadrature(f: ComponentDensity, g: ComponentDensity) -> TvEstimate:
    if type(f) is type(g) and f == g:
        return TvEstimate(0.0, 0.0, "quadrature")
    if isinstance(f, Gaussian) and isinstance(g, Gaussian):
        return TvEstimate(_tv_gaussians(f, g), 0.0, "quadrature")

    # f - g as one signed Gaussian mixture; breakpoints at the part centres
    # keep the rule from stepping over peaks narrower than its first nodes.
    w_f, mu_f, sd_f = _gaussian_parts(f)
    w_g, mu_g, sd_g = _gaussian_parts(g)
    weights = np.concatenate([w_f, -w_g])
    mu = np.concatenate([mu_f, mu_g])
    sds = np.concatenate([sd_f, sd_g])
    coef = weights / (sds * math.sqrt(2.0 * math.pi))
    scale = 1.0 / (sds * math.sqrt(2.0))
    step = max(1, _BLOCK // mu.size)
    # the rule's nodes as x = centre + u and h = (f - g)(x)
    node_x: list[np.ndarray] = []
    node_h: list[np.ndarray] = []

    def signed(u, shift: np.ndarray = -mu):
        # f - g at x = u + centre, given shift = centre - mu: a float for a
        # float u, and one value per entry for an array, in blocks of `step`
        # entries, each worked on in place in one entries x parts buffer
        if np.ndim(u) == 0:
            t = (u + shift) * scale
            return float(np.exp(-(t * t)) @ coef)
        out = np.empty(len(u))
        for i in range(0, len(u), step):
            t = np.add.outer(u[i : i + step], shift)
            t *= scale
            t *= t
            np.negative(t, out=t)
            np.exp(t, out=t)
            out[i : i + step] = t @ coef
        return out

    def integral_over(a: float, b: float, points: list[float], centre: float = 0.0):
        # |f - g| at centre + u, integrated over u in [a, b]. Offsets from a
        # narrow window's breakpoint stay exact where x = centre + u would
        # round by a sizeable share of a part's standard deviation.
        shift = centre - mu
        value, err, u, h = _integrate_abs(lambda t: signed(t, shift), a, b, points)
        node_x.append(centre + u)
        node_h.append(h)
        return value, err

    # the mass beyond 10 standard deviations of every part is ~1e-23
    lo, hi = float((mu - 10.0 * sds).min()), float((mu + 10.0 * sds).max())
    # the rule resolves parts down to 1e-12 of the envelope and 1e-15 of its ends
    if float(sds.min()) < 1e-12 * max(hi - lo, 1e-3 * max(-lo, hi)):
        raise ValueError("1-d TV cannot resolve a part this narrow against the others")
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

    # The rule's error estimate misses a kink of |f - g| just inside a
    # subinterval end, and there it reads low. Summing |F - G| differences
    # over any partition also reads low, and over the sign changes of f - g
    # it is exact, so take the larger of the two with the sign changes seen at
    # the rule's nodes, and report their disagreement in the half-width.
    x, h = np.concatenate(node_x), np.concatenate(node_h)
    order = np.lexsort((h, x))  # by x, then h, as sorting the (x, h) pairs does
    x, h = x[order], h[order]
    cross = np.flatnonzero(h[:-1] * h[1:] < 0.0)
    roots = np.sort(np.concatenate([
        x[h == 0.0], [_root(signed, x[k], x[k + 1]) for k in cross], _dip_roots(signed, x, h)
    ]))
    from scipy.special import ndtr

    cdf = ndtr((roots[:, np.newaxis] - mu) / sds) @ weights
    exact = float(np.abs(np.diff(cdf, prepend=0.0, append=weights.sum())).sum())
    value = min(1.0, max(0.0, 0.5 * max(integral, exact)))
    return TvEstimate(value, 0.5 * max(err, abs(integral - exact)), "quadrature")


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
