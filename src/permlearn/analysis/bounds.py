"""Recovery-probability lower bounds and matching sample-size requirements.

The likelihood-route bound needs a large-deviation exponent for the
per-sample score margin of each class; ``chernoff_exponent`` estimates that
exponent from samples by maximizing ``s*t - log E[exp(s*(U - E U))]`` over
``s >= 0``, with the expectation replaced by an empirical average. The
vote-route bound only needs the worst-region margin. Both bounds degrade
gracefully: they clamp into [0, 1] and accept degenerate inputs.

The tilt ``s`` is searched up to the largest point of a geometric grid whose
tilted weights ``exp(s * V)`` keep an effective sample size of at least
``ESS_FLOOR`` (or n, if smaller); beyond it the empirical average is mostly
one sample. That point is found by a downward scan: ESS is computed for one
grid row at a time, from the top, and the scan stops at the first stable row.
That row is the largest stable tilt of the whole grid, whatever the shape of
the ESS curve, and on typical scores it is the top row itself. The scan and
the search share one ``mixtures._TiltedLogSumExp`` of the centred scores,
which reduces one tilt per pass in one reused n-buffer with the bits of a
fresh ``_logsumexp``. The search itself is ``_fminbound``, a port of scipy's
bounded Brent minimizer that returns scipy's bits without loading
scipy.optimize.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..mixtures import MixingMeasure, _sample_groups, _TiltedLogSumExp

__all__ = [
    "DualEstimate",
    "chernoff_exponent",
    "chernoff_exponent_from_scores",
    "mle_recovery_bound",
    "mv_recovery_bound",
    "required_sample_size",
    "min_count_probability",
]

ESS_FLOOR = 50.0
_GRID_POINTS = 61
_EPS, _LOG_2PI = sys.float_info.epsilon, math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DualEstimate:
    """Estimated large-deviation exponent at a fixed margin ``t``.

    ``value`` is +inf when the score is (numerically) constant, in which case
    any positive margin is infinitely unlikely; it is 0 with ``diverged`` set
    when no scaling of the samples kept enough effective mass to trust the
    empirical average. ``s_star`` is the maximizing tilt.
    """

    value: float
    s_star: float
    diverged: bool
    samples_used: int
    seed: int | None = None


def _largest_stable_tilt(grid: np.ndarray, lse: _TiltedLogSumExp, floor: float) -> float | None:
    """The largest tilt of the ascending ``grid`` whose ESS is at least ``floor``.

    Rows are scanned one at a time from the top, each with the ESS bits it
    has inside the full (grid, n) stack, so the answer equals the full grid's
    without its temporaries. None when no tilt is stable.
    """
    for s in grid[::-1]:
        if lse.ess(s) >= floor:
            return float(s)
    return None


def _fminbound(func, a: float, b: float):
    """``(x, func(x))`` at a minimum of func on [a, b], as scipy finds it.

    A line-for-line port of scipy 1.17.1's ``_minimize_scalar_bounded``
    (``minimize_scalar(method="bounded")``) with its defaults, xatol 1e-5 and
    500 evaluations, so the search needs no scipy.optimize: the same points
    are visited in the same order and the returned pair has the bits of
    scipy's ``x`` and ``fun``. a < b are finite. Stops after 500 evaluations
    without an error, as scipy does; scipy's status flags are not kept.
    """
    xatol, maxfun = 1e-5, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            # q > 0 when this holds, and rat stays finite on every path
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


def chernoff_exponent_from_scores(
    scores: np.ndarray,
    t: float,
    seed: int | None = None,
) -> DualEstimate:
    """Exponent of ``P(mean of n centered copies >= t)`` from raw samples."""
    u = np.asarray(scores, dtype=float).ravel()
    if u.size < 1:
        raise ValueError("scores must be nonempty")
    if not np.all(np.isfinite(u)):
        raise ValueError("scores must be finite")
    if not (t >= 0.0):
        raise ValueError("margin t must be >= 0")
    n = u.size
    if t == 0.0:
        return DualEstimate(0.0, 0.0, False, n, seed)

    v = u - u.mean()
    sd = float(v.std())
    if sd == 0.0:
        # Constant score: a positive deviation never happens.
        return DualEstimate(math.inf, math.inf, True, n, seed)

    grid = np.geomspace(1e-3, 1e3, _GRID_POINTS) / sd
    lse = _TiltedLogSumExp(v)
    s_hi = _largest_stable_tilt(grid, lse, min(ESS_FLOOR, n))
    if s_hi is None:
        return DualEstimate(0.0, 0.0, True, n, seed)

    log_n = math.log(n)

    def objective(s: float) -> float:
        return -(s * t - (lse(s) - log_n))

    s_star, fun = _fminbound(objective, 0.0, s_hi)
    value = max(-float(fun), 0.0)
    return DualEstimate(value, float(s_star), False, n, seed)


def chernoff_exponent(
    measure: MixingMeasure,
    atom: int,
    t: float,
    samples: int = 100_000,
    seed: int | np.random.Generator = 0,
) -> DualEstimate:
    """Exponent for one atom's weighted log score under the whole mixture.

    Draws X from ``measure``'s mixture density and feeds the samples of
    ``log(weight_atom * density_atom(X))`` to the score-based estimator.
    ``atom`` is 1-based. Only that atom is scored; the scores equal column
    ``atom`` of ``measure.log_scores(X)`` bit for bit.
    """
    if not 1 <= atom <= measure.n_atoms:
        raise ValueError(f"atom must be in 1..{measure.n_atoms}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    # the generator calls of sample_labeled under the identity, without its labels
    x = _sample_groups(rng, measure.weights, measure.components, samples, measure.dim)[1]
    u = measure.components[atom - 1].log_density(x) + measure.log_weights[atom - 1]
    return chernoff_exponent_from_scores(
        u, t, seed=seed if isinstance(seed, int) else None
    )


def _clamp01(x: float) -> float:
    if math.isnan(x):
        raise ValueError("the bound is undefined (NaN) at these arguments")
    return float(min(1.0, max(0.0, x)))


def _check_count(name: str, value, low: int) -> None:
    """Raise a ValueError naming ``name`` unless low <= value <= the largest float."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}")
    if not value <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite float")


def _min_count(counts) -> float:
    try:
        arr = np.asarray(counts, dtype=float).ravel()
    except OverflowError:  # an int too large for a float
        raise ValueError("counts must be finite and >= 0") from None
    if arr.size == 0:
        raise ValueError("counts must be nonempty")
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValueError("counts must be finite and >= 0")
    return float(arr.min())


def mle_recovery_bound(k: int, class_counts, exponent: float) -> float:
    """Lower bound on exact-recovery probability for the matching estimator.

    ``1 - 2 k^2 exp(-min(class_counts) * exponent)`` clamped into [0, 1].
    ``exponent`` is the worst-atom large-deviation exponent; +inf is accepted
    and gives a bound of 1 when every class was observed.
    """
    _check_count("k", k, 1)
    if not exponent >= 0.0:
        raise ValueError("exponent must be >= 0")
    min_n = _min_count(class_counts)
    rate = 0.0 if (min_n == 0.0 or exponent == 0.0) else min_n * exponent
    return _clamp01(1.0 - 2.0 * k * k * math.exp(-rate))


def mv_recovery_bound(k: int, region_counts, gap: float) -> float:
    """Lower bound on exact recovery for the vote estimator.

    ``1 - 2 k^2 exp(-2 gap^2 min(region_counts) / 9)`` clamped into [0, 1],
    where ``gap`` is the worst-region vote margin.
    """
    _check_count("k", k, 1)
    if not 0.0 <= gap <= 1.0:
        raise ValueError("gap must lie in [0, 1]")
    min_m = _min_count(region_counts)
    return _clamp01(1.0 - 2.0 * k * k * math.exp(-2.0 * gap * gap * min_m / 9.0))


def required_sample_size(k: int, delta: float, method: str, value: float) -> int:
    """Samples sufficient for recovery with probability ``1 - delta``.

    ``value`` is the exponent (method 'mle') or the vote margin (method
    'mv'). Returns ``ceil(k log(k/delta) (1 + 4/value))`` respectively
    ``ceil(k log(k/delta) (1 + 18/value^2))``.
    """
    _check_count("k", k, 1)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not value > 0.0:
        raise ValueError("value must be > 0")
    if method not in ("mle", "mv"):
        raise ValueError("method must be 'mle' or 'mv'")
    if method == "mv" and value > 1.0:
        raise ValueError("a vote margin cannot exceed 1")
    try:
        factor = 1.0 + 4.0 / value if method == "mle" else 1.0 + 18.0 / value**2
        return math.ceil(k * math.log(k / delta) * factor)
    except (OverflowError, ZeroDivisionError):  # a tiny value or delta, or a huge k
        raise ValueError("k, delta and value give a sample size too large for a float") from None


def _stirling_error(x) -> tuple[float, float]:
    """lgamma(x + 1) less the log of Stirling's formula at x >= 1, and the
    size of the numbers it is computed from."""
    if x > 100:  # the series' next term, 1 / (1680 x^7), is below 1e-17
        r = 1.0 / x
        return (1 / 12 - (1 / 360 - r * r / 1260) * r * r) * r, 1.0
    a, b = math.lgamma(x + 1.0), (x + 0.5) * math.log(x)
    return a - b + x - 0.5 * _LOG_2PI, a + b + x + 1.0


def _log_binomial_term(j: int, n, p: float, d: float) -> float:
    """log P(Bin(n, p) = j), d = j - np, in Loader's saddle-point form and
    raised by 16 ulp of its summands' sizes, which near the mean grow as |d|
    and not as n log n."""
    if j == 0:
        return n * math.log1p(-p) * (1.0 - 16.0 * _EPS)
    spread = _LOG_2PI + math.log(j) + math.log(n - j) - math.log(n)
    value, size = _stirling_error(n)
    value, size = value - 0.5 * spread, size + spread + 4.0
    for x, dx, mean in ((j, d, n * p), (n - j, -d, n * (1.0 - p))):
        # Stirling's error at x and the relative entropy x log(x / mean) - dx
        error, error_size = _stirling_error(x)
        log_ratio = math.log1p(dx / mean) if dx > -0.5 * mean else math.log(x / mean)
        value -= error + x * log_ratio - dx
        size += error_size + x * abs(log_ratio) + abs(dx)
    # a size of inf (x / mean past the floats) comes with a term of 0
    return value + 16.0 * _EPS * min(size, 1e300)


def _binomial_cdf(k: int, n, p: float) -> float:
    """P(Bin(n, p) <= k) rounded up, at a cost that does not grow with n.

    The terms rise to the mode and fall after it, and the ratio r of each to
    its neighbour farther from the mode only shrinks farther out. So the
    terms up to min(k, mode), and those past the mode up to k, are taken in
    blocks of 1/64 standard deviation (one term each while that is below 2),
    each at most its term nearest the mode times 1 + r + r^2 + ... there;
    past 16 standard deviations (plus 40 terms) one block runs to 0, or to
    k. The mode, j - np and 1 - r come from exact fractions. The blocks
    overstate the tail by up to ~4e-5 of itself, and the rounding allowance
    by ~1.5e-14 |k - np| more, which passes 1e-4 only at |k - np| > 7e9.
    """
    if k < 0 or k >= n or p in (0.0, 1.0):
        return float(k >= 0 and (k >= n or p == 0.0))
    q, exact_p = 1.0 - p, Fraction(p)
    mean = Fraction(n) * exact_p
    mode, sd = math.floor(mean + exact_p), math.sqrt(n * p * q)
    step = max(1, math.ceil(sd / 64.0))
    blocks = math.ceil((16.0 * sd + 40.0) / step)
    logs = []
    for j, down in ((min(k, mode), True), (mode + 1, False)):
        for block in range(blocks + 1):
            room = j + 1 if down else k - j + 1
            if room <= 0:
                break
            length, d = room if block == blocks else min(step, room), j - mean
            logs.append(_log_binomial_term(j, n, p, float(d)) + 32.0 * _EPS)
            gap = (float(exact_p - d) / ((n - j + 1) * p) if down
                   else float(d + 1 - exact_p) / ((j + 1) * q))  # 1 - r
            if length > 1 and gap < 1.0:  # else 1 + r + ... is 1
                series = -math.expm1(length * math.log1p(-gap)) / gap if gap > 0.0 else length
                logs[-1] += math.log(series)
            j += -length if down else length
    top = max(logs)  # a largest term of 1 or more makes the sum 1
    return min(1.0, math.exp(min(top, 0.0)) * math.fsum(math.exp(v - top) for v in logs))


def min_count_probability(n: int, probs, m: int) -> float:
    """Lower bound on ``P(every class appears >= m times among n draws)``.

    A union bound over the classes: ``1 - sum_k P(Bin(n, p_k) <= m - 1)``,
    clamped into [0, 1], with each binomial tail summed exactly.
    """
    _check_count("n", n, 1)
    _check_count("m", m, 0)
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0 or np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probs must be a probability vector")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs must sum to 1")
    below = math.ceil(m) - 1
    return _clamp01(1.0 - math.fsum(_binomial_cdf(below, n, pk) for pk in p.tolist()))
