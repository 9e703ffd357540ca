"""Mixing measures on R^d: component densities, decision regions, classifiers.

A mixing measure is a finite weighted collection of probability densities
(atoms). It induces a mixture density, a partition of R^d into decision
regions (one region per atom, by largest weighted density) and, combined with
an assignment of class labels to regions, a classifier.

Class labels and region indices are 1-based everywhere in the public API;
0-based indices appear only in private numpy internals. All density math runs
in the log domain to survive high dimensions, and every log-sum-exp in the
package goes through the one private kernel ``_logsumexp`` here: the real-input
arithmetic of ``scipy.special.logsumexp`` in plain numpy, bit for bit, without
its array-API dispatch and copies. Its in-place 1-d case, ``_TiltedLogSumExp``,
gives the same bits for each tilt ``s * v`` of one vector in one reused buffer.

There are three atom types, and every atom is a Gaussian mixture: a
``Gaussian`` of one part, a ``GaussianMixture`` of P parts, a ``KernelDensity``
of m isotropic parts. A mixing measure takes no other atom. One private
kernel, ``_score``, scores a table of parts built once per atom:
``MixingMeasure.log_scores`` all its atoms' parts in one pass, an atom's
``log_density`` its own, with the same bits per atom. An atom scores a point
with the same bits alone as anywhere inside a batch.

Query points must be finite. Every atom's ``log_density``, ``log_scores`` and
everything built on them refuse NaN or infinite coordinates with the same
``ValueError``, raised where points are coerced, before any density math.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "ComponentDensity",
    "Gaussian",
    "GaussianMixture",
    "KernelDensity",
    "MixingMeasure",
    "Permutation",
    "LabeledData",
    "mixture_log_density",
    "region_of",
    "classify",
    "sample_labeled",
    "mixture_to_dict",
    "mixture_from_dict",
    "save_mixture",
    "load_mixture",
]

_LOG_2PI = math.log(2.0 * math.pi)

WEIGHT_SUM_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_points(x: ArrayLike, dim: int) -> tuple[NDArray[np.float64], bool]:
    """Coerce a finite point or batch to (n, dim); flag whether to squeeze."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0 and dim == 1:
        pts, squeeze = pts.reshape(1, 1), True
    elif pts.ndim == 1:
        if pts.shape[0] != dim:
            raise ValueError(f"point has dimension {pts.shape[0]}, expected {dim}")
        pts, squeeze = pts.reshape(1, dim), True
    elif pts.ndim == 2:
        if pts.shape[1] != dim:
            raise ValueError(f"points have dimension {pts.shape[1]}, expected {dim}")
        squeeze = False
    else:
        raise ValueError("expected a point (d,) or a batch of points (n, d)")
    if not np.isfinite(pts).all():
        raise ValueError("query points must be finite")
    return pts, squeeze


def _logsumexp(a: ArrayLike, axis: int | None = None, b: ArrayLike | None = None):
    """``log(sum(b * exp(a)))`` over ``axis`` for real ``a`` and weights ``b >= 0``.

    Bit for bit the arithmetic of ``scipy.special.logsumexp`` (1.15 and later)
    on real input: a zero weight drops its term even where ``a`` is infinite,
    the terms equal to the maximum are summed apart into ``m``, and the result
    is ``log1p(s / m) + log(m) + max`` with ``s`` the shifted sum of the rest.
    Where that is not finite (all terms -inf, an inf or a NaN), the direct
    ``log(sum(b * exp(a)))`` is returned instead, as scipy does. A result
    with no axes left is a numpy scalar. ``b`` must broadcast to the shape of
    ``a``; the ``b == 0`` pass is skipped when no weight is zero.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = None if b is None else np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kept = a if b is None or b.all() else np.where(b == 0.0, -np.inf, a)
        top = np.max(kept, axis=axis, keepdims=True)
        at_top = kept == top
        m = np.sum(
            at_top if b is None else b * at_top, axis=axis, keepdims=True, dtype=float
        )
        terms = np.subtract(kept, top)
        np.exp(terms, out=terms)
        if b is not None:
            terms *= b
        # zero the top terms, which m holds; a product with 0 differs from
        # scipy's exact zero only where a top term is not finite, and there
        # out is not finite either and is replaced below
        terms *= ~at_top
        out = np.sum(terms, axis=axis, keepdims=True)
        out /= m
        np.log1p(out, out=out)
        out += np.log(m)
        out += top
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.exp(a) if b is None else b * np.exp(a)
            np.copyto(out, np.log(np.sum(direct, axis=axis, keepdims=True)), where=bad)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


# exp rounds to +0.0 below this, yet numpy's vector exp takes a slow path there
_EXP_DEAD = -746.0


class _TiltedLogSumExp:
    """``float(_logsumexp(s * v))`` of one finite 1-d ``v`` at many tilts ``s``.

    ``_logsumexp``'s in-place 1-d case, bit for bit, one tilt per pass in one
    reused n-buffer. For s > 0 the top is ``s * max(v)``, as rounding is
    monotone, and its ties are the lanes shifted to exactly 0. Lanes shifted
    below ``_EXP_DEAD`` are masked to exp(0) and back to +0.0. ``ess(s)`` has
    the bits of ``exp(2 L(s v) - L(2 s v))`` on a (1, n) row, as (2s) * v is
    2 * (s * v) while the products stay normal. Where s <= 0 or a result is
    not finite, ``_logsumexp`` reduces the materialised row.
    """

    def __init__(self, v: NDArray[np.float64]):
        self.v, self._low, self._high = v, v.min(), v.max()
        self._buf = np.empty_like(v)
        self._keep = np.empty(v.shape, dtype=bool)

    def _log_sum(self, s: float) -> NDArray[np.float64]:
        """``_logsumexp(s * v)`` as a one-element array."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if s > 0.0:
                top = s * self._high
                e = np.multiply(self.v, s, out=self._buf)
                e -= top
                ties = np.flatnonzero(np.equal(e, 0.0, out=self._keep))
                dead = s * self._low - top < _EXP_DEAD
                if dead:
                    e *= np.greater_equal(e, _EXP_DEAD, out=self._keep)
                np.exp(e, out=e)
                if dead:
                    e *= self._keep
                e[ties] = 0.0
                m = np.full(1, float(ties.size))
                out = np.log1p(np.sum(e, keepdims=True) / m) + np.log(m) + top
                if np.isfinite(out[0]):
                    return out
            return np.atleast_1d(_logsumexp(s * self.v))

    def __call__(self, s: float) -> float:
        return float(self._log_sum(s)[0])

    def ess(self, s: float) -> np.float64:
        """``(sum w)^2 / sum w^2`` of the weights ``w = exp(s * v)``."""
        return np.exp(2.0 * self._log_sum(s) - self._log_sum(2.0 * s))[0]


class _Parts(NamedTuple):
    """The Gaussian parts of atoms: atom a owns parts ``bounds[a]:bounds[a + 1]``.

    Part p has a nested weight, a mean (d,), a lower Cholesky factor (d, d),
    its reciprocal diagonal and ``log_norm[p] = -d/2 log 2pi - sum log diag``.
    """

    weights: NDArray[np.float64]
    means: NDArray[np.float64]
    chol: NDArray[np.float64]
    inv_diag: NDArray[np.float64]
    log_norm: NDArray[np.float64]
    bounds: tuple[int, ...]


def _parts(weights: ArrayLike, means: np.ndarray, chol: np.ndarray) -> _Parts:
    """The table of one atom with these parts."""
    diag = np.diagonal(chol, axis1=1, axis2=2)
    log_norm = -0.5 * means.shape[1] * _LOG_2PI - np.log(diag).sum(axis=1)
    arrays = (weights, means, chol, 1.0 / diag, log_norm)
    return _Parts(*(_frozen(np.array(a, dtype=float)) for a in arrays), (0, len(means)))


def _join(tables: Sequence[_Parts]) -> _Parts:
    """One table holding every atom of ``tables``, in order."""
    arrays = (_frozen(np.concatenate(field)) for field in list(zip(*tables))[:-1])
    bounds = itertools.accumulate((len(t.weights) for t in tables), initial=0)
    return _Parts(*arrays, tuple(bounds))


# Part x point entries per block: its arrays stay in cache, and a KDE of many
# points scores in bounded memory.
_BLOCK_ENTRIES = 2**17


def _block(n_parts: int) -> int:
    return max(2, _BLOCK_ENTRIES // n_parts)


def _score(table: _Parts, pts: np.ndarray) -> NDArray[np.float64]:
    """Log density of every atom of ``table`` at the points (n, d), as (n, atoms).

    Each block of points is whitened for all parts at once by forward
    substitution, z_i = (r_i - sum_{k<i} L_ik z_k) * (1 / L_ii) with
    r = x - mean, and scored as ``log_norm - 0.5 * sum(z**2)``; the parts of
    each atom are combined by ``_logsumexp`` over the part axis. Every step
    treats each (part, point) entry alone or adds parts in their order, so a
    point scores the same bits alone as inside any batch.
    """
    n, d = pts.shape
    n_parts = len(table.weights)
    block = _block(n_parts)
    means, inv = table.means.T[..., np.newaxis], table.inv_diag.T[..., np.newaxis]
    chol = table.chol.transpose(1, 2, 0)[..., np.newaxis]
    weights = table.weights[:, np.newaxis]
    atoms = list(zip(table.bounds, table.bounds[1:]))
    out = np.empty((n, len(atoms)))
    # z_1 .. z_d and a scratch row
    z = np.empty((d + 1, n_parts, max(2, min(n, block))))
    # an extreme finite point overflows z or its square, and scores -inf
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, block):
            x = pts[start : start + block]
            m = len(x)
            if m == 1:
                # numpy adds the rows of a one-column block pairwise, of a
                # wider one in order
                x = np.repeat(x, 2, axis=0)
            zb = z[:, :, : len(x)]
            tmp = zb[d]
            for i in range(d):
                np.subtract(x[:, i], means[i], out=zb[i])
                for k in range(i):
                    zb[i] -= np.multiply(chol[i, k], zb[k], out=tmp)
                zb[i] *= inv[i]
            # z_1 is dead once the substitution is done: square it in place
            sq = np.square(zb[0], out=zb[0])
            for i in range(1, d):
                sq += np.square(zb[i], out=tmp)
            sq *= -0.5
            sq += table.log_norm[:, np.newaxis]
            if d > 1:
                # NaN from 0 * inf or inf - inf marks an overflowed z: -inf
                np.fmax(sq, -np.inf, out=sq)
            for a, (lo, hi) in enumerate(atoms):
                if hi - lo == 1 and table.weights[lo] == 1.0:
                    # the part's score, which is what the log-sum-exp returns
                    out[start : start + m, a] = sq[lo, :m]
                else:
                    lse = _logsumexp(sq[lo:hi], axis=0, b=weights[lo:hi])
                    out[start : start + m, a] = lse[:m]
    return out


def _log_density(atom: ComponentDensity, x: ArrayLike):
    """An atom's log density at a point (float) or a batch (n,), from its table."""
    pts, squeeze = _as_points(x, atom.dim)
    out = _score(atom._table, pts)[:, 0]
    return float(out[0]) if squeeze else out


def _categorical(rng: np.random.Generator, p: np.ndarray, n: int) -> np.ndarray:
    """n indices drawn with probabilities ``p``, bit for bit ``rng.choice``.

    ``Generator.choice(len(p), size=n, p=p)`` draws ``u = rng.random(n)`` and
    binary-searches the normalised cdf for the number of entries <= u. Since
    u < 1 = cdf[-1], that count runs over ``cdf[:-1]`` only, and one
    comparison pass per entry beats the search up to about 300 entries
    (7x at 9). The count is held in the smallest unsigned type that fits
    ``len(p) - 1``: widen it before adding to it.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(n)
    idx = np.zeros(n, dtype=np.min_scalar_type(len(p) - 1))
    for edge in cdf[:-1]:
        idx += u >= edge
    return idx


def _sample_groups(
    rng: np.random.Generator,
    weights: np.ndarray,
    sources: Sequence[ComponentDensity],
    n: int,
    dim: int,
) -> tuple[np.ndarray, NDArray[np.float64]]:
    """Draw n group indices by ``weights`` and each point from its group's source.

    One ``_categorical`` draw, then ``sources[j].sample(rng, m_j)`` for every
    group j with a nonzero count m_j, in group order. The blocks land in
    group order and go back to the points' places with one stable argsort of
    the indices (a radix sort for 8- and 16-bit ints) and one scatter; the
    points of a group keep its draws in their order.
    """
    which = _categorical(rng, weights, n)
    counts = np.bincount(which, minlength=len(sources)).tolist()
    grouped = np.empty((n, dim))
    start = 0
    for source, cnt in zip(sources, counts):
        if cnt:
            grouped[start : start + cnt] = source.sample(rng, cnt)
            start += cnt
    out = np.empty((n, dim))
    # rows viewed as opaque dim-double items: numpy scatters those much
    # faster than rows of a 2-d array, and moves the same bytes
    row = np.dtype((np.void, grouped.itemsize * dim))
    out.view(row)[:, 0][np.argsort(which, kind="stable")] = grouped.view(row)[:, 0]
    return which, out


class ComponentDensity:
    """A strictly positive, sampleable probability density on R^d.

    The base of the three atom types, :class:`Gaussian`,
    :class:`GaussianMixture` and :class:`KernelDensity`, the only atoms there
    are. Each has ``dim``, ``log_density``, ``sample`` and a table of its
    Gaussian parts. All are immutable after construction and safe to share
    across threads; sampling takes an explicit generator.
    """

    def density(self, x: ArrayLike) -> NDArray[np.float64] | float:
        return np.exp(self.log_density(x))


class Gaussian(ComponentDensity):
    """Multivariate normal with full covariance.

    The covariance is Cholesky-factorized once at construction, so
    non-positive-definite input fails immediately instead of at first use.
    """

    def __init__(self, mean: ArrayLike, cov: ArrayLike):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError("mean must be a nonempty vector")
        cov = np.asarray(cov, dtype=float)
        if cov.ndim == 0:
            cov = cov.reshape(1, 1)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean of size {mean.size}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and covariance must be finite")
        if np.abs(cov - cov.T).max() > 1e-10:
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance is not positive definite") from None
        self._mean = _frozen(mean.copy())
        self._cov = _frozen(cov.copy())
        self._chol = _frozen(chol)

    @property
    def dim(self) -> int:
        return self._mean.size

    @property
    def mean(self) -> NDArray[np.float64]:
        return self._mean

    @property
    def cov(self) -> NDArray[np.float64]:
        return self._cov

    @cached_property
    def _table(self) -> _Parts:
        return _parts([1.0], self._mean[np.newaxis], self._chol[np.newaxis])

    def log_density(self, x: ArrayLike):
        """Log density at a point (d,) or batch (n, d); returns float or (n,).

        The residuals are whitened by forward substitution with the Cholesky
        factor, one point at a time in effect: a point scores the same bits
        alone as anywhere inside a batch.
        """
        return _log_density(self, x)

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        """One ``rng.standard_normal((n, dim))`` call, mapped by mean + chol z."""
        out = rng.standard_normal((n, self.dim)) @ self._chol.T
        # the mean added one column at a time, in place: the same sums as the
        # broadcast mean + out, without its slow short inner loop
        for j in range(self.dim):
            out[:, j] += self._mean[j]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gaussian):
            return NotImplemented
        return np.array_equal(self._mean, other._mean) and np.array_equal(
            self._cov, other._cov
        )

    def __repr__(self) -> str:
        return f"Gaussian(mean={self._mean.tolist()}, cov={self._cov.tolist()})"


class GaussianMixture(ComponentDensity):
    """A single density that is itself a finite mixture of Gaussians.

    Used as one atom of a mixing measure (nothing stops an atom from being a
    mixture). Nested weights may be zero but must sum to 1.
    """

    def __init__(self, weights: ArrayLike, parts: Sequence[Gaussian]):
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        parts = tuple(parts)
        if weights.ndim != 1 or len(parts) != weights.size or not parts:
            raise ValueError("need one weight per Gaussian part, at least one part")
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise ValueError("nested weights must be nonnegative and finite")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("nested weights must sum to 1 within 1e-12")
        if not all(isinstance(p, Gaussian) for p in parts):
            raise ValueError("parts must be Gaussian densities")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")
        self._weights = _frozen(weights.copy())
        self._parts = parts

    @property
    def dim(self) -> int:
        return self._parts[0].dim

    @property
    def weights(self) -> NDArray[np.float64]:
        return self._weights

    @property
    def parts(self) -> tuple[Gaussian, ...]:
        return self._parts

    @cached_property
    def _table(self) -> _Parts:
        table = _join([p._table for p in self._parts])
        return table._replace(weights=self._weights, bounds=(0, len(self._parts)))

    def log_density(self, x: ArrayLike):
        return _log_density(self, x)

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        """Draw n points: each picks a part by the nested weights.

        The generator calls are pinned: one ``rng.random(n)`` picks the parts
        (the draw ``rng.choice(len(parts), n, p=weights)`` makes), then every
        part with a nonzero count m draws ``part.sample(rng, m)``, in part
        order; a part's points take its draws in the order they were picked.
        """
        return _sample_groups(rng, self._weights, self._parts, n, self.dim)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianMixture):
            return NotImplemented
        return (
            np.array_equal(self._weights, other._weights)
            and self._parts == other._parts
        )

    def __repr__(self) -> str:
        return f"GaussianMixture({len(self._parts)} parts, dim={self.dim})"


class KernelDensity(ComponentDensity):
    """Equal-weight isotropic Gaussian kernels centered on stored points.

    Bandwidth is caller-supplied; there is deliberately no automatic rule.
    """

    def __init__(self, points: ArrayLike, bandwidth: float):
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points.reshape(-1, 1)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a nonempty (m, d) array")
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        bandwidth = float(bandwidth)
        # each kernel is N(point, bandwidth^2 I): its variance must be a positive float
        if not (bandwidth > 0.0 and 0.0 < bandwidth * bandwidth < math.inf):
            raise ValueError("bandwidth must be positive with a finite positive square")
        self._points = _frozen(points.copy())
        self._bandwidth = bandwidth

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    @property
    def points(self) -> NDArray[np.float64]:
        return self._points

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @cached_property
    def _table(self) -> _Parts:
        m, d = self._points.shape
        chol = np.broadcast_to(self._bandwidth * np.eye(d), (m, d, d))
        return _parts(np.full(m, 1.0 / m), self._points, chol)

    def log_density(self, x: ArrayLike):
        return _log_density(self, x)

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        idx = rng.integers(0, self._points.shape[0], size=n)
        noise = rng.standard_normal((n, self.dim))
        return self._points[idx] + self._bandwidth * noise

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelDensity):
            return NotImplemented
        return (
            self._bandwidth == other._bandwidth
            and np.array_equal(self._points, other._points)
        )

    def __repr__(self) -> str:
        return (
            f"KernelDensity({self._points.shape[0]} points, dim={self.dim}, "
            f"bandwidth={self._bandwidth})"
        )


def _check_atoms(*atoms: ComponentDensity) -> None:
    """Refuse any atom that is not a Gaussian, GaussianMixture or KernelDensity."""
    if not all(isinstance(a, (Gaussian, GaussianMixture, KernelDensity)) for a in atoms):
        raise ValueError("atoms must be Gaussian, GaussianMixture or KernelDensity instances")


class MixingMeasure:
    """K weighted density atoms: the statistical parameter of the model.

    ``weights[b-1]`` and ``components[b-1]`` belong to region index b. Atom
    weights must be strictly positive and sum to 1. ``labels`` is an optional
    display-name table for classes 1..K; it never affects computation.
    """

    def __init__(
        self,
        weights: ArrayLike,
        components: Sequence[ComponentDensity],
        labels: Sequence[str] | None = None,
    ):
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        components = tuple(components)
        if weights.ndim != 1 or not components or weights.size != len(components):
            raise ValueError("need one weight per component, at least one atom")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        _check_atoms(*components)
        dims = {c.dim for c in components}
        if len(dims) != 1:
            raise ValueError("components must all share one dimension")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(components):
                raise ValueError("labels must name each of the K classes")
        self._weights = _frozen(weights.copy())
        self._components = components
        self._labels = labels
        self._log_weights = _frozen(np.log(weights))

    @property
    def n_atoms(self) -> int:
        return len(self._components)

    @property
    def dim(self) -> int:
        return self._components[0].dim

    @property
    def weights(self) -> NDArray[np.float64]:
        return self._weights

    @property
    def log_weights(self) -> NDArray[np.float64]:
        """``log(weights)``, the entries ``log_scores`` adds to the atom scores."""
        return self._log_weights

    @property
    def components(self) -> tuple[ComponentDensity, ...]:
        return self._components

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self._labels

    def log_scores(self, x: ArrayLike) -> NDArray[np.float64]:
        """log(weight_b) + log f_b(x) for every atom b.

        Returns shape (K,) for a single point, (n, K) for a batch. This is
        the shared primitive behind densities, regions and likelihoods.
        """
        pts, squeeze = _as_points(x, self.dim)
        scores = _score(self._table, pts)
        scores += self._log_weights
        return scores[0] if squeeze else scores

    @cached_property
    def _table(self) -> _Parts:
        return _join([c._table for c in self._components])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixingMeasure):
            return NotImplemented
        return (
            np.array_equal(self._weights, other._weights)
            and self._components == other._components
            and self._labels == other._labels
        )

    def __repr__(self) -> str:
        return f"MixingMeasure(K={self.n_atoms}, dim={self.dim})"


@dataclass(frozen=True)
class Permutation:
    """A bijection assigning class labels 1..K to region indices 1..K.

    ``to_region[k-1]`` is the region index of class k.
    """

    to_region: tuple[int, ...]

    def __post_init__(self):
        k = len(self.to_region)
        normalized = tuple(int(v) for v in self.to_region)
        object.__setattr__(self, "to_region", normalized)
        if k == 0 or sorted(normalized) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {self.to_region}")

    @staticmethod
    def identity(k: int) -> "Permutation":
        return Permutation(tuple(range(1, k + 1)))

    @property
    def size(self) -> int:
        return len(self.to_region)

    @cached_property
    def _from_region(self) -> tuple[int, ...]:
        inv = [0] * self.size
        for k, b in enumerate(self.to_region, start=1):
            inv[b - 1] = k
        return tuple(inv)

    @property
    def is_identity(self) -> bool:
        return self.to_region == tuple(range(1, self.size + 1))

    def region_of_label(self, label: int) -> int:
        return self.to_region[label - 1]

    def label_of_region(self, region: int) -> int:
        return self._from_region[region - 1]

    def map_labels(self, labels: ArrayLike) -> NDArray[np.int64]:
        """Vectorized label -> region lookup (both 1-based)."""
        arr = np.asarray(self.to_region, dtype=np.int64)
        return arr[np.asarray(labels, dtype=np.int64) - 1]

    def map_regions(self, regions: ArrayLike) -> NDArray[np.int64]:
        """Vectorized region -> label lookup (both 1-based)."""
        arr = np.asarray(self._from_region, dtype=np.int64)
        return arr[np.asarray(regions, dtype=np.int64) - 1]

    def inverse(self) -> "Permutation":
        return Permutation(self._from_region)


class LabeledData:
    """A column-store dataset of labeled samples: x (n, d), y (n,) in 1..K."""

    def __init__(self, x: ArrayLike, y: ArrayLike):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise ValueError("x must be an (n, d) array")
        y = np.asarray(y)
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("y must be a vector aligned with x")
        if (
            y.size
            and not np.issubdtype(y.dtype, np.integer)
            and (not np.issubdtype(y.dtype, np.number) or np.any(y % 1 != 0))
        ):
            raise ValueError("labels must be integers")
        y = y.astype(np.int64)  # a copy, even of int64 labels
        if np.any(y < 1):
            raise ValueError("labels must be in 1..K")
        if not np.all(np.isfinite(x)):
            raise ValueError("sample points must be finite")
        self._x = _frozen(x.copy())
        self._y = _frozen(y)

    @property
    def x(self) -> NDArray[np.float64]:
        return self._x

    @property
    def y(self) -> NDArray[np.int64]:
        return self._y

    @property
    def n(self) -> int:
        return self._x.shape[0]

    @property
    def dim(self) -> int:
        return self._x.shape[1]

    def prefix(self, n: int) -> "LabeledData":
        """The first n samples, preserving order (sample-size sweeps)."""
        if not 0 <= n <= self.n:
            raise ValueError(f"prefix length {n} out of range 0..{self.n}")
        return LabeledData(self._x[:n], self._y[:n])

    def __len__(self) -> int:
        return self.n

    def csv_text(self) -> str:
        """CSV text with header x_1,...,x_d,y (labels 1-based)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"x_{j + 1}" for j in range(self.dim)] + ["y"])
        for i in range(self.n):
            writer.writerow([repr(float(v)) for v in self._x[i]] + [int(self._y[i])])
        return buf.getvalue()

    def save_csv(self, path: str | os.PathLike) -> None:
        """Write csv_text() to path."""
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())

    @classmethod
    def load_csv(cls, path: str | os.PathLike) -> "LabeledData":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            dim = len(header) - 1
            expected = [f"x_{j + 1}" for j in range(dim)] + ["y"]
            if dim < 1 or header != expected:
                raise ValueError(
                    f"{path}: header must be x_1,...,x_d,y; got {header}"
                )
            xs, ys = [], []
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num  # the physical line the row ends on
                if len(row) != dim + 1:
                    raise ValueError(f"{path}:{lineno}: expected {dim + 1} fields")
                try:
                    point = [float(v) for v in row[:dim]]
                    label = int(row[dim])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed row") from None
                if not all(math.isfinite(v) for v in point):
                    raise ValueError(f"{path}:{lineno}: non-finite coordinate")
                if label < 1:
                    raise ValueError(f"{path}:{lineno}: label must be >= 1")
                xs.append(point)
                ys.append(label)
        if not xs:
            raise ValueError(f"{path}: no data rows")
        return cls(np.array(xs), np.array(ys))


def mixture_log_density(measure: MixingMeasure, x: ArrayLike):
    """log m(x) where m = sum_b weight_b f_b, via log-sum-exp."""
    scores = measure.log_scores(x)
    return _logsumexp(scores, axis=-1)


def _region_from_scores(scores: np.ndarray):
    """The 1-based index of the largest log score, per row; exact ties go to
    the lowest index so the map is total."""
    idx = np.argmax(scores, axis=-1) + 1
    if np.ndim(idx) == 0:
        return int(idx)
    return idx.astype(np.int64)


def _label_from_scores(scores: np.ndarray, perm: Permutation):
    """The class label of each row of log scores under ``perm``."""
    region = _region_from_scores(scores)
    if np.ndim(region) == 0:
        return perm.label_of_region(region)
    return perm.map_regions(region)


def region_of(measure: MixingMeasure, x: ArrayLike):
    """Index of the decision region containing x (1-based).

    Region b is where weight_b f_b dominates every other atom; exact ties go
    to the lowest index so the map is total. Every atom scores a point with
    the same bits alone as inside a batch, so it lands in the same region
    either way.
    """
    return _region_from_scores(measure.log_scores(x))


def classify(measure: MixingMeasure, perm: Permutation, x: ArrayLike):
    """Class label assigned to x: the inverse permutation of its region.

    As in :func:`region_of`, a point gets the same label alone as inside a
    batch.
    """
    if perm.size != measure.n_atoms:
        raise ValueError("permutation size does not match the measure")
    return _label_from_scores(measure.log_scores(x), perm)


def sample_labeled(
    measure: MixingMeasure,
    perm: Permutation,
    n: int,
    seed: int | np.random.Generator | np.random.SeedSequence,
) -> LabeledData:
    """Draw n labeled samples: label k with the weight of its region perm(k),
    then X from that region's atom, so X follows the measure's mixture.

    The draw for sample i is independent of n, so ``result.prefix(m)`` is a
    valid size-m dataset from the same model. Deterministic given the seed.

    The generator calls are pinned: one ``rng.random(n)`` draws the labels
    (the draw ``rng.choice(K, n, p=weights[regions])`` makes, where
    ``regions`` lists ``perm.region_of_label(k) - 1`` for k = 1..K), then for
    each label k with a nonzero count m, the component of region
    ``perm.region_of_label(k)`` draws ``sample(rng, m)``; the samples of one
    label take its draws in sample order.
    """
    if perm.size != measure.n_atoms:
        raise ValueError("permutation size does not match the measure")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    regions = np.asarray(perm.to_region) - 1
    comps = [measure.components[b] for b in regions]
    y0, x = _sample_groups(rng, measure.weights[regions], comps, n, measure.dim)
    # widened before the shift: a uint8 index 255 would wrap to label 0
    return LabeledData(x, y0.astype(np.int64) + 1)


# --- JSON mixture format ----------------------------------------------------
#
# {"dim": d,
#  "atoms": [{"weight": w, "density": {...}}, ...],
#  "labels": ["name1", ...]}           # optional
#
# density objects:
#   {"type": "gaussian", "mean": [...], "cov": [[...], ...]}
#   {"type": "gaussian_mixture",
#    "components": [{"weight": w, "mean": [...], "cov": [[...]]}, ...]}
#   {"type": "kde", "points": [[...], ...], "bandwidth": h}


def _density_to_dict(density: ComponentDensity) -> dict:
    if isinstance(density, Gaussian):
        return {
            "type": "gaussian",
            "mean": density.mean.tolist(),
            "cov": density.cov.tolist(),
        }
    if isinstance(density, GaussianMixture):
        return {
            "type": "gaussian_mixture",
            "components": [
                {"weight": float(w), "mean": p.mean.tolist(), "cov": p.cov.tolist()}
                for w, p in zip(density.weights, density.parts)
            ],
        }
    # a KernelDensity, the one atom type left
    return {
        "type": "kde",
        "points": density.points.tolist(),
        "bandwidth": density.bandwidth,
    }


def _scalar(value, kind=numbers.Real):
    """``value`` if it is a ``kind`` number; a bool (JSON true or false), a
    string or anything else raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"not a number: {value!r}")
    return value


def _nested(value):
    """``value`` if it is a number or lists of numbers nested to any depth."""
    if not isinstance(value, (list, tuple)):
        return _scalar(value)
    for item in value:
        _nested(item)
    return value


def _int_list(value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"not a list: {value!r}")
    return tuple(int(_scalar(v, numbers.Integral)) for v in value)


# Strings, bools and fractional counts are refused, never converted.
_JSON_KINDS = {
    "a number": lambda value: float(_scalar(value)),
    "an integer": lambda value: int(_scalar(value, numbers.Integral)),
    "an array of numbers": lambda value: np.asarray(_nested(value), dtype=float),
    "a list of integers": _int_list,
}


def _json_field(obj: dict, key: str, kind: str):
    """``obj[key]`` converted to ``kind``, one of the keys of ``_JSON_KINDS``.

    A missing field, or one that does not convert, raises a ValueError that
    names the field instead of the conversion's TypeError.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"missing field '{key}'")
    try:
        return _JSON_KINDS[kind](obj[key])
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"'{key}' must be {kind}") from None


def _gaussian_from_dict(obj: dict) -> Gaussian:
    return Gaussian(
        _json_field(obj, "mean", "an array of numbers"),
        _json_field(obj, "cov", "an array of numbers"),
    )


def _density_from_dict(obj: dict, where: str) -> ComponentDensity:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"{where}: density must be an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "gaussian":
            return _gaussian_from_dict(obj)
        if kind == "gaussian_mixture":
            comps = obj.get("components")
            if not isinstance(comps, list) or not comps:
                raise ValueError("'components' must be a nonempty list")
            weights = [_json_field(c, "weight", "a number") for c in comps]
            return GaussianMixture(weights, [_gaussian_from_dict(c) for c in comps])
        if kind == "kde":
            return KernelDensity(
                _json_field(obj, "points", "an array of numbers"),
                _json_field(obj, "bandwidth", "a number"),
            )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    raise ValueError(f"{where}: unknown density type {kind!r}")


def mixture_to_dict(measure: MixingMeasure) -> dict:
    out = {
        "dim": measure.dim,
        "atoms": [
            {"weight": float(w), "density": _density_to_dict(c)}
            for w, c in zip(measure.weights, measure.components)
        ],
    }
    if measure.labels is not None:
        out["labels"] = list(measure.labels)
    return out


def mixture_from_dict(obj: dict) -> MixingMeasure:
    if not isinstance(obj, dict):
        raise ValueError("mixture spec must be a JSON object")
    atoms = obj.get("atoms")
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("mixture spec needs a nonempty 'atoms' list")
    weights, components = [], []
    for i, atom in enumerate(atoms):
        where = f"atoms[{i}]"
        if not isinstance(atom, dict) or "weight" not in atom or "density" not in atom:
            raise ValueError(f"{where}: each atom needs 'weight' and 'density'")
        try:
            weights.append(_json_field(atom, "weight", "a number"))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        components.append(_density_from_dict(atom["density"], where + ".density"))
    labels = obj.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("'labels' must be a list of class names")
    measure = MixingMeasure(weights, components, labels=labels)
    if obj.get("dim") is not None:
        declared = _json_field(obj, "dim", "an integer")
        if declared != measure.dim:
            raise ValueError(
                f"declared dim {declared} does not match components (dim {measure.dim})"
            )
    return measure


def _plain(obj):
    """obj as the JSON values ``_json_text`` writes.

    A ``Permutation`` becomes its ``to_region`` list, any other dataclass a
    dict of its fields, arrays and tuples lists, and NaN or infinite floats
    ``None``. Dict items are taken in sorted order and each key is checked
    before its value, so the first error raised is the one the output order
    meets: a key that is not a ``str`` raises ``TypeError``, and so does any
    value json cannot encode.
    """
    if isinstance(obj, (str, int)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [_plain(item) for item in obj]
    if isinstance(obj, dict):
        plain = {}
        for key, item in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            plain[key] = _plain(item)
        return plain
    if isinstance(obj, Permutation):  # before the dataclass rule
        return list(obj.to_region)
    if is_dataclass(obj):
        return _plain({f.name: getattr(obj, f.name) for f in fields(obj)})
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _json_text(obj) -> str:
    """The text of every JSON file the package writes: mixtures and results.

    ``json.dumps`` of ``_plain(obj)``: strict JSON with string keys, sorted,
    a two-space indent and a final newline.
    """
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def save_mixture(measure: MixingMeasure, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        fh.write(_json_text(mixture_to_dict(measure)))


def _read_json(path: str | os.PathLike):
    """The JSON value in the file at ``path``; malformed text raises a
    ValueError that names the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None


def load_mixture(path: str | os.PathLike) -> MixingMeasure:
    """The mixture in the JSON file at ``path``; every ValueError names the file."""
    obj = _read_json(path)
    try:
        return mixture_from_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
