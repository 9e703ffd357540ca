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
its array-API dispatch and copies.

Query points must be finite. Every atom's ``log_density``, ``log_scores`` and
everything built on them refuse NaN or infinite coordinates with the same
``ValueError``, raised where points are coerced, before any density math.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.linalg.lapack import dtrtrs
from scipy.spatial.distance import cdist

__all__ = [
    "ComponentDensity",
    "Gaussian",
    "GaussianMixture",
    "KernelDensity",
    "MixingMeasure",
    "Permutation",
    "LabeledData",
    "mixture_density",
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

# Half-width of the 1-d integration envelope, in standard deviations. Mass
# beyond it is ~1e-23 and irrelevant at the tolerances used anywhere here.
ENVELOPE_SIGMAS = 10.0

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

    Concrete variants: :class:`Gaussian`, :class:`GaussianMixture`,
    :class:`KernelDensity`. All are immutable after construction and safe to
    share across threads; sampling takes an explicit generator.
    """

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def log_density(self, x: ArrayLike) -> NDArray[np.float64] | float:
        """Log density at a point (d,) or batch (n, d); returns float or (n,)."""
        raise NotImplementedError

    def density(self, x: ArrayLike) -> NDArray[np.float64] | float:
        return np.exp(self.log_density(x))

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        """Draw n points, shape (n, dim)."""
        raise NotImplementedError

    def envelope_1d(self) -> tuple[float, float]:
        """Interval holding all but negligible mass (1-d densities only)."""
        raise NotImplementedError


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
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance is not positive definite") from None
        self._mean = _frozen(mean.copy())
        self._cov = _frozen(cov.copy())
        self._chol = _frozen(chol)
        # dtrtrs operands for the whitening solve chol z = x - mean, chosen as
        # scipy's triangular-solve wrapper chooses them: LAPACK reads Fortran
        # order, so a C-ordered factor (d > 1) is passed as its transpose and
        # solved as the transposed upper-triangular system
        if chol.flags.f_contiguous:
            self._trtrs = (self._chol, 1, 0)
        else:
            self._trtrs = (self._chol.T, 0, 1)
        self._log_norm = float(
            -0.5 * mean.size * _LOG_2PI - np.log(np.diag(chol)).sum()
        )

    @property
    def dim(self) -> int:
        return self._mean.size

    @property
    def mean(self) -> NDArray[np.float64]:
        return self._mean

    @property
    def cov(self) -> NDArray[np.float64]:
        return self._cov

    def log_density(self, x: ArrayLike):
        """Log density at a point (d,) or batch (n, d); returns float or (n,).

        The residuals are whitened by one direct LAPACK ``dtrtrs`` call on the
        operands scipy's triangular-solve wrapper would pass, so the values
        equal that wrapper's whitening bit for bit. LAPACK may round a point
        differently alone than inside a batch, so a single-point score and
        the same point's score in a batch need not agree bit for bit and must
        not be compared that way.
        """
        pts, squeeze = _as_points(x, self.dim)
        chol, lower, trans = self._trtrs
        # residuals one column at a time, much faster for small d than the
        # broadcast pts - mean, into a C-ordered buffer whose transpose is the
        # Fortran-ordered right-hand side; it is fresh, so LAPACK solves in place
        res = np.empty(pts.shape)
        for j in range(self.dim):
            np.subtract(pts[:, j], self._mean[j], out=res[:, j])
        z, info = dtrtrs(chol, res.T, lower=lower, trans=trans, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"triangular solve failed: LAPACK info {info}")
        # in place, and equal bit for bit to log_norm - 0.5 * |z|^2
        out = np.einsum("dn,dn->n", z, z)
        out *= -0.5
        out += self._log_norm
        return float(out[0]) if squeeze else out

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        """One ``rng.standard_normal((n, dim))`` call, mapped by mean + chol z."""
        out = rng.standard_normal((n, self.dim)) @ self._chol.T
        # the mean added one column at a time, in place: the same sums as the
        # broadcast mean + out, without its slow short inner loop
        for j in range(self.dim):
            out[:, j] += self._mean[j]
        return out

    def envelope_1d(self) -> tuple[float, float]:
        if self.dim != 1:
            raise ValueError("envelope_1d is only defined for 1-d densities")
        m = float(self._mean[0])
        half = ENVELOPE_SIGMAS * math.sqrt(float(self._cov[0, 0]))
        return m - half, m + half

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

    def log_density(self, x: ArrayLike):
        pts, squeeze = _as_points(x, self.dim)
        # numpy reduces a part-major (P, n) stack over axis 0 much faster than
        # the short rows of an (n, P) stack over axis 1. Both add the parts in
        # order below 8 parts, so the two layouts agree bit for bit there.
        per_part = np.stack([p.log_density(pts) for p in self._parts])
        out = _logsumexp(per_part, axis=0, b=self._weights[:, np.newaxis])
        return float(out[0]) if squeeze else out

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        """Draw n points: each picks a part by the nested weights.

        The generator calls are pinned: one ``rng.random(n)`` picks the parts
        (the draw ``rng.choice(len(parts), n, p=weights)`` makes), then every
        part with a nonzero count m draws ``part.sample(rng, m)``, in part
        order; a part's points take its draws in the order they were picked.
        """
        return _sample_groups(rng, self._weights, self._parts, n, self.dim)[1]

    def envelope_1d(self) -> tuple[float, float]:
        if self.dim != 1:
            raise ValueError("envelope_1d is only defined for 1-d densities")
        bounds = [p.envelope_1d() for p in self._parts]
        return min(lo for lo, _ in bounds), max(hi for _, hi in bounds)

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
        if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
            raise ValueError("bandwidth must be a positive finite scalar")
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

    def log_density(self, x: ArrayLike):
        pts, squeeze = _as_points(x, self.dim)
        sq = cdist(pts, self._points, "sqeuclidean")
        h = self._bandwidth
        out = _logsumexp(-0.5 * sq / (h * h), axis=1)
        out += -math.log(self._points.shape[0]) - self.dim * (
            math.log(h) + 0.5 * _LOG_2PI
        )
        return float(out[0]) if squeeze else out

    def sample(self, rng: np.random.Generator, n: int) -> NDArray[np.float64]:
        idx = rng.integers(0, self._points.shape[0], size=n)
        noise = rng.standard_normal((n, self.dim))
        return self._points[idx] + self._bandwidth * noise

    def envelope_1d(self) -> tuple[float, float]:
        if self.dim != 1:
            raise ValueError("envelope_1d is only defined for 1-d densities")
        half = ENVELOPE_SIGMAS * self._bandwidth
        return float(self._points.min()) - half, float(self._points.max()) + half

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
        if not all(isinstance(c, ComponentDensity) for c in components):
            raise ValueError("components must be ComponentDensity instances")
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
        cols = [c.log_density(pts) for c in self._components]
        scores = np.stack(cols, axis=1) + self._log_weights[np.newaxis, :]
        return scores[0] if squeeze else scores

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
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
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


def mixture_density(measure: MixingMeasure, x: ArrayLike):
    """Mixture density sum_b weight_b f_b(x)."""
    return np.exp(mixture_log_density(measure, x))


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
    to the lowest index so the map is total.
    """
    return _region_from_scores(measure.log_scores(x))


def classify(measure: MixingMeasure, perm: Permutation, x: ArrayLike):
    """Class label assigned to x: the inverse permutation of its region."""
    if perm.size != measure.n_atoms:
        raise ValueError("permutation size does not match the measure")
    return _label_from_scores(measure.log_scores(x), perm)


def sample_labeled(
    measure: MixingMeasure,
    perm: Permutation,
    n: int,
    seed: int | np.random.Generator | np.random.SeedSequence,
) -> LabeledData:
    """Draw n labeled samples: Y ~ weights, X ~ component assigned via perm.

    The draw for sample i is independent of n, so ``result.prefix(m)`` is a
    valid size-m dataset from the same model. Deterministic given the seed.

    The generator calls are pinned: one ``rng.random(n)`` draws the labels
    (the draw ``rng.choice(K, n, p=weights)`` makes), then for each label
    k = 1..K with a nonzero count m, the component of region
    ``perm.region_of_label(k)`` draws ``sample(rng, m)``; the samples of one
    label take its draws in sample order.
    """
    if perm.size != measure.n_atoms:
        raise ValueError("permutation size does not match the measure")
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    comps = [measure.components[b - 1] for b in perm.to_region]
    y0, x = _sample_groups(rng, measure.weights, comps, n, measure.dim)
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
    if isinstance(density, KernelDensity):
        return {
            "type": "kde",
            "points": density.points.tolist(),
            "bandwidth": density.bandwidth,
        }
    raise ValueError(f"unsupported density type {type(density).__name__}")


def _density_from_dict(obj: dict, where: str) -> ComponentDensity:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError(f"{where}: density must be an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "gaussian":
            return Gaussian(obj["mean"], obj["cov"])
        if kind == "gaussian_mixture":
            comps = obj["components"]
            if not isinstance(comps, list) or not comps:
                raise ValueError("'components' must be a nonempty list")
            weights = [c["weight"] for c in comps]
            parts = [Gaussian(c["mean"], c["cov"]) for c in comps]
            return GaussianMixture(weights, parts)
        if kind == "kde":
            return KernelDensity(obj["points"], obj["bandwidth"])
    except KeyError as exc:
        raise ValueError(f"{where}: missing density field {exc}") from None
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
        weights.append(atom["weight"])
        components.append(_density_from_dict(atom["density"], where + ".density"))
    measure = MixingMeasure(weights, components, labels=obj.get("labels"))
    declared = obj.get("dim")
    if declared is not None and int(declared) != measure.dim:
        raise ValueError(
            f"declared dim {declared} does not match components (dim {measure.dim})"
        )
    return measure


def save_mixture(measure: MixingMeasure, path: str | os.PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(mixture_to_dict(measure), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_mixture(path: str | os.PathLike) -> MixingMeasure:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    return mixture_from_dict(obj)
