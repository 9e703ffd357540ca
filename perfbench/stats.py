"""Summary statistics used by the benchmark: medians, quartiles, tail rule."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, tried from the highest down.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(n * p / 100.0))


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least MIN_BEYOND samples beyond it.

    None when even the median has fewer than MIN_BEYOND samples beyond it.
    """
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def median(values) -> float:
    return float(statistics.median(values))

