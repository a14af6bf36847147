"""Order statistics for the benchmark's latency samples."""

from __future__ import annotations

import math

TAIL_MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


def tail(values: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile from 50 to 99 with at least ten samples above it.

    Returns (percentile, value, samples above). Fewer than about twenty
    samples leave no such percentile; the median is returned then, with
    however many samples lie above it.
    """
    for p in range(99, 49, -1):
        v = percentile(values, p)
        beyond = sum(1 for x in values if x > v)
        if beyond >= TAIL_MIN_BEYOND:
            return p, v, beyond
    v = median(values)
    return 50, v, sum(1 for x in values if x > v)
