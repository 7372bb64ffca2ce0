"""Summary statistics shared by the runner, its summaries and its tests.

Quartiles use `statistics.quantiles(values, n=4)` (the "exclusive"
method), so they are what a reader gets by feeding the same values to
Python's standard library.
"""

from __future__ import annotations

import statistics

# A percentile is reported only when at least this many samples lie above it.
TAIL_SAMPLES = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_SAMPLES samples above it.

    Returns (percentile, value), taking the sample that has exactly
    TAIL_SAMPLES samples above it, or None when there are too few samples
    for even that.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_SAMPLES
    if k < 1:
        return None
    return 100.0 * k / n, float(ordered[k - 1])


def describe(values) -> dict:
    """Median, quartiles, sample count and tail percentile of a sample."""
    values = list(values)
    q1, q2, q3 = quartiles(values)
    out = {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_percentile"], out["tail_value"] = tail
    return out
