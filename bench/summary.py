"""Median and quartiles of a metric's samples, as the benchmark reports them.

Quartiles use :func:`statistics.quantiles` with its default (exclusive)
method, so ``q3 - q1`` over ``median`` here is the same spread figure an
outside check computes from the same values.
"""

from __future__ import annotations

import statistics


def summarize(values: list[float]) -> dict[str, float | int]:
    """``{"median", "q1", "q3", "n"}`` of ``values`` (one sample: q1 = q3).

    Raises:
        ValueError: on an empty sample.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(stats: dict[str, float | int]) -> float:
    """Interquartile range as a share of the median (0 when the median is)."""
    median = stats["median"]
    if median == 0:
        return 0.0
    return abs((stats["q3"] - stats["q1"]) / median)
