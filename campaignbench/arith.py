"""Arithmetic the benchmark reports with: percentiles, quartiles, ratios.

Kept free of any simulator import so the unit tests in ``test_arith.py``
run without the package under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Percentiles the latency report may choose from, highest first.
CANDIDATE_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; fewer and one outlier decides its value.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *pct*
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank *pct* percentile of
    *count* samples."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def supported(count: int, pct: float) -> bool:
    """True when the *pct* percentile of *count* samples has at least
    :data:`MIN_BEYOND` samples beyond it."""
    return count > 0 and samples_beyond(count, pct) >= MIN_BEYOND


def highest_supported(count: int) -> float:
    """The highest candidate percentile *count* samples support, or 0.0
    when even the median lacks ten samples beyond it."""
    for pct in CANDIDATE_PERCENTILES:
        if supported(count, pct):
            return pct
    return 0.0


def min_samples(pct: float) -> int:
    """The fewest samples for which the *pct* percentile is supported."""
    if pct >= 100.0:
        raise ValueError("no sample count supports the maximum")
    count = MIN_BEYOND + 1
    while not supported(count, pct):
        count += 1
    return count


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``
    gives them (one sample: all three equal it)."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only, "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def ratio(num: float, base: float) -> Dict[str, float]:
    """A ratio together with the base it was taken over.

    A zero base yields a zero value rather than an error: a layer that
    did no work (the cycle cache on a workload that never arms it) has
    no hit fraction, and the record says so through ``base == 0``.
    """
    return {"value": num / base if base else 0.0, "num": num, "base": base}
