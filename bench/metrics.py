"""Order statistics shared by the benchmark, its proof runs and its tests."""

from __future__ import annotations

import math
import statistics


def tail(values, beyond: int = 10) -> tuple[int, float, int]:
    """``(percentile, latency, samples beyond it)`` at the highest whole
    percentile that leaves at least ``beyond`` samples above its rank.

    With fewer than ``beyond + 1`` samples no percentile qualifies; the
    maximum is returned as percentile 100 with 0 samples beyond, so the
    caller can print that it is not a tail estimate.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    for q in range(99, 0, -1):
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= beyond:
            return q, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
