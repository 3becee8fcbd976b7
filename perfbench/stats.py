"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "TAIL_CAP", "median", "quartile_spread", "tail"]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Highest tail percentile reported. Uncapped, the serve workloads' tail
#: is p99 and up (rank n - 10 of over 1,000 ops), which spread by 0.22
#: to 0.25 over 10 seeds on a shared 2-vCPU host, at the edge of its
#: bound. At p95 ``serve-daemon`` read the lower edge of its slowest
#: requests (random-input sweeps, 4-5% of ops) and spread by 0.21; p97.5
#: lies inside them and spread by 0.05 over the same 8 runs where p95
#: spread by 0.10. It rests on over 25 samples beyond it instead of 10.
TAIL_CAP = 97.5


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> dict | None:
    """The highest percentile, up to :data:`TAIL_CAP`, with at least
    :data:`MIN_BEYOND` samples beyond it: the nearest-rank value at rank
    ``n - MIN_BEYOND`` (or at the cap), as ``{"value", "percentile",
    "beyond", "samples"}``; ``None`` when ``n`` is not larger than
    :data:`MIN_BEYOND`."""
    n = len(values)
    if n <= MIN_BEYOND:
        return None
    percentile = min(100.0 * (n - MIN_BEYOND) / n, TAIL_CAP)
    # Rounded first: 95 / 100 * 1000 is 950.0000000000001 in floats.
    rank = math.ceil(round(percentile / 100.0 * n, 9))
    return {
        "value": float(sorted(values)[rank - 1]),
        "percentile": percentile,
        "beyond": n - rank,
        "samples": n,
    }


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid
