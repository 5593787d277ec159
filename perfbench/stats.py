"""Summary statistics shared by the workloads.

Percentiles use the nearest-rank rule on the sorted sample. A tail
percentile is only quoted when at least ten samples lie beyond it, so
the figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with p% at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), p) - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th one."""
    return n - _rank(n, p)


def supported(n: int, p: float) -> bool:
    return beyond(n, p) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if supported(n, p):
            best = p
    return best


def pct_label(p: float) -> str:
    return "p" + (f"{p:g}")


def latency_summary(samples_s: Sequence[float]) -> dict:
    """p50, p90, p99 and the highest supported tail of a latency sample, in ms.

    A percentile is None when fewer than ten samples lie beyond it.
    """
    n = len(samples_s)
    ms = [s * 1000.0 for s in samples_s]
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(ms) if ms else None,
        "p90": percentile(ms, 90.0) if supported(n, 90.0) else None,
        "p99": percentile(ms, 99.0) if supported(n, 99.0) else None,
        "tail": pct_label(tail) if tail is not None else None,
        "tail_ms": percentile(ms, tail) if tail is not None else None,
    }
