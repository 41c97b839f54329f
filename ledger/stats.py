"""Percentile arithmetic shared by the ledger's end-to-end and per-layer
reports.

A percentile is the nearest-rank value of the sorted samples.  A
percentile is *reportable* only when at least ``MIN_BEYOND`` samples lie
beyond it, so a p99 needs 1,000 samples and a p50 needs 20.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th
    nearest-rank percentile."""
    if count <= 0:
        return 0
    return count - max(math.ceil(q / 100.0 * count), 1)


def reportable(count: int, q: float) -> bool:
    """True when the ``q``-th percentile of ``count`` samples has at
    least :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(count, q) >= MIN_BEYOND


def summarize(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile of unsorted ``values``, or ``None`` when
    too few samples lie beyond it."""
    if not reportable(len(values), q):
        return None
    return percentile(sorted(values), q)


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
