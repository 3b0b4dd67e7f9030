"""Shared utilities: deterministic RNG, histograms and sample totals."""

from repro.utils.rng import DeterministicRng
from repro.utils.histogram import BucketHistogram, IDLE_BUCKETS
from repro.utils.stats import WindowedStat

__all__ = [
    "DeterministicRng",
    "BucketHistogram",
    "IDLE_BUCKETS",
    "WindowedStat",
]
