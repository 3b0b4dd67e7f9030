"""Shared utilities: deterministic RNG, histograms and counters."""

from repro.utils.rng import DeterministicRng
from repro.utils.histogram import BucketHistogram, IDLE_BUCKETS
from repro.utils.stats import Counter, WindowedStat

__all__ = [
    "DeterministicRng",
    "BucketHistogram",
    "IDLE_BUCKETS",
    "Counter",
    "WindowedStat",
]
