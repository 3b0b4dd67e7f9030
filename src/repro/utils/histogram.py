"""Bucketed histograms.

The rank idle-time analysis of Figure 2 reports the fraction of time a rank
spends busy or idle, with idle periods broken into duration buckets
(1-10, 10-100, 100-250, 250-500, 500-1000 and 1000+ cycles).  The
:class:`BucketHistogram` here accumulates *weighted* samples (each idle period
contributes its full length to its bucket) so the result is a time breakdown,
matching the figure.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Bucket upper bounds (exclusive) used by Figure 2, in DRAM cycles.  The
#: final bucket is unbounded.
IDLE_BUCKETS: Tuple[int, ...] = (10, 100, 250, 500, 1000)

#: Human-readable labels for the Figure 2 buckets, shortest first.
IDLE_BUCKET_LABELS: Tuple[str, ...] = (
    "1-10", "10-100", "100-250", "250-500", "500-1000", "1000-",
)


class BucketHistogram:
    """Histogram over configurable value buckets with weighted samples."""

    STATE = ("weights", "counts")
    DERIVED = ("bounds", "labels")

    def __init__(self, bounds: Sequence[int] = IDLE_BUCKETS,
                 labels: Sequence[str] = IDLE_BUCKET_LABELS) -> None:
        if len(labels) != len(bounds) + 1:
            raise ValueError("need exactly one more label than bucket bounds")
        self.bounds: Tuple[int, ...] = tuple(bounds)
        self.labels: Tuple[str, ...] = tuple(labels)
        self.weights: List[float] = [0.0] * (len(bounds) + 1)
        self.counts: List[int] = [0] * (len(bounds) + 1)

    def bucket_index(self, value: float) -> int:
        """Index of the bucket a value falls into."""
        for i, bound in enumerate(self.bounds):
            if value < bound:
                return i
        return len(self.bounds)

    def add(self, value: float, weight: float = None) -> None:
        """Add a sample.  Weight defaults to the value itself.

        Using the value as its own weight turns the histogram into a *time*
        breakdown: an idle period of 300 cycles contributes 300 cycles of
        time to the 250-500 bucket.
        """
        idx = self.bucket_index(value)
        self.counts[idx] += 1
        self.weights[idx] += value if weight is None else weight

    @property
    def total_weight(self) -> float:
        return sum(self.weights)

    def fractions(self, extra_total: float = 0.0) -> Dict[str, float]:
        """Per-bucket weight fraction.

        ``extra_total`` is added to the denominator; Figure 2 uses it to add
        the busy time so the fractions sum to the full simulation window.
        """
        denom = self.total_weight + extra_total
        if denom <= 0:
            return {label: 0.0 for label in self.labels}
        return {label: self.weights[i] / denom for i, label in enumerate(self.labels)}
