"""Streamcluster (SC) — online k-median clustering NDA workload.

Table II lists streamcluster on a 2M x 128 point set as an NDA kernel.  Its
dominant work is distance evaluations between points and cluster centers
(dot products / norms), with occasional center updates — a read-heavy mix
that lands near DOT on the Figure 14 spectrum.  This module provides a
functional implementation plus the kernel-sequence description used by the
simulator experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps import require_numpy
from repro.apps.workloads import streamcluster_kernel_sequence  # re-exported

np = require_numpy()

__all__ = ["StreamClusterer", "ClusteringResult", "streamcluster_kernel_sequence"]


@dataclass
class ClusteringResult:
    """Result of clustering one chunk of the stream."""

    centers: np.ndarray
    assignments: np.ndarray
    cost: float
    distance_evaluations: int


class StreamClusterer:
    """Online k-median-style clustering over a streamed point set.

    Points arrive in chunks; each chunk is clustered against the current
    centers, opening a new center when a point is far from all existing ones
    (the facility-cost rule of the original streamcluster kernel), and
    centers are refined by a weighted mean update.
    """

    def __init__(self, num_features: int = 128, max_centers: int = 32,
                 facility_cost: float = 4.0, seed: int = 5) -> None:
        if num_features <= 0 or max_centers <= 0:
            raise ValueError("num_features and max_centers must be positive")
        self.num_features = num_features
        self.max_centers = max_centers
        self.facility_cost = facility_cost
        self.rng = np.random.default_rng(seed)
        self.centers: Optional[np.ndarray] = None
        self.center_weights: Optional[np.ndarray] = None
        self.total_cost = 0.0
        self.points_processed = 0
        self.distance_evaluations = 0

    # ------------------------------------------------------------------ #

    def make_stream(self, num_points: int, num_clusters: int = 8,
                    spread: float = 0.3) -> np.ndarray:
        """Generate a synthetic point stream with ``num_clusters`` modes."""
        means = self.rng.standard_normal((num_clusters, self.num_features))
        labels = self.rng.integers(0, num_clusters, size=num_points)
        noise = self.rng.standard_normal((num_points, self.num_features)) * spread
        return (means[labels] + noise).astype(np.float32)

    def _distances(self, points: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Squared distances point-to-center (the DOT/NRM2-heavy inner loop)."""
        self.distance_evaluations += points.shape[0] * centers.shape[0]
        p2 = (points ** 2).sum(axis=1, keepdims=True)
        c2 = (centers ** 2).sum(axis=1)
        cross = points @ centers.T
        return np.maximum(p2 + c2 - 2.0 * cross, 0.0)

    def process_chunk(self, points: np.ndarray) -> ClusteringResult:
        """Cluster one chunk of streamed points, updating the centers."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.num_features:
            raise ValueError("points must be (n, num_features)")
        if self.centers is None:
            self.centers = points[:1].copy()
            self.center_weights = np.ones(1)
        distances = self._distances(points, self.centers)
        nearest = distances.argmin(axis=1)
        nearest_cost = distances[np.arange(points.shape[0]), nearest]

        # Open new centers for points whose assignment cost exceeds the
        # facility cost, while capacity remains.
        order = np.argsort(-nearest_cost)
        for idx in order:
            if self.centers.shape[0] >= self.max_centers:
                break
            if nearest_cost[idx] <= self.facility_cost:
                continue  # already well served (possibly by a center just opened)
            self.centers = np.vstack([self.centers, points[idx]])
            self.center_weights = np.append(self.center_weights, 1.0)
            new_d = self._distances(points, self.centers[-1:])[:, 0]
            better = new_d < nearest_cost
            nearest[better] = self.centers.shape[0] - 1
            nearest_cost[better] = new_d[better]

        # Weighted-mean center refinement.
        for center_idx in range(self.centers.shape[0]):
            members = points[nearest == center_idx]
            if len(members) == 0:
                continue
            weight = self.center_weights[center_idx]
            new_weight = weight + len(members)
            self.centers[center_idx] = (
                (self.centers[center_idx] * weight + members.sum(axis=0)) / new_weight
            )
            self.center_weights[center_idx] = new_weight

        cost = float(nearest_cost.sum())
        self.total_cost += cost
        self.points_processed += points.shape[0]
        return ClusteringResult(self.centers.copy(), nearest, cost,
                                self.distance_evaluations)

    def run_stream(self, num_points: int = 4096, chunk: int = 512,
                   num_clusters: int = 8) -> List[ClusteringResult]:
        """Cluster a full synthetic stream chunk by chunk."""
        stream = self.make_stream(num_points, num_clusters)
        results = []
        for start in range(0, num_points, chunk):
            results.append(self.process_chunk(stream[start:start + chunk]))
        return results

    # ------------------------------------------------------------------ #

    def write_intensity(self) -> float:
        """Fraction of memory traffic that is writes (center updates only)."""
        if self.points_processed == 0:
            return 0.0
        reads = self.distance_evaluations * self.num_features
        writes = (0 if self.centers is None
                  else self.centers.shape[0] * self.num_features * self.points_processed
                  // max(1, self.points_processed))
        return writes / max(1, reads + writes)
