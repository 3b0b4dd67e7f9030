"""Synthetic datasets for the machine-learning case study.

The paper trains 10-class ℓ2-regularized logistic regression on CIFAR-10
(50000 x 3072).  CIFAR-10 itself is not redistributable here, so experiments
use a synthetic multi-class dataset with the same structural properties
(dense float features, class-dependent means, configurable dimensions);
convergence behaviour of SVRG depends only on that structure.  The defaults
are smaller than CIFAR-10 so the test and benchmark suites stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.apps import require_numpy

np = require_numpy()


@dataclass
class SyntheticClassificationDataset:
    """A dense multi-class classification dataset."""

    features: np.ndarray   # (n, d) float32
    labels: np.ndarray     # (n,) int64 in [0, classes)
    classes: int

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def nbytes(self) -> int:
        return int(self.features.nbytes)

    def one_hot(self) -> np.ndarray:
        eye = np.eye(self.classes, dtype=np.float32)
        return eye[self.labels]

    def split(self, fraction: float = 0.8) -> Tuple["SyntheticClassificationDataset",
                                                    "SyntheticClassificationDataset"]:
        """Deterministic train/validation split."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        cut = int(self.num_samples * fraction)
        return (
            SyntheticClassificationDataset(self.features[:cut], self.labels[:cut],
                                           self.classes),
            SyntheticClassificationDataset(self.features[cut:], self.labels[cut:],
                                           self.classes),
        )


def make_dataset(num_samples: int = 2048, num_features: int = 256,
                 classes: int = 10, separation: float = 1.0,
                 noise: float = 1.0, seed: int = 7) -> SyntheticClassificationDataset:
    """Generate a linearly-separable-with-noise multi-class dataset.

    Each class has a random mean direction scaled by ``separation``; samples
    are that mean plus Gaussian noise, matching the difficulty profile of a
    dense image-classification problem under a linear model.
    """
    if num_samples <= 0 or num_features <= 0 or classes <= 1:
        raise ValueError("dataset dimensions must be positive (classes >= 2)")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, num_features)).astype(np.float32)
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)
    labels = rng.integers(0, classes, size=num_samples)
    noise_matrix = rng.standard_normal((num_samples, num_features)).astype(np.float32)
    features = means[labels] + noise * noise_matrix
    # Feature scaling to unit variance keeps the best learning rates in the
    # same range across dataset sizes (as the paper's lr sweep assumes).
    features /= np.maximum(features.std(axis=0, keepdims=True), 1e-6)
    return SyntheticClassificationDataset(features.astype(np.float32),
                                          labels.astype(np.int64), classes)
