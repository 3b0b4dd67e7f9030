"""Deterministic random number generation.

Every stochastic component of the simulator (traffic generators, stochastic
NDA issue, synthetic datasets) draws from a :class:`DeterministicRng` that is
seeded from the system seed plus a component-specific stream name.  This keeps
runs reproducible regardless of component construction order.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def _derive_seed(base_seed: int, stream: str) -> int:
    """Derive a 64-bit stream seed from a base seed and a stream label."""
    digest = hashlib.sha256(f"{base_seed}:{stream}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRng:
    """A named, reproducible random stream.

    Parameters
    ----------
    base_seed:
        The system-wide seed (``SystemConfig.seed``).
    stream:
        A label identifying the consumer, e.g. ``"traffic.core0"``.
    """

    #: ``_rng`` is a ``random.Random``: checkpointed as its ``getstate()``.
    STATE = ("_rng",)
    DERIVED = ("base_seed", "stream")

    def __init__(self, base_seed: int, stream: str) -> None:
        self.base_seed = base_seed
        self.stream = stream
        self._rng = random.Random(_derive_seed(base_seed, stream))

    def spawn(self, substream: str) -> "DeterministicRng":
        """Create an independent child stream."""
        return DeterministicRng(self.base_seed, f"{self.stream}/{substream}")

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._rng.randint(lo, hi)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def coin(self, probability: float) -> bool:
        """Bernoulli trial with the given success probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, items: List[T]) -> None:
        self._rng.shuffle(items)

    def sample(self, seq: Sequence[T], k: int) -> List[T]:
        return self._rng.sample(seq, k)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample with the given rate (1/mean)."""
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def numpy_seed(self) -> int:
        """A 32-bit seed suitable for ``numpy.random.default_rng``."""
        return _derive_seed(self.base_seed, self.stream) & 0xFFFFFFFF

    def getstate(self):
        """The underlying Mersenne Twister state (checkpointing)."""
        return self._rng.getstate()

    def setstate(self, state) -> None:
        """Restore a state captured by :meth:`getstate`."""
        self._rng.setstate(state)
