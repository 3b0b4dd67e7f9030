"""Synthetic post-LLC address stream generation.

Each core's miss stream is produced by an :class:`AddressStreamGenerator`
parameterized by its benchmark profile: misses either continue a sequential
(next cache line) run — giving row-buffer and channel-interleaving locality —
or jump to a random cache line inside the benchmark's footprint.  Writebacks
target lines touched recently, as an LLC eviction stream would.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.host.profiles import BenchmarkProfile
from repro.utils.rng import DeterministicRng


class AddressStreamGenerator:
    """Generates physical cache-line addresses for one benchmark instance.

    Parameters
    ----------
    profile:
        The benchmark's memory-behaviour profile.
    region_base, region_bytes:
        The contiguous physical region the benchmark's data occupies.  The
        footprint used is ``min(profile.footprint_bytes, region_bytes)``.
    rng:
        Deterministic random stream.
    """

    STATE = ("rng", "_current_line", "_recent_lines", "generated_reads",
             "generated_writes")
    DERIVED = ("profile", "region_base", "cacheline_bytes", "footprint_bytes",
               "footprint_lines")

    def __init__(self, profile: BenchmarkProfile, region_base: int,
                 region_bytes: int, rng: DeterministicRng,
                 cacheline_bytes: int = 64) -> None:
        if region_bytes < cacheline_bytes:
            raise ValueError("region too small for a single cache line")
        self.profile = profile
        self.region_base = region_base
        self.cacheline_bytes = cacheline_bytes
        self.footprint_bytes = min(profile.footprint_bytes, region_bytes)
        self.footprint_lines = max(1, self.footprint_bytes // cacheline_bytes)
        self.rng = rng
        self._current_line = rng.randrange(self.footprint_lines)
        self._recent_lines: Deque[int] = deque(maxlen=64)
        self.generated_reads = 0
        self.generated_writes = 0

    # ------------------------------------------------------------------ #

    def _line_to_phys(self, line: int) -> int:
        return self.region_base + (line % self.footprint_lines) * self.cacheline_bytes

    def next_read_address(self) -> int:
        """Physical address of the next demand miss."""
        if self.rng.coin(self.profile.sequential_fraction):
            self._current_line = (self._current_line + 1) % self.footprint_lines
        else:
            self._current_line = self.rng.randrange(self.footprint_lines)
        self._recent_lines.append(self._current_line)
        self.generated_reads += 1
        return self._line_to_phys(self._current_line)

    def next_writeback_address(self) -> int:
        """Physical address of a writeback (an LLC dirty eviction)."""
        self.generated_writes += 1
        if self._recent_lines and self.rng.coin(0.8):
            line = self.rng.choice(list(self._recent_lines))
        else:
            line = self.rng.randrange(self.footprint_lines)
        return self._line_to_phys(line)

    def next_access(self) -> Tuple[int, bool]:
        """(physical address, is_write) of the next memory transaction."""
        if self.rng.coin(1.0 - self.profile.read_fraction):
            return self.next_writeback_address(), True
        return self.next_read_address(), False

    # ------------------------------------------------------------------ #

    @property
    def total_generated(self) -> int:
        return self.generated_reads + self.generated_writes
