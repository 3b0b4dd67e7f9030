"""Small statistics helpers used throughout the simulator."""

from __future__ import annotations


class WindowedStat:
    """Accumulates samples: their count and their total."""

    STATE = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
