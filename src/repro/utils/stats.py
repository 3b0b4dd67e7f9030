"""Small statistics helpers used throughout the simulator."""

from __future__ import annotations

from typing import Dict, Optional


class Counter:
    """A named group of monotonically increasing event counters."""

    STATE = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


class WindowedStat:
    """Accumulates samples and reports simple summary statistics."""

    STATE = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
