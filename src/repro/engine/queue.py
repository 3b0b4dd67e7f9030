"""The event engine's wake calendar.

:class:`IndexedCalendar` holds one cached absolute wake cycle per
schedulable unit (components are assigned dense slot indices at
registration).  There is exactly one live entry per slot, so the engine can
read any unit's cached wake by slot in O(1) — which is what makes the
per-processed-cycle "due or dirty" check a flat array scan instead of a
re-poll of every component.
"""

from __future__ import annotations

from typing import List

#: Wake-up value meaning "this component needs no wake-up".
INFINITY = 1 << 62


class IndexedCalendar:
    """Absolute wake cycles, one entry per slot, in a flat list.

    ``values[slot]`` is the slot's current wake cycle (``INFINITY`` =
    never).  All slots are always present; "unscheduled" simply means a
    value of ``INFINITY``.  An update is a plain list store and the minimum
    is a C-speed ``min()`` over the list: for the few dozen units one system
    registers this beats maintaining heap invariants (calendar updates
    outnumber minimum reads ~4:1 on dense workloads).
    """

    __slots__ = ("values",)

    def __init__(self, slots: int) -> None:
        self.values: List[int] = [INFINITY] * slots

    def min_cycle(self) -> int:
        """The earliest wake cycle over all slots (``INFINITY`` when none)."""
        return min(self.values) if self.values else INFINITY

    def set(self, slot: int, cycle: int) -> None:
        """Update ``slot``'s wake cycle."""
        self.values[slot] = cycle
