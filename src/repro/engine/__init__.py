"""Event-driven simulation engine with selective wake scheduling.

The engine decomposes a cycle-accurate simulation into :class:`Component`
objects that expose two operations: ``next_event_cycle(now)`` (the earliest
cycle at which the component could act) and ``on_wake(now)`` (process one
cycle).  The :class:`EventEngine` keeps each component's cached wake in an
:class:`IndexedCalendar` (one slot per unit), advances
directly to the earliest entry, and on processed cycles wakes only units
that are due or were dirtied through the :class:`WakeHub` push-notification
channel; lazily-advanced components (host cores, windowed statistics) are
caught up in closed form over skipped spans.  The :class:`CycleEngine`
processes every cycle and is kept as the bit-exact regression baseline.

See ``ARCHITECTURE.md`` for the wake/fast-forward and dirty-notification
contracts.
"""

from repro.engine.core import (
    INFINITY,
    Component,
    CycleEngine,
    EventEngine,
    SimulationEngine,
    WakeHub,
    make_engine,
)
from repro.engine.queue import IndexedCalendar

__all__ = [
    "Component",
    "CycleEngine",
    "EventEngine",
    "INFINITY",
    "IndexedCalendar",
    "SimulationEngine",
    "WakeHub",
    "make_engine",
]
