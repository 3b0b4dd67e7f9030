"""Engine cores: the component protocol, the wake hub and the two drivers.

**The wake/fast-forward contract.**  A :class:`Component` must guarantee
that for every cycle ``t`` with ``now <= t < next_event_cycle(now)``,
processing cycle ``t`` (``on_wake(t)``) would not change any simulation
state that other components or the final results can observe — no DRAM
command, no request enqueue/completion, no RNG draw, no first-attempt access
classification.  Wake-ups may be conservative (early); they must never be
late.  State that accrues on *every* cycle regardless of activity (host-core
retirement arithmetic, windowed idle statistics) is advanced lazily:
``advance(stop)`` must bring the component to the same state as processing
each skipped cycle individually — the components achieve this with
closed-form integer arithmetic, so the event engine is bit-exact with the
cycle engine.

**Selective wake.**  The event engine does not re-poll components: each
registered component owns one slot in an :class:`IndexedCalendar` holding
its cached absolute wake cycle, and the per-iteration scheduling decision is
the calendar's minimum.  A cached wake is recomputed only when the
unit's slot is *dirty*: the engine marks a unit dirty after it runs (its own
actions moved its state), and cross-component interactions push dirty
notifications through the :class:`WakeHub` a component receives at
registration (host enqueue dirties the target channel, a host DRAM issue
dirties the rank's NDA unit, a completed NDA instruction dirties the NDA
host, ...).  The resulting invariant mirrors the wake contract:

    a unit's calendar entry may be *early* (the unit runs as a provable
    no-op and is re-polled), but every state change that could make a unit
    eligible earlier than its cached wake MUST dirty its slot.

Within a processed cycle, due-or-dirty units run in registration (slot)
order, which mirrors the legacy ``ChopimSystem.step`` ordering exactly;
units that are neither due nor dirty are skipped entirely — the engine's
per-cycle cost is O(active units), not O(components x ranks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Protocol, runtime_checkable

from repro.engine.queue import INFINITY, IndexedCalendar


@runtime_checkable
class Component(Protocol):
    """One event-driven participant of the simulation loop."""

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which this component may act."""
        ...

    def on_wake(self, now: int) -> None:
        """Process cycle ``now`` (called for every cycle the unit is due)."""
        ...

    def advance(self, stop: int) -> None:
        """Catch lazily-advanced state up to (but excluding) cycle ``stop``."""
        ...


class WakeHub:
    """Push-based dirty notification between schedulable units.

    Components (and the subsystems they wrap) call :meth:`dirty` with the
    target unit's slot whenever they change state that could move that
    unit's wake-up *earlier*; the engine re-polls dirty units before its
    next scheduling decision and before skipping them within a processed
    cycle.  Marking is idempotent per drain (a flag per slot), so hot paths
    may notify unconditionally without flooding the engine.
    """

    __slots__ = ("flags", "pending", "dirty_counts")

    def __init__(self, slots: int) -> None:
        self.flags = bytearray(slots)
        self.pending: List[int] = []
        #: External notifications received per slot (profiling; the engine's
        #: own post-run re-poll marks do not count).
        self.dirty_counts: List[int] = [0] * slots

    def dirty(self, slot: int) -> None:
        """Mark ``slot`` for re-poll (a cross-component notification)."""
        self.dirty_counts[slot] += 1
        if not self.flags[slot]:
            self.flags[slot] = 1
            self.pending.append(slot)

    def mark(self, slot: int) -> None:
        """Engine-internal marking (post-run re-poll; not counted)."""
        if not self.flags[slot]:
            self.flags[slot] = 1
            self.pending.append(slot)

    def mark_all(self) -> None:
        """Mark every slot (engine start, measurement reset, step())."""
        for slot in range(len(self.flags)):
            if not self.flags[slot]:
                self.flags[slot] = 1
                self.pending.append(slot)

    def dirtier(self, slot: int):
        """A zero-argument callable bound to ``dirty(slot)`` (for hooks)."""
        return lambda: self.dirty(slot)


class SimulationEngine:
    """Base driver: owns the component list, wake hub and cycle counters."""

    def __init__(self, components: Iterable[Component]) -> None:
        self.components: List[Component] = list(components)
        # Components whose advance() is a documented no-op opt out with a
        # ``needs_advance = False`` class attribute; skipping them saves two
        # calls per component per processed cycle.  Components that advance
        # themselves lazily at their own trigger points (the host unit syncs
        # cores on completion delivery and live ticks) opt out of the
        # per-cycle call too but still set ``needs_flush = True`` so
        # :meth:`flush` brings them to the target cycle.
        self._advancing: List[Component] = [
            c for c in self.components if getattr(c, "needs_advance", True)
        ]
        self._flushing: List[Component] = [
            c for c in self.components
            if getattr(c, "needs_advance", True) or getattr(c, "needs_flush", False)
        ]
        count = len(self.components)
        self.hub = WakeHub(count)
        self.unit_labels: List[str] = [
            getattr(c, "unit_label", type(c).__name__) for c in self.components
        ]
        #: next_event_cycle calls per unit (the wake probes the old engine
        #: issued once per component per loop iteration).
        self.wake_probes: List[int] = [0] * count
        #: on_wake calls per unit (cycles the unit was actually processed).
        self.unit_wakes: List[int] = [0] * count
        self.cycles_processed = 0
        self.cycles_skipped = 0
        # Hand each component its hub and slot; components without a
        # register() method never push (or receive targeted) notifications.
        for slot, component in enumerate(self.components):
            register = getattr(component, "register", None)
            if register is not None:
                register(self.hub, slot)
        self.hub.mark_all()

    def run_until(self, now: int, target: int) -> int:
        """Advance from ``now`` to ``target``; returns the new cycle."""
        raise NotImplementedError

    def process_cycle(self, now: int) -> None:
        """Run one full broadcast cycle: lazy catch-up, then every component.

        This is the legacy per-cycle semantics (used by the cycle engine and
        by ``ChopimSystem.step``); the event engine's selective path lives in
        :meth:`EventEngine._process_selective`.
        """
        for component in self._advancing:
            component.advance(now)
        for component in self.components:
            component.on_wake(now)
        self.cycles_processed += 1

    def flush(self, target: int) -> None:
        """Bring every lazily-advanced component up to ``target``."""
        for component in self._flushing:
            component.advance(target)

    def invalidate_wakes(self) -> None:
        """Force a re-poll of every unit (measurement resets, workload swaps)."""
        self.hub.mark_all()

    def wake_stats(self) -> List[Dict[str, object]]:
        """Per-unit scheduling statistics (profiling / the perf ledger)."""
        processed = self.cycles_processed
        stats = []
        post_counts = getattr(self, "post_run_updates", None)
        for slot, label in enumerate(self.unit_labels):
            wakes = self.unit_wakes[slot]
            stats.append({
                "unit": label,
                "wake_probes": self.wake_probes[slot],
                "wakes_run": wakes,
                "dirty_notifications": self.hub.dirty_counts[slot],
                "post_run_updates": post_counts[slot] if post_counts else 0,
                "skip_ratio": round(1.0 - wakes / processed, 4) if processed else 0.0,
            })
        return stats


class CycleEngine(SimulationEngine):
    """The cycle-by-cycle baseline: processes every cycle unconditionally."""

    name = "cycle"

    def run_until(self, now: int, target: int) -> int:
        while now < target:
            self.process_cycle(now)
            now += 1
        self.flush(target)
        return now


class EventEngine(SimulationEngine):
    """Selective-wake driver: consults the wake calendar, not the components.

    Per iteration: drain the hub (re-poll only units whose wake may have
    changed), read the calendar minimum, and either fast-forward to
    it or process the cycle — waking only due-or-dirty units.
    """

    name = "event"

    def __init__(self, components: Iterable[Component]) -> None:
        super().__init__(components)
        self.calendar = IndexedCalendar(len(self.components))
        # Cursor-based advancers (idempotent catch-up) defer to flush time
        # on the selective path; the broadcast path still advances them per
        # cycle for the step()-driven runtime API.
        self._selective_advancing = [
            c for c in self._advancing
            if not getattr(c, "advance_deferrable", False)
        ]
        self._ran_scratch: List[int] = []
        # Units exposing post_run_wake(now) refresh their calendar entry in
        # O(1) after a run instead of being marked for a full re-poll.
        self._post_run = [getattr(c, "post_run_wake", None)
                          for c in self.components]
        self.post_run_updates: List[int] = [0] * len(self.components)
        # Bound-method tables: the selective loop dispatches through these
        # to avoid one attribute lookup per call at the innermost level.
        self._poll_fns = [c.next_event_cycle for c in self.components]
        self._wake_fns = [c.on_wake for c in self.components]

    def process_cycle(self, now: int) -> None:
        # Broadcast path (ChopimSystem.step / manual driving): every unit may
        # have acted without the calendar noticing, so re-poll everything.
        super().process_cycle(now)
        self.hub.mark_all()

    def _drain_dirty(self, now: int) -> None:
        polls = self._poll_fns
        calendar = self.calendar
        flags = self.hub.flags
        pending = self.hub.pending
        probes = self.wake_probes
        for slot in pending:
            if flags[slot]:
                flags[slot] = 0
                probes[slot] += 1
                calendar.set(slot, polls[slot](now))
        del pending[:]

    def run_until(self, now: int, target: int) -> int:
        calendar = self.calendar
        pending = self.hub.pending
        while now < target:
            if pending:
                self._drain_dirty(now)
            wake = calendar.min_cycle()
            if wake <= now:
                self._process_selective(now)
                now += 1
                continue
            if wake >= target:
                self.cycles_skipped += target - now
                now = target
                break
            # Fast-forward: cycles [now, wake) are no-ops for every unit
            # (calendar entries are never late); lazy state is reconciled by
            # advance() at the next processed cycle (or the flush below).
            self.cycles_skipped += wake - now
            now = wake
        self.flush(target)
        return now

    def _process_selective(self, now: int) -> None:
        """Process cycle ``now``, waking only due-or-dirty units in slot order.

        Dirty flags are consulted *live*: a unit dirtied mid-cycle by an
        earlier slot (work delivered by a completed launch packet, a freed
        queue entry) is re-polled when its slot is visited and runs this very
        cycle when due — exactly as the legacy per-cycle loop would.  Dirty
        notifications targeting already-visited slots take effect next cycle,
        which also matches the legacy ordering (the earlier component has
        already run this cycle).
        """
        for component in self._selective_advancing:
            component.advance(now)
        polls = self._poll_fns
        wakes = self._wake_fns
        calendar = self.calendar
        hub = self.hub
        flags = hub.flags
        values = calendar.values
        probes = self.wake_probes
        unit_wakes = self.unit_wakes
        ran = self._ran_scratch
        for slot in range(len(values)):
            if flags[slot]:
                flags[slot] = 0
                probes[slot] += 1
                wake = polls[slot](now)
                calendar.set(slot, wake)
                if wake > now:
                    continue
            elif values[slot] > now:
                continue
            wakes[slot](now)
            unit_wakes[slot] += 1
            ran.append(slot)
        # A unit that ran has moved its own state: refresh its calendar entry
        # in O(1) where the unit supports it, otherwise mark it for a full
        # re-poll before the next scheduling decision (post-run marks are
        # engine bookkeeping, not dirty notifications).
        post_run = self._post_run
        post_counts = self.post_run_updates
        for slot in ran:
            refresh = post_run[slot]
            if refresh is None:
                hub.mark(slot)
            else:
                calendar.set(slot, refresh(now))
                post_counts[slot] += 1
        del ran[:]
        self.cycles_processed += 1


def make_engine(kind: str, components: Iterable[Component]) -> SimulationEngine:
    """Engine factory for the ``engine="cycle"|"event"`` system switch."""
    if kind == "cycle":
        return CycleEngine(components)
    if kind == "event":
        return EventEngine(components)
    raise ValueError(f"unknown engine {kind!r}; expected 'cycle' or 'event'")


__all__ = [
    "Component",
    "CycleEngine",
    "EventEngine",
    "INFINITY",
    "SimulationEngine",
    "WakeHub",
    "make_engine",
]
