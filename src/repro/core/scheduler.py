"""Concurrent-access scheduling: when may an NDA touch its rank?

The basic Chopim policy (Section III-B): host requests always have priority;
NDAs opportunistically use any cycle in which their rank is not serving the
host.  This module encapsulates that gating decision so the system loop and
the tests share one implementation.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.dram.device import DramSystem
from repro.engine.core import WakeHub
from repro.memctrl.controller import ChannelController


class ConcurrentAccessScheduler:
    """Decides, per cycle and per rank, whether NDA commands may issue."""

    #: The host-issued set is this cycle's only; a safe point lies between
    #: cycles, so it is never saved.
    STATE = ()
    DERIVED = ("dram", "channel_controllers", "_rank_states",
               "_ranks_per_channel", "_refresh_enabled",
               "_host_issued_this_cycle", "_cycle", "_wake_hub",
               "_rank_routes")

    def __init__(self, dram: DramSystem,
                 channel_controllers: Dict[int, ChannelController]) -> None:
        self.dram = dram
        self.channel_controllers = channel_controllers
        # Direct view of the per-rank timing state (list mutated in place,
        # never reassigned): the gate reads the busy windows inline — it
        # runs once per rank per processed cycle.
        self._rank_states = dram.timing._ranks
        self._ranks_per_channel = dram.org.ranks_per_channel
        # With refresh enabled the NDA must *defer* to a due refresh: it
        # keeps no refresh state of its own, so if it kept streaming, its
        # row activity would hold the bank precharge horizons in the future
        # forever and starve REF on refresh-heavy configurations.  All
        # channel controllers share one SchedulerConfig.
        self._refresh_enabled = next(
            (c.config.refresh_enabled for c in channel_controllers.values()),
            False)
        self._host_issued_this_cycle: Set[Tuple[int, int]] = set()
        self._cycle = -1
        # Selective-wake plumbing: every host command issue is reported here
        # (the channel components call note_host_issue), so this is the one
        # place that sees "the host touched rank (ch, rk)" — the event that
        # can change the rank's bank state and therefore move its NDA unit's
        # wake-up in either direction.  The per-rank issue-version polling
        # this replaces lived on DramSystem (see ARCHITECTURE.md).
        self._wake_hub: Optional[WakeHub] = None
        # Per-rank host-issue route: (wake-hub slot, burst controller or
        # None).  A host command to (channel, rank) dirties the rank's NDA
        # unit and truncates any planned NDA command burst on that rank —
        # one lookup serves both.
        self._rank_routes: Dict[Tuple[int, int],
                                Tuple[int, Optional[object]]] = {}

    # ------------------------------------------------------------------ #

    def bind_wake_hub(self, hub: WakeHub,
                      rank_slots: Dict[Tuple[int, int], int]) -> None:
        """Route host-issue notifications to the affected NDA rank units."""
        self._wake_hub = hub
        for key, slot in rank_slots.items():
            old = self._rank_routes.get(key)
            self._rank_routes[key] = (slot, old[1] if old else None)

    def bind_burst_controllers(self, controllers: Dict[Tuple[int, int], object],
                               ) -> None:
        """Route host-issue burst truncations to the NDA rank controllers."""
        for key, controller in controllers.items():
            old = self._rank_routes.get(key)
            self._rank_routes[key] = (old[0] if old else -1, controller)

    def begin_cycle(self, now: int) -> None:
        if now != self._cycle:
            self._cycle = now
            self._host_issued_this_cycle.clear()

    def note_host_issue(self, channel: int, rank: int, now: int) -> None:
        """Record that the host issued a command to (channel, rank) at ``now``.

        Besides gating same-cycle NDA issue, this dirties the rank's NDA
        unit: a host command can change the rank's bank state (shared-bank
        modes, refresh precharges), which may change the *kind* of the NDA's
        next required command and with it the unit's wake-up.
        """
        self.begin_cycle(now)
        self._host_issued_this_cycle.add((channel, rank))
        route = self._rank_routes.get((channel, rank))
        if route is None:
            return
        slot, controller = route
        if controller is not None and controller.burst_class is not None:
            controller.note_host_issue(now)
        if slot >= 0:
            hub = self._wake_hub
            if hub is not None:
                hub.dirty(slot)

    def nda_may_issue(self, channel: int, rank: int, now: int) -> bool:
        """Whether the NDA of (channel, rank) may issue a command at ``now``.

        True only if the host neither issued a command to the rank this cycle
        nor is currently transferring data to/from it — "a rank that is being
        accessed by the host cannot at the same time serve NDA requests".
        """
        if now != self._cycle:
            self._cycle = now
            self._host_issued_this_cycle.clear()
        elif (channel, rank) in self._host_issued_this_cycle:
            return False
        # The host occupies the rank in its command-cycle window or data burst.
        state = self._rank_states[channel * self._ranks_per_channel + rank]
        if (state.busy_until > now
                or state.data_busy_from <= now < state.data_busy_until):
            return False
        # A due refresh outranks NDA work: pausing lets the rank's bank
        # precharge horizons settle so the channel's refresh precharges and
        # REF become legal (the REF's tRFC window then blocks NDA commands
        # through the ordinary timing path, and the REF issue itself arrives
        # as a host-issue notification that reschedules the NDA unit).
        return not (self._refresh_enabled and state.refresh_due <= now)

    def host_pending_to_bank(self, channel: int, rank: int, flat_bank: int) -> bool:
        """Whether the host has a queued request to the given bank.

        NDA row commands (ACT/PRE) yield to pending host requests targeting
        the same bank, so an NDA activation never delays a host row access.
        """
        controller = self.channel_controllers.get(channel)
        if controller is None:
            return False
        banks_per_group = self.dram.org.banks_per_group
        return controller.pending_to_bank(rank, flat_bank // banks_per_group,
                                          flat_bank % banks_per_group)
