"""Engine components adapting the Chopim subsystems to the event protocol.

Each adapter wraps one slice of the legacy ``ChopimSystem.step`` body and is
one *schedulable unit* of the selective-wake engine: it computes its own
wake-up, owns one slot of the engine's wake calendar, and pushes dirty
notifications through the :class:`~repro.engine.core.WakeHub` when its
actions could move *another* unit's wake-up earlier.  The NDA subsystem is
split into one unit per rank controller plus the NDA host, so a processed
cycle touches only the ranks that can actually act.

Driven by the :class:`~repro.engine.core.CycleEngine` (broadcast, every
cycle) the adapters reproduce the original loop verbatim; under the
:class:`~repro.engine.core.EventEngine` only due-or-dirty units run.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.engine.core import WakeHub
from repro.engine.queue import INFINITY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.system import ChopimSystem


class ChannelComponent:
    """One host memory controller (plus its refresh duties).

    Dirty notifications pushed: a command issue is reported to the
    concurrent-access scheduler (which dirties the issued-to rank's NDA
    unit), and — because an issued RD/WR frees a queue entry — the host unit
    (back-pressured cores can retry) and the NDA host unit (stuck launch
    packets can retry) when either has something waiting.  Timed request
    completions are scheduled into the host unit's completion calendar
    (``completion_sink``) rather than delivered from channel wakes.
    """

    #: advance() is a no-op; the engine skips it (see SimulationEngine).
    needs_advance = False

    def __init__(self, system: "ChopimSystem", channel: int) -> None:
        self.system = system
        self.channel = channel
        self.controller = system.channel_controllers[channel]
        self.unit_label = f"channel{channel}"
        self._hub: Optional[WakeHub] = None
        self._host_slot = -1
        self._nda_host_slot = -1

    def register(self, hub: WakeHub, slot: int) -> None:
        self._hub = hub

    def bind_targets(self, host_slot: int, nda_host_slot: int) -> None:
        self._host_slot = host_slot
        self._nda_host_slot = nda_host_slot

    def next_event_cycle(self, now: int) -> int:
        return self.controller.next_event_cycle(now)

    def post_run_wake(self, now: int) -> int:
        """O(1) calendar refresh after a run (no FR-FCFS probe needed)."""
        return self.controller.wake_after_tick(now)

    def on_wake(self, now: int) -> None:
        controller = self.controller
        system = self.system
        controller.tick(now)
        if controller.last_issue_cycle == now:
            system.scheduler.note_host_issue(
                self.channel, controller.last_issue_rank, now
            )
            hub = self._hub
            if system._host_component.backlog_requests:
                hub.dirty(self._host_slot)
            nda_host = system.nda_host
            if nda_host is not None and nda_host._pending_packets:
                hub.dirty(self._nda_host_slot)

    def advance(self, stop: int) -> None:
        """Channel state is purely event-driven; nothing accrues per cycle."""


class HostComponent:
    """All host cores plus the per-core back-pressure backlogs.

    Cores retire instructions on *every* cycle, so they are advanced lazily:
    each core carries a cursor of the next un-ticked cycle, and the batched
    fixed-point arithmetic of ``CoreModel.tick_dram`` makes any catch-up
    bit-identical to per-cycle ticking.  A core is synced exactly when its
    deferred span could matter:

    * just before a demand-read completion is delivered to it
      (:meth:`deliver_completion` — the completion mutates core state, so
      the arithmetic up to the delivery cycle must be settled first);
    * at the start of its :meth:`on_wake` handling on cycles the unit runs
      (live request emission and backlog retries need the core at ``now``);
    * at :meth:`advance` time (the engine's end-of-run flush).

    Unlike the broadcast engine, no per-cycle catch-up happens: a core that
    neither completes nor emits is pure arithmetic and stays deferred for
    the whole span.  Absolute next-request cycles are cached against the
    core's event counter — between misses and completions a core evolves
    deterministically from its cursor, so the cached cycle stays valid no
    matter how far the cursor lags.

    Wake sources beyond the cores' own next-request cycles: a backlogged
    request whose target queue has space wakes the unit immediately; a
    backlogged request facing a full queue contributes nothing (the blocking
    channel dirties this unit when it issues and frees an entry).

    The unit also owns the **completion calendar**: channel controllers
    schedule every timed request completion here (``schedule_completion``,
    wired as each controller's ``completion_sink``), and the unit delivers
    the due prefix — in (cycle, schedule-order) order, which equals the
    legacy per-channel collection order — at the start of its wake.  The
    host's wake is therefore computed from the outstanding-completion
    horizon directly; completions no longer force controller wakes, and no
    per-delivery dirty notification exists at all (deliveries happen inside
    this unit's own wake).
    """

    #: Cores are synced at their own trigger points, not once per processed
    #: cycle; the engine only calls advance() at flush time.
    needs_advance = False
    needs_flush = True
    unit_label = "host"
    STATE = ("_cursors", "_completions", "_completion_seq",
             "completion_bound", "backlog_requests")
    DERIVED = ("system", "_wake_cache", "_hub", "_slot", "_published_wake",
               "_published_core_min", "_delivered_cores")

    def __init__(self, system: "ChopimSystem") -> None:
        self.system = system
        count = len(system.cores)
        self._cursors: List[int] = [0] * count
        self._wake_cache: List[Tuple[int, int]] = [(-1, 0)] * count
        self._hub: Optional[WakeHub] = None
        self._slot = -1
        #: Outstanding-completion calendar: (cycle, seq, request, controller)
        #: heap entries, delivered at the due cycle during on_wake.
        self._completions: List[Tuple[int, int, object, object]] = []
        self._completion_seq = 0
        #: The wake this unit last published to the calendar; INFINITY until
        #: the first poll so early schedule_completion calls always dirty.
        self._published_wake = INFINITY
        #: Min next-request cycle over non-backlogged cores as of the last
        #: poll (valid between core events — wakes are event-count-cached),
        #: and the cores completions were delivered to this wake: together
        #: they prove most completion-only wakes need no core sweep at all.
        self._published_core_min = -1
        self._delivered_cores: List[int] = []
        #: Exclusive ceiling for eager completion application — the current
        #: run's target, set by ``ChopimSystem.run``.  Completions at or
        #: beyond it stay pending, exactly as the per-cycle loop leaves
        #: them, so cores never sync past the measurement window.
        self.completion_bound = 0
        #: Requests sitting in per-core backlogs (O(1) "anyone waiting?"
        #: check for the channels' issue-time notification).
        self.backlog_requests = 0

    def register(self, hub: WakeHub, slot: int) -> None:
        self._hub = hub
        self._slot = slot

    def save_refs(self, refs) -> Dict[str, object]:
        # The heap list as is: its order is the delivery order's tie-break.
        return {"_completions": [
            (cycle, seq, refs.request(request), controller.channel)
            for cycle, seq, request, controller in self._completions]}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        controllers = self.system.channel_controllers
        self._completions = [
            (cycle, seq, refs.requests[request_id], controllers[channel])
            for cycle, seq, request_id, channel in saved.pop("_completions")]

    def schedule_completion(self, cycle: int, request, controller) -> None:
        """Schedule a timed request completion (a controller's sink hook).

        Called at issue time, so ``cycle`` is strictly in the future.  The
        unit's published calendar entry may lie beyond it (or at INFINITY
        when every core is blocked on outstanding misses), in which case
        the slot is dirtied so the engine re-reads the horizon; otherwise
        the already-scheduled wake covers it and no notification is needed.
        """
        seq = self._completion_seq
        self._completion_seq = seq + 1
        heappush(self._completions, (cycle, seq, request, controller))
        if cycle < self._published_wake:
            self._hub.dirty(self._slot)

    def _core_wake(self, index: int) -> int:
        core = self.system.cores[index]
        version = core.event_count
        cached_version, cached_wake = self._wake_cache[index]
        if cached_version == version:
            return cached_wake
        cycles = core.next_request_dram_cycles()
        wake = INFINITY if cycles is None else self._cursors[index] + cycles - 1
        self._wake_cache[index] = (version, wake)
        return wake

    def next_event_cycle(self, now: int) -> int:
        system = self.system
        controllers = system.channel_controllers
        backlogs = system._core_backlog
        heap = self._completions
        cores = range(len(system.cores))
        while True:
            core_min = INFINITY
            for index in cores:
                backlog = backlogs[index]
                if backlog:
                    # Backlogged cores cannot enqueue until a queue frees
                    # up; if the head request fits now, retry immediately,
                    # otherwise wait for the blocking channel's issue
                    # notification.
                    request = backlog[0]
                    if controllers[request.addr.channel].can_accept(
                            request.is_write):
                        self._published_wake = now
                        return now
                    continue
                candidate = self._core_wake(index)
                if candidate < core_min:
                    core_min = candidate
            if heap and heap[0][0] < core_min:
                entry = heap[0]
                if entry[2].core_id >= 0:
                    if entry[0] < self.completion_bound:
                        # A demand-read completion strictly before any
                        # possible emission: apply it *now* — the delivery
                        # syncs the core to the completion cycle and lands
                        # on exactly the state per-cycle execution would
                        # have had, and no observable event can occur in
                        # between — then re-derive the emission horizon
                        # from the unblocked state.  This is what lets
                        # completion-only cycles go unprocessed.
                        heappop(heap)
                        self._finish_completion(entry[0], entry[2], entry[3])
                        continue
                    # Beyond the current run: stays pending, like the
                    # per-cycle loop leaves it.
                else:
                    # Launch-packet completions feed other units on their
                    # exact cycle; keep a processed wake for them.
                    core_min = entry[0]
            break
        self._published_core_min = core_min
        wake = core_min if core_min > now else now
        self._published_wake = wake
        return wake

    def _sync_core(self, index: int, stop: int) -> None:
        """Settle one core's deferred arithmetic up to (excluding) ``stop``."""
        cursor = self._cursors[index]
        if cursor >= stop:
            return
        core = self.system.cores[index]
        requests = core.tick_dram(stop - cursor)
        self._cursors[index] = stop
        if requests:
            backlog = self.system._core_backlog[index]
            # The wake contract guarantees requests only appear in a
            # deferred span when the backlog is non-empty, in which case the
            # per-cycle loop would have appended them without an enqueue
            # attempt (see on_wake below).
            assert backlog, (
                "core generated a request inside a fast-forwarded window"
            )
            self.backlog_requests += len(requests)
            for phys, is_write in requests:
                backlog.append(
                    self.system._make_host_request(core, phys, is_write)
                )

    def deliver_completion(self, index: int, phys: int, cycle: int) -> None:
        """Deliver a demand-read completion (the request's on_complete hook).

        The core is synced to the delivery cycle *first*, so the completion
        lands on exactly the state the per-cycle loop would have had.
        Deliveries happen inside this unit's own wake (the completion
        calendar drives it), so no dirty notification is needed — the
        engine re-polls a ran unit before its next scheduling decision.
        """
        self._sync_core(index, cycle)
        self.system.cores[index].notify_completion(phys)
        self._delivered_cores.append(index)

    def _finish_completion(self, cycle: int, request, controller) -> None:
        """Deliver one scheduled completion at its (simulated) cycle."""
        controller.inflight_completions -= 1
        request.complete(cycle)
        if not request.is_write:
            controller.read_latency.add(
                request.completed_cycle - request.arrival_cycle)

    def _deliver_due_completions(self, now: int) -> None:
        heap = self._completions
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            self._finish_completion(entry[0], entry[2], entry[3])

    def _sweep_needed(self, now: int) -> bool:
        """Whether this wake must run the full core sweep.

        True when a backlog retry is possible, some core's cached wake is
        due, or a just-delivered completion moved a core's emission to
        ``now`` — otherwise (the common completion-only wake) every core is
        provably pure deferred arithmetic this cycle.
        """
        if self.backlog_requests:
            return True
        if self._published_core_min <= now:
            return True
        delivered = self._delivered_cores
        if delivered:
            for index in delivered:
                if self._core_wake(index) <= now:
                    return True
        return False

    def advance(self, stop: int) -> None:
        # Apply elapsed demand-read completions first (in schedule order):
        # the final core sync must observe every delivery that per-cycle
        # execution would have made before ``stop``.  Packet completions
        # cannot be pending below ``stop`` — their cycles clamp this unit's
        # published wake, so the engine processed them.
        heap = self._completions
        while heap and heap[0][0] < stop and heap[0][2].core_id >= 0:
            entry = heappop(heap)
            self._finish_completion(entry[0], entry[2], entry[3])
        for index in range(len(self.system.cores)):
            self._sync_core(index, stop)

    def on_wake(self, now: int) -> None:
        system = self.system
        del self._delivered_cores[:]
        if self._completions:
            self._deliver_due_completions(now)
        if not self._sweep_needed(now):
            return
        for index, core in enumerate(system.cores):
            backlog = system._core_backlog[index]
            if not backlog and self._core_wake(index) > now:
                # Neither retrying nor emitting this cycle: the core is pure
                # deferred arithmetic — leave it to the next sync point
                # instead of paying a catch-up call per processed wake.
                continue
            self._sync_core(index, now)
            # Back-pressure: retry requests the controller rejected earlier.
            while backlog:
                request = backlog[0]
                if system.channel_controllers[request.addr.channel].enqueue(
                        request, now):
                    backlog.popleft()
                    self.backlog_requests -= 1
                else:
                    break
            if self._cursors[index] > now:
                continue  # already ticked live this cycle
            if self._core_wake(index) <= now:
                # This cycle's tick emits at least one request: run it live
                # so enqueue (or backlog append) happens on the right cycle.
                self._cursors[index] = now + 1
                for phys, is_write in core.tick_dram(1):
                    request = system._make_host_request(core, phys, is_write)
                    controller = system.channel_controllers[request.addr.channel]
                    if backlog or not controller.enqueue(request, now):
                        backlog.append(request)
                        self.backlog_requests += 1
            # Otherwise the tick is pure arithmetic; defer it into the next
            # sync batch.


class NdaHostComponent:
    """The host-side NDA controller: workload relaunch + launch processing.

    Wake sources: a queued operation with no blocking launch in flight, a
    pending relaunch (``ChopimSystem._relaunch_pending``), or a pending
    launch packet whose channel write queue has space.  Externally dirtied
    by ``NdaHostController.submit`` (new operations), by rank units when an
    instruction completes (operations finish / ``idle`` flips, enabling the
    next launch or a relaunch), and by channels when an issue may have freed
    write-queue space for a stuck packet.
    """

    #: advance() is a no-op; the engine skips it (see SimulationEngine).
    needs_advance = False
    unit_label = "nda_host"

    def __init__(self, system: "ChopimSystem") -> None:
        self.system = system
        self.nda_host = system.nda_host

    def next_event_cycle(self, now: int) -> int:
        wake = self.nda_host.next_event_cycle(now)
        if wake > now and self.system._relaunch_pending():
            return now
        return wake if wake > now else now

    def on_wake(self, now: int) -> None:
        self.system._maybe_relaunch_workload()
        self.nda_host.tick(now)

    def advance(self, stop: int) -> None:
        """NDA launch state is purely event-driven; nothing accrues per cycle."""


class NdaRankComponent:
    """One rank's NDA memory controller (plus its PE group).

    The rank controller's ``next_event_cycle`` composes DRAM timing horizons
    with the rank's host-free windows; host commands only push those later,
    so a cached wake can go stale early but never late.  The one external
    event that can move a rank's eligibility *earlier* — a host command
    changing the rank's bank state (shared-bank modes, refresh precharges) —
    arrives as a dirty notification from the concurrent-access scheduler's
    issue hook.  Work delivery (``NdaRankController.enqueue``) dirties the
    unit through the controller's ``wake_listener`` so freshly delivered
    instructions can start on their delivery cycle.

    With bursting enabled (event engine, ``REPRO_DISABLE_BURST`` unset), a
    processed wake ends by planning the controller's next steady-state
    command streak; the unit then parks its calendar entry at the burst
    horizon and its commands are settled lazily (see ``nda/controller.py``).
    A wake that arrives while a plan is live (the horizon itself, or an
    early dirty re-poll such as the broadcast ``step`` path) first settles
    the elapsed prefix and drops the rest, so per-cycle processing always
    resumes from exactly the state the plan represented.
    """

    #: advance() is a no-op per processed cycle, but run-boundary flushes
    #: must settle any live burst plan up to the flush target.
    needs_advance = False
    needs_flush = True
    #: Set by the system when the burst-issue fast path is active.
    burst_enabled = False

    def __init__(self, system: "ChopimSystem", key: Tuple[int, int],
                 controller) -> None:
        self.system = system
        self.key = key
        self.controller = controller
        self.unit_label = f"nda_c{key[0]}r{key[1]}"
        self._hub: Optional[WakeHub] = None
        self._nda_host_slot = -1

    def register(self, hub: WakeHub, slot: int) -> None:
        self._hub = hub

    def bind_targets(self, nda_host_slot: int) -> None:
        self._nda_host_slot = nda_host_slot

    def next_event_cycle(self, now: int) -> int:
        return self.controller.next_event_cycle(now)

    def on_wake(self, now: int) -> None:
        controller = self.controller
        if controller.burst_class is not None:
            # Burst horizon reached (all commands elapsed → counted as a
            # completed burst) or an early wake interleaved — either way the
            # remainder is re-decided per cycle from the settled state.
            controller.stop_burst(now, "wake")
        channel, rank = self.key
        if self.system.scheduler.nda_may_issue(channel, rank, now):
            controller.try_issue(now)
        completed = controller.instructions_completed
        controller.post_cycle(now)
        if controller.instructions_completed != completed:
            # The finished instruction may complete an operation (unblocking
            # the next launch) or leave every rank idle (enabling relaunch).
            self._hub.dirty(self._nda_host_slot)
        elif self.burst_enabled:
            # Steady state persists: plan the next streak (starting strictly
            # after this cycle); the post-run re-poll parks the calendar at
            # the burst horizon.  Completion cycles never plan — the next
            # instruction's first commands go through the per-cycle path.
            controller.plan_burst(now)

    def advance(self, stop: int) -> None:
        """Settle any live burst plan up to ``stop`` (run-boundary flush).

        Full settlement — timing *and* deferred accounting — because flush
        boundaries feed results and measurement resets.
        """
        self.controller.stop_burst(stop)


class StatsComponent:
    """Windowed simulation statistics (rank busy/idle accounting).

    Fully lazy: per-rank busy/idle runs are reconstructed from the DRAM
    timing state just before that state mutates (via the timing engine's
    ``busy_observer`` hook), and the global cycle count advances in O(1) per
    processed cycle.  This is bit-identical to observing every cycle: a
    rank's busy predicate over a window is frozen between mutations of its
    timing state, and ``host_busy_runs`` enumerates exactly the per-cycle
    values the legacy loop observed.  As a pure observer it never wakes
    (its calendar entry stays at ``INFINITY``) and needs no notifications.
    The O(1) global cycle count stays in the per-cycle advance path: the
    ``step()``-driven runtime API never flushes, so accrual must not be
    deferred to flush time.
    """

    unit_label = "stats"
    STATE = ("_cursor", "_rank_cursors")
    DERIVED = ("system",)
    #: The global cycle count is cursor-based and idempotent, so the
    #: selective engine defers it to flush time; the broadcast engines keep
    #: the per-cycle advance (the ``step()``-driven runtime never flushes).
    advance_deferrable = True

    def __init__(self, system: "ChopimSystem") -> None:
        self.system = system
        self._cursor = 0
        self._rank_cursors: Dict[Tuple[int, int], int] = {
            key: 0 for key in system.stats.rank_trackers
        }
        system.dram.timing.busy_observer = self._on_busy_mutation

    def _on_busy_mutation(self, channel: int, rank: int, now: int) -> None:
        key = (channel, rank)
        cursor = self._rank_cursors[key]
        if cursor >= now:
            return
        tracker = self.system.stats.rank_trackers.get(key)
        if tracker is not None:
            timing = self.system.dram.timing
            uniform = timing.host_busy_span(channel, rank, cursor, now)
            if uniform is not None:
                tracker.observe_run(uniform, now - cursor)
            else:
                for busy, count in timing.host_busy_runs(
                        channel, rank, cursor, now):
                    tracker.observe_run(busy, count)
        self._rank_cursors[key] = now

    def next_event_cycle(self, now: int) -> int:
        return INFINITY  # a pure observer never forces a wake-up

    def advance(self, stop: int) -> None:
        if stop > self._cursor:
            self.system.stats.cycles_observed += stop - self._cursor
            self._cursor = stop

    def on_wake(self, now: int) -> None:
        """Observation is mutation-driven; nothing to do per cycle."""

    def flush_trackers(self, stop: int) -> None:
        """Bring every rank tracker up to ``stop`` (pre-result / pre-reset)."""
        stats = self.system.stats
        for key, cursor in self._rank_cursors.items():
            if cursor >= stop:
                continue
            tracker = stats.rank_trackers.get(key)
            if tracker is not None:
                for busy, count in self.system.dram.host_busy_runs(
                        key[0], key[1], cursor, stop):
                    tracker.observe_run(busy, count)
            self._rank_cursors[key] = stop

    def on_measurement_reset(self, now: int) -> None:
        """Re-anchor all observation cursors at the warm-up boundary."""
        self._cursor = now
        for key in self._rank_cursors:
            self._rank_cursors[key] = now


__all__ = [
    "ChannelComponent",
    "HostComponent",
    "NdaHostComponent",
    "NdaRankComponent",
    "StatsComponent",
]
