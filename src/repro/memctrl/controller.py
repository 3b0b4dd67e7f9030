"""Per-channel host memory controller.

Implements the paper's host memory controller configuration (Table II):
FR-FCFS scheduling, 32-entry read and write queues, open-page row policy and
write draining with high/low watermarks.  The controller issues at most one
DRAM command per cycle over the channel's command/address bus and exposes the
queue state the NDA-side next-rank predictor inspects (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SchedulerConfig
from repro.dram.commands import Command, CommandType, DramAddress, RequestSource
from repro.dram.device import DramSystem
from repro.memctrl.frfcfs import NO_EVENT, FrFcfsScheduler
from repro.memctrl.request import MemoryRequest, RequestQueue
from repro.utils.stats import Counter, WindowedStat


@dataclass
class _PendingCompletion:
    STATE = ("cycle", "request")

    cycle: int
    request: MemoryRequest


#: Counter labels per issued command kind, precomputed once — the hot path
#: used to pay an f-string format per issued command.
_CMD_COUNTER_LABELS = {kind: f"cmd_{kind.name.lower()}" for kind in CommandType}


class ChannelController:
    """FR-FCFS memory controller for one channel."""

    STATE = ("read_queue", "write_queue", "_completions", "_completions_min",
             "inflight_completions", "_draining_writes",
             "_last_issue_was_write", "last_issue_cycle", "last_issue_rank",
             "last_tick_cycle", "published_wake", "_issue_hint")
    COUNTERS = ("counters", "read_latency")
    DERIVED = ("channel", "dram", "config", "scheduler", "_drain_high_len",
               "_drain_low_len", "completion_sink", "_scan_cache_read",
               "_scan_cache_write", "wake_listener", "burst_settler",
               "read_queue_listener", "bank_demand_listener")

    def __init__(self, channel: int, dram: DramSystem,
                 config: Optional[SchedulerConfig] = None) -> None:
        self.channel = channel
        self.dram = dram
        self.config = config or SchedulerConfig()
        self.read_queue = RequestQueue(self.config.read_queue_entries)
        self.write_queue = RequestQueue(self.config.write_queue_entries)
        self.scheduler = FrFcfsScheduler(dram)
        # Integer occupancy thresholds with semantics identical to the
        # float comparisons they replace (computed by evaluating the exact
        # original expression for every possible length).
        capacity = self.config.write_queue_entries
        high = self.config.write_drain_high_watermark
        low = self.config.write_drain_low_watermark
        self._drain_high_len = next(
            (k for k in range(capacity + 1) if k / capacity >= high),
            capacity + 1)
        self._drain_low_len = max(
            (k for k in range(capacity + 1) if k / capacity <= low),
            default=-1)
        self.counters = Counter()
        self.read_latency = WindowedStat()
        self._completions: List[_PendingCompletion] = []
        # Earliest pending completion cycle (NO_EVENT when none): lets the
        # per-cycle paths skip scanning the completion list.
        self._completions_min = NO_EVENT
        #: When set (by the system), pending completions are scheduled into
        #: the host unit's completion calendar instead of this controller's
        #: list: deliveries stop forcing controller wakes, and the host unit
        #: wakes at the outstanding-completion horizon.  Invoked as
        #: ``completion_sink(cycle, request, self)``.  ``None`` (standalone
        #: controller use) keeps the internal list.
        self.completion_sink: Optional[
            Callable[[int, MemoryRequest, "ChannelController"], None]] = None
        #: Pending completions handed to the sink and not yet delivered
        #: (keeps the ``outstanding`` introspection exact).
        self.inflight_completions = 0
        self._draining_writes = False
        self._last_issue_was_write = False
        #: (cycle, rank) of the most recent command issued on this channel;
        #: the concurrent-access scheduler uses it to gate NDA issue.
        self.last_issue_cycle: int = -1
        self.last_issue_rank: int = -1
        #: Cycle of the most recent tick, and the wake this controller last
        #: published to the engine's calendar — both used to elide redundant
        #: enqueue-time dirty notifications (see :meth:`enqueue`).
        self.last_tick_cycle: int = -1
        self.published_wake: int = NO_EVENT
        #: Lower bound on the next cycle a *queued request* could issue.
        #: Set to "next cycle" on any enqueue or issue, and to the exact
        #: scan-derived horizon when a full FR-FCFS scan finds nothing
        #: issuable.  External DRAM activity (NDA commands, refresh) pushes
        #: timing constraints later, so a stale hint is early — which costs
        #: a no-op wake, never a missed event — with one exception: an NDA
        #: WR to another bank group replaces the rank's last write and pulls
        #: a host RD's turnaround from tWTR_L to tWTR_S (the tWTR_L hole,
        #: pinned as xfails in tests/test_dram_timing.py), so a hint taken
        #: before it can be late.  Both engines keep the same hint, so they
        #: still agree.
        self._issue_hint: int = 0
        # Memoized FR-FCFS scans, one slot per queue: (cycle, queue version,
        # channel DRAM version, choice, horizon, choice_at_horizon).  A scan
        # is a pure function of (queue contents+order, channel bank/timing
        # state, cycle); the versions cover every mutation path, so the
        # event engine's wake probe and the same cycle's tick share one
        # scan — and an empty probe's at-horizon lookahead lets the tick at
        # the horizon issue without re-scanning at all.
        self._scan_cache_read = (-1, -1, -1, None, 0, None)
        self._scan_cache_write = (-1, -1, -1, None, 0, None)
        #: Selective-wake notification: invoked when a request is accepted
        #: into a queue, so the engine re-polls this channel's unit (the
        #: issue hint just moved to "next cycle") instead of polling every
        #: channel every cycle.
        self.wake_listener: Optional[Callable[[], None]] = None
        #: Burst-issue settlement hook: invoked with a boundary cycle before
        #: this controller reads or mutates DRAM timing state (FR-FCFS
        #: scans, refresh/request issues), so lazily-planned NDA command
        #: bursts on this channel's ranks are applied up to (excluding) the
        #: boundary first.  ``None`` when bursting is disabled.
        self.burst_settler: Optional[Callable[[int], None]] = None
        #: Burst truncation hook: invoked with the mutation cycle whenever
        #: the read queue changes (enqueue or issue) — the next-rank write
        #: throttle reads the oldest queued read, so planned NDA bursts on
        #: this channel that embed its decisions must fall back to
        #: per-cycle decisions.
        self.read_queue_listener: Optional[Callable[[int], None]] = None
        #: Burst truncation hook: invoked with the cycle and address of
        #: every accepted request — NDA row commands yield to pending host
        #: requests on their bank, so a planned NDA burst that counts on
        #: one staying blocked by timing alone must fall back.
        self.bank_demand_listener: Optional[
            Callable[[int, DramAddress], None]] = None

    # ------------------------------------------------------------------ #
    # Enqueue interface (used by the host model and the runtime)
    # ------------------------------------------------------------------ #

    def can_accept(self, is_write: bool) -> bool:
        queue = self.write_queue if is_write else self.read_queue
        return not queue.full

    def enqueue(self, request: MemoryRequest, now: int) -> bool:
        """Add a request; returns False (request rejected) when the queue is full."""
        if request.addr.channel != self.channel:
            raise ValueError(
                f"request for channel {request.addr.channel} sent to controller "
                f"{self.channel}"
            )
        queue = self.write_queue if request.is_write else self.read_queue
        if queue.full:
            self.counters.add("queue_full_rejects")
            return False
        request.arrival_cycle = now
        if request.is_read:
            # Read forwarding from a queued write to the same line.
            forward = self.write_queue.find_write_to(request.addr)
            if forward is not None:
                self.counters.add("read_forwards")
                request.complete(now)
                return True
        queue.push(request)
        self.counters.add("write_enqueued" if request.is_write else "read_enqueued")
        if request.is_read:
            listener = self.read_queue_listener
            if listener is not None:
                listener(now)
        listener = self.bank_demand_listener
        if listener is not None:
            listener(now, request.addr)
        # Settle the drain-mode hysteresis for the new queue state (see
        # _update_drain_mode: one evaluation per length state keeps the
        # selective engine's mode trajectory identical to per-cycle ticking).
        self._update_drain_mode()
        self._issue_hint = now + 1
        listener = self.wake_listener
        if listener is not None:
            # The dirty notification is redundant when this controller
            # already ticked this cycle (the engine's post-run refresh
            # re-probes with the new queue) or its published wake is due by
            # the hint cycle anyway — the wake contract stays never-late and
            # each elided dirty saves a full FR-FCFS re-probe.
            if self.last_tick_cycle != now and self.published_wake > now + 1:
                listener()
        return True

    # ------------------------------------------------------------------ #
    # Queries used by the NDA controllers (next-rank prediction)
    # ------------------------------------------------------------------ #

    def oldest_pending_read_rank(self) -> Optional[int]:
        """Rank targeted by the oldest queued read, if any (Section III-B)."""
        oldest = self.read_queue.oldest()
        if oldest is None:
            return None
        return oldest.addr.rank

    def pending_to_bank(self, rank: int, bank_group: int, bank: int) -> bool:
        """Whether either queue holds a request for the given bank (O(1))."""
        return (self.read_queue.has_bank(rank, bank_group, bank)
                or self.write_queue.has_bank(rank, bank_group, bank))

    @property
    def queued_reads(self) -> int:
        return len(self.read_queue)

    @property
    def queued_writes(self) -> int:
        return len(self.write_queue)

    # ------------------------------------------------------------------ #
    # Cycle advance
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> List[MemoryRequest]:
        """Advance one DRAM cycle; returns requests that completed this cycle."""
        self.last_tick_cycle = now
        settler = self.burst_settler
        if settler is not None:
            # Planned NDA commands strictly before ``now`` happened (in rank
            # slots that precede this tick); apply them before any scan or
            # issue reads the rank's timing state.
            settler(now)
        completed = self._collect_completions(now)
        if self._issue_refresh_if_due(now):
            return completed
        self._update_drain_mode()
        if self._issue_hint > now:
            # No queued request can issue before the hint (enqueues and
            # issues reset it to "next cycle"; external DRAM activity pushes
            # constraints later, except across the tWTR_L hole noted at
            # _issue_hint), so the FR-FCFS scan would come up empty — skip
            # it.  Keeping the possibly conservative hint costs at most a
            # future no-op scan.
            return completed
        request_cmd, horizon = self._pick(now)
        if request_cmd is not None:
            request, cmd = request_cmd
            self._issue_for_request(request, cmd, now)
        else:
            # Full scan found nothing issuable: the horizon is an exact
            # lower bound on the next request-issue opportunity.
            self._issue_hint = max(now + 1, horizon)
        return completed

    # -- internals -------------------------------------------------------- #

    def _collect_completions(self, now: int) -> List[MemoryRequest]:
        if now < self._completions_min:
            return []
        done = [p.request for p in self._completions if p.cycle <= now]
        if done:
            remaining = [p for p in self._completions if p.cycle > now]
            self._completions = remaining
            self._completions_min = (min(p.cycle for p in remaining)
                                     if remaining else NO_EVENT)
            for request in done:
                request.complete(now)
                if request.is_read:
                    self.read_latency.add(request.completed_cycle - request.arrival_cycle)
        return done

    def _add_completion(self, cycle: int, request: MemoryRequest) -> None:
        sink = self.completion_sink
        if sink is not None:
            self.inflight_completions += 1
            sink(cycle, request, self)
            return
        self._completions.append(_PendingCompletion(cycle, request))
        if cycle < self._completions_min:
            self._completions_min = cycle

    def _issue_refresh_if_due(self, now: int) -> bool:
        """Handle refresh for any rank of this channel that is due."""
        if not self.config.refresh_enabled:
            return False
        if now < self.dram.timing.channel_min_refresh_due(self.channel):
            return False
        for rank in range(self.dram.org.ranks_per_channel):
            if not self.dram.refresh_due(self.channel, rank, now):
                continue
            # All banks must be precharged before REF.
            for bank in self.dram.banks_of_rank(self.channel, rank):
                if bank.is_open():
                    addr = DramAddress(self.channel, rank, bank.bank_group,
                                       bank.bank, bank.open_row or 0, 0)
                    if self.dram.can_issue_at(CommandType.PRE, addr,
                                              RequestSource.HOST, now):
                        cmd = Command(CommandType.PRE, addr, RequestSource.HOST)
                        self.dram.issue_trusted(cmd, now)
                        self._note_issue(now, rank)
                        self.counters.add("refresh_precharges")
                        return True
                    return False  # wait for the precharge to become legal
            addr = DramAddress(self.channel, rank, 0, 0, 0, 0)
            if self.dram.can_issue_at(CommandType.REF, addr,
                                      RequestSource.HOST, now):
                cmd = Command(CommandType.REF, addr, RequestSource.HOST)
                self.dram.issue_trusted(cmd, now)
                self._note_issue(now, rank)
                self.counters.add("refreshes")
                return True
            return False
        return False

    def _update_drain_mode(self) -> None:
        """One step of the write-drain hysteresis for the current lengths.

        The legacy loop ran this every cycle; queue lengths only change on
        enqueue and issue, and one evaluation per length state reaches the
        same mode the per-cycle evaluation would (states with both the
        entry and exit condition true — an empty read queue with few
        writes — oscillate under per-cycle evaluation, but the pick and
        horizon are mode-insensitive there and every exit from such a
        state forces one deterministic value).  Evaluating at every
        mutation point (enqueue, request issue) plus tick time therefore
        keeps the selective-wake engine — which does not tick provably
        idle cycles — bit-exact with the cycle engine even though it
        evaluates the hysteresis far less often.
        """
        writes = len(self.write_queue)
        if not self._draining_writes:
            if (writes >= self._drain_high_len
                    or (writes and not self.read_queue)):
                self._draining_writes = True
                self.counters.add("drain_entries")
        else:
            if writes <= self._drain_low_len or not writes:
                self._draining_writes = False

    def _scan(self, queue: RequestQueue, now: int,
              ) -> Tuple[Optional[Tuple[MemoryRequest, Command]], int]:
        """Memoized FR-FCFS scan of one queue (see ``_scan_cache_*``)."""
        cache = (self._scan_cache_write if queue is self.write_queue
                 else self._scan_cache_read)
        dram_version = self.dram.channel_issue_version[self.channel]
        if cache[1] == queue.version and cache[2] == dram_version:
            if cache[0] == now:
                return cache[3], cache[4]
            if cache[3] is None and cache[0] < now:
                # An empty-handed scan stays valid until its horizon: with
                # queue and channel DRAM state unchanged, every request's
                # absolute earliest-issue cycle is unchanged, and all of
                # them lie at or beyond the horizon.
                if now < cache[4]:
                    return None, cache[4]
                # At the horizon itself the scan's lookahead already knows
                # the FR-FCFS winner (state unchanged by the version check).
                if now == cache[4] and cache[5] is not None:
                    return cache[5], NO_EVENT
        choice, horizon, future = self.scheduler._select_bucketed(queue, now)
        entry = (now, queue.version, dram_version, choice, horizon, future)
        if queue is self.write_queue:
            self._scan_cache_write = entry
        else:
            self._scan_cache_read = entry
        return choice, horizon

    def _pick(self, now: int,
              ) -> Tuple[Optional[Tuple[MemoryRequest, Command]], int]:
        primary, secondary = (
            (self.write_queue, self.read_queue) if self._draining_writes
            else (self.read_queue, self.write_queue)
        )
        choice, primary_horizon = self._scan(primary, now)
        if choice is not None:
            return choice, NO_EVENT
        # Serve the other queue opportunistically so the channel is not idle.
        choice, secondary_horizon = self._scan(secondary, now)
        return choice, min(primary_horizon, secondary_horizon)

    def _issue_for_request(self, request: MemoryRequest, cmd: Command,
                           now: int) -> None:
        if not request.outcome_recorded:
            self.dram.record_access_outcome(request.addr, request.is_write,
                                            is_nda=False)
            request.outcome_recorded = True
        # The command comes from this cycle's FR-FCFS scan (the scan cache
        # is version-guarded), so legality was just proven.
        self.dram.issue_trusted(cmd, now)
        self._note_issue(now, cmd.addr.rank)
        self.counters.add(_CMD_COUNTER_LABELS[cmd.kind])
        if cmd.kind is CommandType.RD:
            request.issued_cycle = now
            self.read_queue.remove(request)
            listener = self.read_queue_listener
            if listener is not None:
                listener(now)
            self._add_completion(now + self.dram.read_latency(), request)
            self._last_issue_was_write = False
            self._update_drain_mode()
        elif cmd.kind is CommandType.WR:
            request.issued_cycle = now
            self.write_queue.remove(request)
            # Writes are posted: the transaction is complete once the data
            # has been driven onto the bus.  A plain writeback has no
            # completion observer, so its completion cycle is stamped
            # eagerly instead of scheduling a controller wake for it;
            # requests with an on_complete hook (launch packets) keep the
            # timed delivery.
            if request.on_complete is None:
                request.complete(now + self.dram.write_latency())
            else:
                self._add_completion(now + self.dram.write_latency(), request)
            if not self._last_issue_was_write:
                self.counters.add("read_write_turnarounds")
            self._last_issue_was_write = True
            self._update_drain_mode()

    def _note_issue(self, now: int, rank: int) -> None:
        self.last_issue_cycle = now
        self.last_issue_rank = rank
        # An issue changes queue and DRAM state; be conservative and allow
        # another action next cycle.
        self._issue_hint = now + 1

    # ------------------------------------------------------------------ #
    # Event-engine interface
    # ------------------------------------------------------------------ #

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``tick`` could do anything.

        Combines pending completion deliveries (exact), refresh due times
        (exact) and the queued-request issue hint (never late).  A stale
        hint (``<= now``, left over from the last issue or enqueue) is
        refreshed here with a side-effect-free FR-FCFS probe, so cycles on
        which nothing can issue are skipped instead of ticked.  Cycles
        strictly before the returned value are provably no-ops for this
        controller, so the event engine may skip them.
        """
        wake = self._completions_min
        if self.config.refresh_enabled:
            due = self.dram.timing.channel_min_refresh_due(self.channel)
            if due < wake:
                wake = due
        if self.read_queue or self.write_queue:
            hint = self._issue_hint
            if hint <= now < wake:
                hint = self._probe_issue(now)
            if hint < wake:
                wake = hint
        wake = wake if wake > now else now
        self.published_wake = wake
        return wake

    def wake_after_tick(self, now: int) -> int:
        """Wake-up valid immediately after ``tick(now)``.

        Post-tick the issue hint is fresh except in one case: a tick that
        *issued* reset it to ``now + 1``, which is conservative — after an
        ACT nothing can issue for tRCD cycles, after a column command not
        before the CCD spacing.  That conservative hint used to cost one
        guaranteed no-op wake (tick + empty scan) per issued command, ~45%
        of all channel ticks on the NDA-dense fig14 point.  Here the hint
        is instead refined with the exact scan horizon for ``now + 1``
        (memoized; the scan replaces the one the no-op wake would have
        run), so the provably dead cycles are skipped outright.  Completion
        deliveries and refresh dues are exact O(1) terms as before.  (A
        refresh that is due but blocked on precharge legality clamps to
        ``now + 1``: the controller retries it every cycle, as the
        per-cycle loop did.)
        """
        wake = self._completions_min
        if self.config.refresh_enabled:
            due = self.dram.timing.channel_min_refresh_due(self.channel)
            if due < wake:
                wake = due
        if self.read_queue or self.write_queue:
            hint = self._issue_hint
            if hint <= now + 1 and wake > now + 1:
                hint = self._probe_issue(now + 1)
            if hint < wake:
                wake = hint
        wake = wake if wake > now else now + 1
        self.published_wake = wake
        return wake

    def _probe_issue(self, now: int) -> int:
        """Pure scan: ``now`` if any queued request can issue, else the horizon.

        Mirrors the tick's FR-FCFS selection without issuing or counting;
        used only for wake-up computation.  The refreshed hint stays valid
        until the next enqueue or issue on this channel (both reset it).
        """
        settler = self.burst_settler
        if settler is not None:
            # A probe for cycle ``now`` models the scan that tick(now) would
            # run — which, in slot order, sees every NDA command issued on
            # cycles before ``now``.
            settler(now)
        choice, read_horizon = self._scan(self.read_queue, now)
        if choice is not None:
            return now
        choice, write_horizon = self._scan(self.write_queue, now)
        if choice is not None:
            return now
        self._issue_hint = max(now + 1, min(read_horizon, write_horizon))
        return self._issue_hint

    def save_refs(self, refs) -> Dict[str, object]:
        return {"_completions": [(p.cycle, refs.request(p.request))
                                 for p in self._completions]}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        self._completions = [_PendingCompletion(cycle, refs.requests[rid])
                             for cycle, rid in saved.pop("_completions")]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def outstanding(self) -> int:
        return (len(self.read_queue) + len(self.write_queue)
                + len(self._completions) + self.inflight_completions)

    def busy(self) -> bool:
        return self.outstanding > 0

    def stats(self) -> Dict[str, float]:
        data = dict(self.counters.as_dict())
        data["avg_read_latency"] = self.read_latency.mean
        return data
