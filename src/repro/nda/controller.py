"""Per-rank NDA memory controller.

Each rank's NDA controller executes coarse-grain NDA instructions by
streaming their operands through the rank's banks (PE execution flow of
Figure 9): per 1 KiB-per-chip batch it reads each input operand's row,
stages the result cache lines in the write buffer, and drains the buffer
opportunistically.  The controller issues DRAM commands *locally* (they use
rank-internal bandwidth, not the channel), always defers to host traffic on
its rank, never issues a row command against a bank with pending host
requests, and applies the configured write-throttle policy to drains
(Sections III-B and V).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config import NdaConfig
from repro.dram.bank import BankState
from repro.dram.commands import Command, CommandType, DramAddress, RequestSource
from repro.dram.device import DramSystem
from repro.nda.fsm import ReplicatedFsm
from repro.nda.isa import NdaInstruction
from repro.nda.pe import ProcessingElement
from repro.nda.throttle import IssueIfIdlePolicy, WriteThrottlePolicy
from repro.nda.write_buffer import NdaWriteBuffer

#: Sentinel for "no wake-up needed" horizons (matches the engine's INFINITY).
_NO_EVENT = 1 << 62


class _BurstPlan:
    """A planned steady-state command burst: K column commands at a fixed
    cadence, applied lazily ("settled") in closed form.

    A plan is a pure *schedule* — no simulation state changes when it is
    created.  Commands are applied by :meth:`NdaRankController.settle_burst`
    when (a) an external reader needs the rank's timing state (the owning
    channel settles before every FR-FCFS scan and command issue), (b) the
    engine flushes at a run boundary, or (c) the plan is truncated.  The
    command at index ``i`` issues at cycle ``start + i * step``; ``idx`` is
    the first unsettled index.  ``rows`` holds the non-leading side's
    *absorbed* row commands still to settle, as ``(cycle, Command)`` in cycle
    order; ``due`` is the cycle of the first unsettled command of either
    kind (``_NO_EVENT`` once all have settled).  ``end`` (past the last
    command's cycle: the burst horizon) is the owning unit's calendar wake
    while the plan is live.
    """

    __slots__ = ("cls", "is_write", "start", "step", "count", "idx",
                 "acc_idx", "end", "bank", "bank_index", "bank_group",
                 "stages", "skip_first", "decision", "row_bank", "rows",
                 "due", "parked", "parked_at")

    def __init__(self, cls: str, is_write: bool, start: int, step: int,
                 count: int, end: int, bank, bank_index: int,
                 bank_group: int, stages: bool, skip_first: bool,
                 decision: Optional[bool], row_bank: int,
                 rows: List[Tuple[int, Command]]) -> None:
        #: Plan class (one of :data:`PLAN_CLASSES`), for the diagnostics.
        self.cls = cls
        self.is_write = is_write
        self.start = start
        self.step = step
        self.count = count
        self.idx = 0
        #: Commands whose *accounting* (counters, FSM, staging) has been
        #: applied; timing settlement (``idx``) runs ahead of it — scans
        #: only read timing state, so accounting defers to plan boundaries.
        self.acc_idx = 0
        self.end = end
        self.bank = bank
        self.bank_index = bank_index
        self.bank_group = bank_group
        self.stages = stages
        #: The first command's access was already classified (its PRE/ACT
        #: issued earlier and recorded the row miss/conflict); classification
        #: is per access, so settlement must not re-record it as a hit.
        self.skip_first = skip_first
        #: The throttle decision every planned cycle's drain attempt gets
        #: (``None``: no drain is pending, the throttle is never asked).
        #: Frozen while the plan lives — a read-queue change that flips it
        #: truncates the plan.
        self.decision = decision
        #: Flat in-rank bank the non-leading side's pending row commands
        #: target (-1: none).  Absorbing them, and the proof that the rest
        #: stay futile, assume the host does not want that bank — a host
        #: enqueue to it truncates.
        self.row_bank = row_bank
        self.rows = rows
        self.due = rows[0][0] if rows and rows[0][0] < start else start
        #: Truncation cause of a plan whose wake was pulled in to its next
        #: planned cycle, and the cycle that happened at (see
        #: ``NdaRankController._park_burst``).
        self.parked: Optional[str] = None
        self.parked_at = -1


#: The four plan classes, as keyed in ``burst_stats()["planned_by_class"]``.
PLAN_CLASSES = ("read_streak", "drain_tail", "drain_run", "read_under_drain")


@dataclass
class RankWorkItem:
    """An NDA instruction bound to concrete banks/rows of one rank.

    ``operand_banks``/``operand_base_rows`` give, for every streamed input
    operand, the flat bank index and the starting row; ``output_bank`` and
    ``output_base_row`` locate the result vector (``None`` for reductions).
    ``on_complete`` is invoked with the completion cycle.
    """

    instruction: NdaInstruction
    operand_banks: List[int]
    operand_base_rows: List[int]
    output_bank: Optional[int] = None
    output_base_row: Optional[int] = None
    on_complete: Optional[Callable[[int], None]] = None
    launched_cycle: int = 0
    completed_cycle: Optional[int] = None
    #: Id of the owning :class:`~repro.nda.launch.NdaOperation` (``-1`` for
    #: directly enqueued test work).  Checkpoint restore uses it to rebuild
    #: ``on_complete`` from the operation table.
    operation_id: int = -1


class _ExecutionState:
    """Progress of the work item currently executing on a rank."""

    def __init__(self, work: RankWorkItem, columns_per_row: int) -> None:
        self.work = work
        self.columns_per_row = columns_per_row
        instruction = work.instruction
        self.total_read_columns = instruction.read_cache_blocks
        self.total_write_columns = instruction.write_cache_blocks
        self.reads_issued = 0
        self.writes_staged = 0
        self.writes_drained = 0
        # Index of the last read / drained write whose row-buffer outcome has
        # been classified.  Each access is classified exactly once, at the
        # moment its first DRAM command issues (so the hit/miss/conflict
        # outcome reflects the bank state the access found).
        self.read_classified_idx = -1
        self.write_classified_idx = -1
        # Read phase bookkeeping: operands are streamed one row (batch) at a
        # time, operand after operand within a batch.
        self.num_operands = max(1, len(work.operand_banks))
        per_operand = (self.total_read_columns + self.num_operands - 1) // self.num_operands
        self.columns_per_operand = max(1, per_operand)
        # Decoded targets of the next read access and of the next drain (the
        # write buffer's head), keyed by their cursors: recomputed only when
        # a cursor moves; blocked attempts and wake probes reuse the
        # immutable address.
        self._read_addr_idx = -1
        self._read_addr: Optional[DramAddress] = None
        self._drain_addr_idx = -1
        self._drain_addr: Optional[DramAddress] = None

    # -- reads ------------------------------------------------------------ #

    @property
    def reads_done(self) -> bool:
        return self.reads_issued >= self.total_read_columns

    def next_read(self) -> Tuple[int, int, int]:
        """(flat bank, row, column) of the next read access."""
        # Column index within the whole instruction, mapped to operand and
        # then to (row, column) within the operand's row sequence.
        idx = self.reads_issued
        batch_cols = self.columns_per_row
        batch = idx // (self.num_operands * batch_cols)
        within = idx % (self.num_operands * batch_cols)
        operand = within // batch_cols
        column = within % batch_cols
        operand = min(operand, self.num_operands - 1)
        bank = self.work.operand_banks[operand]
        row = self.work.operand_base_rows[operand] + batch
        return bank, row, column

    def advance_read(self) -> None:
        self.reads_issued += 1

    # -- writes ------------------------------------------------------------ #

    @property
    def writes_all_staged(self) -> bool:
        return self.writes_staged >= self.total_write_columns

    @property
    def writes_done(self) -> bool:
        return self.writes_drained >= self.total_write_columns

    def next_drain(self) -> Tuple[int, int, int]:
        """(flat bank, row, column) of the write buffer's head: it holds
        exactly writes ``[writes_drained, writes_staged)``, in order."""
        idx = self.writes_drained
        column = idx % self.columns_per_row
        row_offset = idx // self.columns_per_row
        bank = self.work.output_bank if self.work.output_bank is not None else 0
        base_row = self.work.output_base_row or 0
        return bank, base_row + row_offset, column

    @property
    def complete(self) -> bool:
        return self.reads_done and self.writes_done

    def stage_frontier(self, capacity: int) -> int:
        """Writes staged once staging has caught up.

        Results may only be staged for data that has been read (pipelined)
        and into a free slot: until reads are done, write ``w`` waits for
        ``w / total_writes < reads_issued / total_reads`` — in integers
        ``w < ceil(reads_issued * total_writes / total_reads)``, the same
        verdict for totals below 2**26.
        """
        frontier = self.writes_drained + capacity
        total = self.total_write_columns
        if frontier > total:
            frontier = total
        reads = self.total_read_columns
        if self.reads_issued < reads:
            allowed = -(-self.reads_issued * total // reads)
            if allowed < frontier:
                frontier = allowed
        return frontier


class NdaRankController:
    """NDA memory controller and PE group of one rank."""

    def __init__(self, channel: int, rank: int, dram: DramSystem,
                 config: Optional[NdaConfig] = None,
                 allowed_banks: Optional[List[int]] = None,
                 throttle: Optional[WriteThrottlePolicy] = None,
                 host_pending_to_bank: Optional[Callable[[int, int, int], bool]] = None,
                 issue_horizon: Optional[Callable[[int, int, int], int]] = None,
                 ) -> None:
        self.channel = channel
        self.rank = rank
        self.dram = dram
        # Dense indices of this rank, matching the stamps the timing engine
        # and DRAM device use for their flat state arrays.
        self._rank_index = channel * dram.org.ranks_per_channel + rank
        self._bank_index_base = self._rank_index * dram.org.banks_per_rank
        # Bound hot probes (timing-only semantics, as the command path used),
        # plus direct references to the bank list and the timing engine's
        # rank-local probe caches (lists mutated in place, never
        # reassigned): every local address is stamped, so the required
        # command and — on cache hits — its earliest issue cycle are read
        # inline without a call (see _required_earliest).
        self._timing_earliest_issue_at = dram.timing.earliest_issue_at
        self._banks = dram._banks
        self._timing_versions = dram.timing._issue_versions
        self._timing_row_versions = dram.timing._row_versions
        self._act_cache = dram.timing._act_cache
        self._pre_cache = dram.timing._pre_cache
        self._nda_rd_cache = dram.timing._nda_rd_cache
        self._nda_wr_cache = dram.timing._nda_wr_cache
        self.config = config or NdaConfig()
        self.allowed_banks = allowed_banks or list(range(dram.org.banks_per_rank))
        self.throttle = throttle or IssueIfIdlePolicy()
        self._host_pending_to_bank = host_pending_to_bank
        # Host-free horizon: injected override, or an inline walk over this
        # rank's (stable) timing-state object — called once or twice per
        # wake probe, where the generic rank_state lookup is measurable.
        self._rank_timing = dram.timing.rank_state(channel, rank)
        self._issue_horizon = issue_horizon or self._host_free_from
        #: Whether the owning system runs refresh (SchedulerConfig); burst
        #: plans then stop short of the rank's refresh-due cycle, mirroring
        #: the concurrent-access gate's refresh deference.  Set by the
        #: system at construction.
        self.refresh_enabled = True
        self.write_buffer = NdaWriteBuffer(self.config.write_buffer_entries)
        self.fsm = ReplicatedFsm(channel, rank)
        self.pes = [ProcessingElement(chip, self.config)
                    for chip in range(dram.org.chips_per_rank)]
        self._queue: Deque[RankWorkItem] = deque()
        self._active: Optional[_ExecutionState] = None
        #: Selective-wake notification: invoked whenever work is delivered,
        #: so the engine re-polls (and, when eligible, runs) this rank's
        #: unit on the delivery cycle.  The engine re-polls after every run
        #: and on host-issue notifications, so :meth:`next_event_cycle` is
        #: only ever called when its inputs actually changed — the old
        #: issue-version-tagged wake cache is gone.
        self.wake_listener: Optional[Callable[[], None]] = None
        # ---- burst-issue fast path ------------------------------------- #
        # The active plan (None outside steady-state streaming) and the
        # fixed column cadence.
        self._plan: Optional[_BurstPlan] = None
        #: Cycle of the last host-issue truncation: the re-poll it triggers
        #: (same cycle, at this unit's slot) plans the shifted streak.
        self.replan_cycle = -1
        timing = dram.timing.timing
        self._burst_step = max(timing.tCCDS, timing.tBL)
        # Static platform properties behind the drain-phase futility proofs:
        # each planned WR pushes the next RD (write-to-read turnaround), and
        # each planned RD the next WR (read-to-write turnaround), strictly
        # past the following planned cycle.
        self._wr_pushes_rd = (timing.tCWL + timing.tBL
                              + min(timing.tWTRS, timing.tWTRL)
                              > self._burst_step)
        self._rd_pushes_wr = timing.read_to_write > self._burst_step
        # Same for a precharge of the streaming bank itself (tRTP / write
        # recovery), which a pending access to another row of it needs.
        self._wr_pushes_pre = timing.write_to_precharge > self._burst_step
        self._rd_pushes_pre = timing.tRTP > self._burst_step
        #: Optional scheduler whose ``nda_issue_opportunities`` counter is
        #: advanced per settled command (one per issuing cycle, as the
        #: per-cycle selective engine counts).
        self.gate_stats = None
        # Burst diagnostics (cumulative; read by the perf ledger).
        self.bursts_planned = 0
        self.burst_commands_planned = 0
        self.burst_commands_settled = 0
        #: Absorbed row commands settled (also in ``commands_issued``).
        self.burst_row_commands = 0
        self.bursts_completed = 0
        self.burst_truncations: Dict[str, int] = {}
        self.burst_commands_by_class: Dict[str, int] = dict.fromkeys(
            PLAN_CLASSES, 0)
        # Statistics
        self.bytes_read = 0
        self.bytes_written = 0
        self.commands_issued = 0
        self.cycles_blocked_by_host = 0
        self.cycles_blocked_by_throttle = 0
        self.instructions_completed = 0

    # ------------------------------------------------------------------ #
    # Work submission
    # ------------------------------------------------------------------ #

    def enqueue(self, work: RankWorkItem, now: int = 0) -> None:
        work.launched_cycle = now
        self._queue.append(work)
        listener = self.wake_listener
        if listener is not None:
            listener()

    @property
    def pending_instructions(self) -> int:
        return len(self._queue) + (1 if self._active is not None else 0)

    @property
    def busy(self) -> bool:
        return self._active is not None or bool(self._queue)

    def set_throttle(self, policy: WriteThrottlePolicy) -> None:
        # A plan made under a pending drain embeds the old policy's
        # decisions (a read streak embeds none; it is dropped with the
        # others).  Policy swaps happen between engine runs, where the
        # run-boundary flush has already settled every elapsed command —
        # the unsettled remainder lies in the future and is simply dropped
        # (settle boundary 0).
        self.cancel_burst(0, "throttle_change")
        self.throttle = policy
        # Throttle behaviour feeds the wake computation; re-poll.
        listener = self.wake_listener
        if listener is not None:
            listener()

    # ------------------------------------------------------------------ #
    # Cycle advance: called by the system when the rank may issue an NDA
    # command (the host did not use the rank this cycle).
    # ------------------------------------------------------------------ #

    def try_issue(self, now: int) -> bool:
        """Attempt to issue one NDA DRAM command; returns True on issue."""
        state = self._active
        if state is None:
            if not self._queue:
                return False
            self._refill(now)
            state = self._active

        # Drain has priority when the buffer asks for it or reads are done.
        if not self.write_buffer.empty and (self.write_buffer.draining
                                            or state.reads_done):
            if self._try_drain_write(now, state):
                return True
            # A blocked drain should not starve remaining reads forever.
        if not state.reads_done:
            if self._try_read(now, state):
                return True
        # Stage produced results into the write buffer (no DRAM command) and
        # retry the drain path if reads cannot make progress.
        self._stage_writes(state)
        if not self.write_buffer.empty and state.reads_done:
            return self._try_drain_write(now, state)
        return False

    def post_cycle(self, now: int) -> None:
        """End-of-cycle bookkeeping: staging, completion detection."""
        state = self._active
        if state is None:
            return
        self._stage_writes(state)
        if state.reads_done and self.write_buffer.empty and state.writes_done:
            self._complete_active(now)

    # ------------------------------------------------------------------ #
    # Burst-issue fast path
    #
    # In steady-state streaming phases the controller's next K commands are
    # same-bank column commands at a provably fixed cadence.  Two *leading*
    # sides exist, each with and without the other side pending:
    #
    # * **read_streak** — the remaining row-hit RDs of the current
    #   (operand, row) run, while no drain is pending (buffer empty or not
    #   draining);
    # * **read_under_drain** — the same run while the buffer is draining,
    #   when the pending drain is provably futile on every planned cycle;
    # * **drain_tail** — consecutive row-hit WRs to the buffered output row
    #   once reads are done;
    # * **drain_run** — the same WR run mid-instruction, when the pending
    #   read is provably futile on every planned cycle.
    #
    # Within such a streak, each command's earliest-issue cycle is exactly
    # ``prev + max(tCCD_S, tBL)``: all other timing terms are *frozen*
    # absolute horizons already cleared by the first command, and only the
    # streak's own commands move the rank-local spacing/bus terms — by the
    # fixed cadence.  The non-leading side is futile when the (deterministic)
    # throttle inhibits it; when its column command — or its precharge of
    # the leading bank — is pushed past the next planned cycle by every
    # planned command (read/write turnaround, tRTP, write recovery: static
    # platform properties).  When it needs a row command on another bank,
    # that command's horizon is frozen (no planned command moves an ACT
    # input or another bank's precharge horizon), so the plan *absorbs* it
    # at that cycle — a PRE, then its ACT at ``act_after_precharge`` —
    # after which the side's column command is pushed like any other.  A
    # row command it cannot absorb (on a planned cycle, past the last
    # planned command, an ACT without the push) stops the plan short of it
    # and the wake parks there (the *row gap*).
    # :meth:`plan_burst` captures the streak as a :class:`_BurstPlan` (a
    # pure schedule), the engine parks the unit's wake at the burst horizon
    # — always a cycle the per-cycle engine would process too — and
    # :meth:`settle_burst` applies elapsed prefixes: column commands in
    # closed form, absorbed row commands through ``issue_trusted``.  Any
    # event that could perturb the schedule or break a futility proof (a
    # host command to this rank, a read-queue change that flips the
    # throttle decision, a host request for the bank of an absorbed or
    # pending row command, a throttle swap, broadcast ``step`` driving)
    # truncates the plan (:meth:`cancel_burst`, :meth:`_park_burst`),
    # falling back to the per-cycle path — the same routes that already
    # carry the engine's dirty notifications.  ARCHITECTURE.md ("Burst
    # issue") has the proofs.
    # ------------------------------------------------------------------ #

    def plan_burst(self, now: int) -> None:
        """Plan the next command streak starting strictly after ``now``.

        Called by the engine component at the end of a processed wake.  A
        plan is only created when the streak is provably regular for at
        least two commands; otherwise the per-cycle path continues.
        """
        state = self._active
        if state is None or self._plan is not None:
            return
        wb = self.write_buffer
        channel = self.channel
        rank = self.rank
        horizon = self._issue_horizon
        reads_pending = not state.reads_done
        drain_pending = not wb.empty and (wb.draining or not reads_pending)
        # Each side's next command, and — when it is a row-hit column
        # command the throttle lets through — the cycle it would issue at.
        write_at = read_at = decision = None
        if drain_pending:
            throttle = self.throttle
            if not throttle.deterministic:
                return  # every host-free cycle draws RNG
            decision = throttle.would_allow(channel, rank, now + 1)
            head = self._next_drain_addr(state)
            wkind, wearliest = self._required_earliest(head, True, now + 1)
            if decision and wkind is CommandType.WR:
                write_at = horizon(channel, rank, wearliest)
        if reads_pending:
            raddr = self._next_read_addr(state)
            rkind, rearliest = self._required_earliest(raddr, False, now + 1)
            if rkind is CommandType.RD:
                read_at = horizon(channel, rank, rearliest)
        # The non-leading side's row commands the plan absorbs, the first
        # cycle it could act otherwise, and the (flat in-rank) bank they
        # target.
        rows = []
        gap = _NO_EVENT
        row_bank = -1
        if write_at is not None and (read_at is None or write_at <= read_at):
            # Drain tail / drain run (drains have priority on a tie).
            if read_at is not None:
                if not self._wr_pushes_rd:
                    return
            elif reads_pending:
                row_bank = self._flat_bank(raddr)
                rows, gap = self._row_gap(raddr, rkind, rearliest,
                                          head.bank_index, write_at,
                                          self._wr_pushes_pre,
                                          self._wr_pushes_rd)
            # Exclude any pop that would cross the low watermark (drain-
            # phase exit) — with reads done, at least the final drain
            # (completion detection).  Staging stalled on a full buffer
            # refills it pop for pop (applied in bulk at accounting), which
            # only moves the crossing later.
            limit = wb.length - wb.drain_low_len - 1
            if limit < 2:
                return
            # The buffered writes are consecutive output columns, so the
            # head's same-row run is the rest of its row.
            batch_cols = state.columns_per_row
            run = batch_cols - state.writes_drained % batch_cols
            count = run if run < limit else limit
            # Row change after the planned run -> a row command follows;
            # otherwise another drain, a column command at exactly one
            # cadence step past the plan.
            row_end = count == run
            addr = head
            start = write_at
            is_write = True
            stages = not state.writes_all_staged
            skip_first = state.write_classified_idx >= state.writes_drained
            cls = "drain_run" if reads_pending else "drain_tail"
        elif read_at is not None:
            # Read streak, alone or under a futile pending drain.
            if decision:
                if wkind is CommandType.WR:
                    if not self._rd_pushes_wr:
                        return
                else:
                    row_bank = self._flat_bank(head)
                    rows, gap = self._row_gap(head, wkind, wearliest,
                                              raddr.bank_index, read_at,
                                              self._rd_pushes_pre,
                                              self._rd_pushes_wr)
            # Exclude the instruction's final read: its post-cycle triggers
            # force-drain / completion, which the per-cycle path handles.
            remaining = state.total_read_columns - 1 - state.reads_issued
            if remaining < 2:
                return
            batch_cols = state.columns_per_row
            column = (state.reads_issued
                      % (state.num_operands * batch_cols)) % batch_cols
            run = batch_cols - column  # rest of the (operand, row) run
            count = run if run < remaining else remaining
            # After the plan: a row command (next operand's ACT/PRE) when
            # the row run ends with it, otherwise a read of the same row
            # (the instruction's final one) — a column command whose cycle
            # the horizon gives exactly.
            row_end = run <= remaining
            addr = raddr
            start = read_at
            is_write = False
            stages = state.total_write_columns > 0
            skip_first = state.read_classified_idx >= state.reads_issued
            cls = "read_under_drain" if drain_pending else "read_streak"
        else:
            return
        if gap <= start:
            return  # contended, same-bank or already-due row command
        step = self._burst_step
        # A host data burst scheduled to occupy the rank later on blocks the
        # concurrent-access gate mid-streak; plan only up to its start (the
        # window's own end is handled by the per-cycle wake logic).
        rt = self._rank_timing
        data_from = rt.data_busy_from
        if data_from > start:
            window_cap = (data_from - start - 1) // step + 1
            if count > window_cap:
                count = window_cap
                row_end = False  # the stream resumes past the host window
        if stages and not drain_pending:
            flip = self._stage_flip(state)
            if flip <= count:
                count = flip
                # Drains gain priority right after the flip (and, under a
                # stochastic throttle, start drawing RNG every host-free
                # cycle): resume per-cycle processing immediately.
                row_end = True
        if self.refresh_enabled:
            # The concurrent-access gate blocks NDA issue from the rank's
            # refresh-due cycle onward (the NDA defers to refresh), so no
            # planned command may land at or past it.  ``refresh_due`` is
            # frozen while the plan lives: only a REF moves it, and every
            # host issue to the rank truncates the plan first.
            due = rt.refresh_due
            if due <= start:
                return  # refresh imminent: per-cycle path defers to it
            refresh_cap = (due - 1 - start) // step + 1
            if count > refresh_cap:
                count = refresh_cap
                row_end = True  # the gate blocks the continuation
        gap_capped = False
        if gap != _NO_EVENT:
            # Only commands strictly before the row gap are planned; the
            # streak itself continues past it.
            gap_cap = (gap - 1 - start) // step + 1
            if count > gap_cap:
                count = gap_cap
                row_end = False
                gap_capped = True
        if row_end:
            # Whatever follows the streak's last command (a row transition,
            # a drain-phase flip, a refresh) is decided by a re-poll right
            # after it; leave that command to the per-cycle path, so that
            # the plan always ends on a continuation of the streak.
            count -= 1
        if count < 2:
            return
        # Absorb only row commands before the last planned column command:
        # past it lie the host windows and the refresh deadline the caps
        # above stop at.  The first one left out is the row gap.
        last = start + (count - 1) * step
        while rows and rows[-1][0] > last:
            gap = rows.pop()[0]
        # The next command after the plan is another column command of the
        # streak: it cannot issue before one cadence step past the last
        # planned command composed with the (frozen) host-free windows —
        # the per-cycle engine's next wake, and so the plan's.
        end = horizon(channel, rank, start + count * step)
        if gap < end:
            # The other side's row command issues through the per-cycle
            # path in the gap between two planned cycles.
            end = gap
        self._plan = _BurstPlan(cls, is_write, start, step, count, end,
                                self._banks[addr.bank_index],
                                addr.bank_index, addr.bank_group, stages,
                                skip_first, decision, row_bank, rows)
        self.bursts_planned += 1
        self.burst_commands_planned += count
        self.burst_commands_by_class[cls] += count
        if gap_capped:
            # Not a mid-flight cancellation, but recorded with them: the
            # diagnostic answers "what cut this streak short?".
            self.burst_truncations["row_gap"] = (
                self.burst_truncations.get("row_gap", 0) + 1)

    def _row_gap(self, addr: DramAddress, kind: CommandType, earliest: int,
                 lead_bank_index: int, start: int, pushes_pre: bool,
                 pushes_col: bool) -> Tuple[List[Tuple[int, Command]], int]:
        """The non-leading side's row commands a plan starting at ``start``
        can absorb, and the first cycle that side acts otherwise.

        ``kind``/``earliest`` are the pending ACT/PRE of ``addr`` and its
        horizon.  On another bank it is frozen while only column commands
        issue to the leading bank, so the command is absorbed at that cycle;
        a PRE's ACT follows at ``act_after_precharge`` (equally frozen), and
        after the ACT the side's column command is pushed past every next
        planned cycle like any pending column command (``pushes_col``).  An
        ACT is absorbed only after the plan's first command, so that the
        push covers it.  A command landing on a planned cycle is not
        absorbed (``try_issue`` would order the two sides): it is the gap.
        On the leading bank itself (a PRE: the bank is open on the leading
        row) every planned command pushes it past the next planned cycle
        (``pushes_pre``), so once the first command beats it, it never
        comes due.  The gap is 0 ("no plan") when neither proof holds, or
        when the host wants the bank (the per-cycle path polls, and counts,
        every blocked opportunity).
        """
        if self._host_wants_bank(addr):
            return [], 0
        gap = self._issue_horizon(self.channel, self.rank, earliest)
        if addr.bank_index == lead_bank_index:
            return [], (_NO_EVENT if pushes_pre and gap > start else 0)
        step = self._burst_step
        rows = []
        if kind is CommandType.PRE:
            if gap >= start and (gap - start) % step == 0:
                return rows, gap
            rows.append((gap, Command(kind, addr, RequestSource.NDA)))
            gap = self._issue_horizon(
                self.channel, self.rank,
                self.dram.timing.act_after_precharge(addr, gap))
        if not pushes_col or gap <= start or (gap - start) % step == 0:
            return rows, gap
        rows.append((gap, Command(CommandType.ACT, addr, RequestSource.NDA)))
        return rows, _NO_EVENT

    def _stage_flip(self, state: _ExecutionState) -> int:
        """Reads, from now, until staging enters the drain phase (a read
        plan's last command: drains gain priority right after it).

        The flip is the push of write ``target``: the first to reach length
        ``drain_high_len``, or the next one if the buffer already holds that
        many (coinciding watermarks).  The frontier reaches it once
        ``ceil(reads * total_writes / total_reads) >= target``.
        ``_NO_EVENT`` when writes or capacity stop staging short of it.
        """
        wb = self.write_buffer
        drained = state.writes_drained
        target = drained + wb.drain_high_len
        if target <= state.writes_staged:
            target = state.writes_staged + 1
        writes = state.total_write_columns
        if target > writes or target > drained + wb.capacity:
            return _NO_EVENT
        reads = (target - 1) * state.total_read_columns // writes + 1
        flip = reads - state.reads_issued
        return flip if flip > 1 else 1

    def settle_burst(self, upto: int) -> None:
        """Apply the timing effects of commands at cycles before ``upto``.

        The hot settlement path: the owning channel calls it (through the
        system's settle hook) before every FR-FCFS scan or command issue, so
        it updates exactly the state a scan can read — rank/bank timing
        horizons (last-command absolute values; all updates are monotone, so
        applying the aggregate is order-safe) and the probe-cache versions.
        Counters, the replicated FSM and staging are deferred to
        :meth:`_account_burst`: nothing reads them mid-plan, and one bulk
        update per plan beats one per elapsed boundary.  Absorbed row
        commands go through :meth:`_settle_row` at their own cycles: they
        touch only the other bank and the ACT/busy horizons, none of which
        the column aggregate reads or writes, so the two commute.
        """
        plan = self._plan
        rows = plan.rows
        while rows and rows[0][0] < upto:
            cycle, cmd = rows.pop(0)
            self._settle_row(cycle, cmd, not plan.is_write)
        done = plan.idx
        j = (upto - 1 - plan.start) // plan.step + 1
        if j > plan.count:
            j = plan.count
        if j > done:
            plan.idx = done = j
            c_last = plan.start + (j - 1) * plan.step
            timing = self.dram.timing
            t = timing.timing
            rt = self._rank_timing
            bank_timing = timing._banks[plan.bank_index]
            if plan.is_write:
                if c_last > rt.last_write_cycle:
                    rt.last_write_cycle = c_last
                    rt.last_write_bg = plan.bank_group
                bus = c_last + t.tCWL + t.tBL
                if bus > rt.nda_bus_free:
                    rt.nda_bus_free = bus
                wtp = c_last + timing._write_to_precharge
                if wtp > bank_timing.pre_allowed:
                    bank_timing.pre_allowed = wtp
            else:
                if c_last > rt.last_read_cycle:
                    rt.last_read_cycle = c_last
                    rt.last_read_bg = plan.bank_group
                if c_last > rt.last_nda_read_cycle:
                    rt.last_nda_read_cycle = c_last
                bus = c_last + t.tCL + t.tBL
                if bus > rt.nda_bus_free:
                    rt.nda_bus_free = bus
                rtp = c_last + t.tRTP
                if rtp > bank_timing.pre_allowed:
                    bank_timing.pre_allowed = rtp
            # Version-keyed memo invalidation (equality-compared keys: one
            # bump per settlement batch suffices), plus the point-wise
            # precharge-horizon kill a column command performs on its own
            # bank.
            timing._issue_versions[self._rank_index] += 1
            timing._pre_cache[plan.bank_index] = (-1, 0)
            self.dram.channel_issue_version[self.channel] += 1
        due = (plan.start + done * plan.step if done < plan.count
               else _NO_EVENT)
        if rows and rows[0][0] < due:
            due = rows[0][0]
        plan.due = due

    def _settle_row(self, cycle: int, cmd: Command, is_write: bool) -> None:
        """Issue an absorbed row command of the non-leading side (``is_write``:
        the drain) with what the per-cycle wake issuing it records: the
        access's classification if it is the access's first command, one
        gate opportunity and one drain-attempt throttle decision —
        permissive, since only plans under a permissive pending drain
        absorb."""
        state = self._active
        dram = self.dram
        if is_write:
            if state.writes_drained > state.write_classified_idx:
                dram.record_access_outcome(cmd.addr, True, is_nda=True)
                state.write_classified_idx = state.writes_drained
        elif state.reads_issued > state.read_classified_idx:
            dram.record_access_outcome(cmd.addr, False, is_nda=True)
            state.read_classified_idx = state.reads_issued
        dram.issue_trusted(cmd, cycle)
        self.commands_issued += 1
        self.burst_row_commands += 1
        self.throttle.note_decisions(1, 0)
        gate = self.gate_stats
        if gate is not None:
            gate.nda_issue_opportunities += 1

    def _account_burst(self, plan: _BurstPlan) -> None:
        """Apply the deferred accounting for the plan's settled commands.

        Counters and FSM transitions are additive and the staging frontier
        depends only on the final read and drain cursors, so one bulk
        application per plan boundary — O(1), however many commands it
        covers — is state-identical to per-command application.
        """
        done = plan.acc_idx
        dj = plan.idx - done
        if dj <= 0:
            return
        plan.acc_idx = plan.idx
        dram = self.dram
        counts = dram.counts
        bank = plan.bank
        # Every streak command is a row-buffer hit, classified (once per
        # access) at its issue — except a first command whose access was
        # already classified by its preceding row command.
        classified = dj - 1 if (done == 0 and plan.skip_first) else dj
        bank.row_hits += classified
        counts.nda_row_hits += classified
        cacheline = dram.org.cacheline_bytes
        state = self._active
        if plan.is_write:
            bank.nda_writes += classified
            counts.nda_writes += dj
            self.bytes_written += dj * cacheline
            self.write_buffer.pop(dj)
            state.writes_drained += dj
            state.write_classified_idx = state.writes_drained - 1
            self.fsm.apply_bulk("write_drained", dj)
            if plan.stages:
                self._stage_writes(state)
        else:
            bank.nda_reads += classified
            counts.nda_reads += dj
            self.bytes_read += dj * cacheline
            state.reads_issued += dj
            state.read_classified_idx = state.reads_issued - 1
            self.fsm.apply_bulk("read_issued", dj)
            if plan.stages:
                self._stage_writes(state)
        # One throttle decision per planned cycle while a drain is pending
        # (the drain attempt precedes the read), as the per-cycle selective
        # engine records.
        decision = plan.decision
        if decision:
            self.throttle.note_decisions(dj, 0)
        elif decision is not None:
            self.throttle.note_decisions(0, dj)
            self.cycles_blocked_by_throttle += dj
        self.commands_issued += dj
        self.burst_commands_settled += dj
        gate = self.gate_stats
        if gate is not None:
            gate.nda_issue_opportunities += dj

    def flush_burst(self, upto: int) -> None:
        """Settle timing *and* accounting up to ``upto`` (run-boundary
        flushes: results and measurement resets read the counters)."""
        plan = self._plan
        if plan is None:
            return
        self.settle_burst(upto)
        self._account_burst(plan)

    def cancel_burst(self, upto: int, cause: str) -> None:
        """Settle the elapsed prefix (< ``upto``) and drop the remainder.

        ``cause`` labels the truncation source in the burst diagnostics; a
        plan whose commands had all elapsed counts as completed instead.
        """
        plan = self._plan
        if plan is None:
            return
        self.settle_burst(upto)
        self._account_burst(plan)
        self._plan = None
        if plan.due == _NO_EVENT:
            self.bursts_completed += 1
        else:
            cause = plan.parked or cause
            self.burst_truncations[cause] = (
                self.burst_truncations.get(cause, 0) + 1)

    def _park_burst(self, upto: int, cause: str) -> None:
        """Truncate a plan whose futility proof an outside event just broke.

        The commands from ``upto`` on are stale, but the event (a host
        enqueue) does not re-poll the per-cycle engine: its calendar still
        holds the next planned cycle, where it re-decides (and counts the
        attempt).  So the plan is not dropped here — its wake is pulled in
        to that cycle (an absorbed row command's, if that comes first), and
        the wake there cancels it and resumes the per-cycle path.
        """
        plan = self._plan
        self.settle_burst(upto)
        if plan.due != _NO_EVENT:
            plan.end = plan.due
            plan.parked = cause
            plan.parked_at = upto
            listener = self.wake_listener
            if listener is not None:
                listener()

    def park_throttled_burst(self, upto: int) -> None:
        """Truncate a plan whose embedded throttle decision just flipped
        (the channel's read queue changed at ``upto``).

        Only plans made under a pending drain embed one — every write plan
        and every read plan made while a drain was pending; a read streak
        never asks the throttle.
        """
        plan = self._plan
        if (plan is not None and plan.decision is not None
                and plan.decision != self.throttle.would_allow(
                    self.channel, self.rank, upto)):
            self._park_burst(upto, "read_queue")

    def park_contended_burst(self, upto: int, addr: DramAddress) -> None:
        """Truncate a plan whose pending row command the host now blocks
        (a host request for ``addr`` was accepted at ``upto``)."""
        plan = self._plan
        if plan is not None and plan.row_bank == self._flat_bank(addr):
            self._park_burst(upto, "bank_demand")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _refill(self, now: int) -> None:
        if self._active is not None or not self._queue:
            return
        work = self._queue.popleft()
        self._active = _ExecutionState(work, self.dram.org.columns_per_row)
        self.fsm.apply(
            "launch",
            instruction_id=work.instruction.instruction_id,
            reads=self._active.total_read_columns,
            writes=self._active.total_write_columns,
        )
        for pe in self.pes:
            if not pe.busy:
                pe.start(work.instruction)

    def _addr(self, flat_bank: int, row: int, column: int) -> DramAddress:
        org = self.dram.org
        banks_per_group = org.banks_per_group
        # _make (tuple.__new__) skips keyword/default processing; one address
        # is built per streamed access, which makes construction measurable.
        return DramAddress._make((
            self.channel,
            self.rank,
            flat_bank // banks_per_group,
            flat_bank % banks_per_group,
            row & (org.rows_per_bank - 1),
            column % org.columns_per_row,
            self._rank_index,
            self._bank_index_base + flat_bank,
        ))

    def _host_free_from(self, channel: int, rank: int, cycle: int) -> int:
        """Earliest host-free cycle >= ``cycle`` for this rank.

        Same walk as ``TimingEngine.next_host_free_cycle``, bound to this
        rank's timing-state object (signature kept for injected overrides).
        """
        state = self._rank_timing
        while True:
            if cycle < state.busy_until:
                cycle = state.busy_until
                continue
            if state.data_busy_from <= cycle < state.data_busy_until:
                cycle = state.data_busy_until
                continue
            return cycle

    def _host_wants_bank(self, addr: DramAddress) -> bool:
        if self._host_pending_to_bank is None:
            return False
        return self._host_pending_to_bank(self.channel, self.rank,
                                          self._flat_bank(addr))

    def _flat_bank(self, addr: DramAddress) -> int:
        return addr.bank_group * self.dram.org.banks_per_group + addr.bank

    def _required_earliest(self, addr: DramAddress, is_write: bool,
                           now: int) -> Tuple[CommandType, int]:
        """(required command, its earliest issue cycle >= ``now``).

        Fused fast path of ``dram.required_command`` +
        ``timing.earliest_issue_at``: the bank state is read directly
        through the stamped index, and the rank-local horizon caches
        (ACT/PRE and NDA column commands) are consulted inline — probing
        these is the controller's single hottest operation, once per wake
        probe and once per issue attempt.
        """
        bank_index = addr.bank_index
        bank = self._banks[bank_index]
        if bank.state is BankState.CLOSED:
            kind = CommandType.ACT
            cache = self._act_cache
            versions = self._timing_row_versions
        elif bank.open_row == addr.row:
            if is_write:
                kind = CommandType.WR
                cache = self._nda_wr_cache
            else:
                kind = CommandType.RD
                cache = self._nda_rd_cache
            versions = self._timing_versions
        else:
            kind = CommandType.PRE
            cache = self._pre_cache
            versions = self._timing_row_versions
        cached = cache[bank_index]
        if cached[0] == versions[addr.rank_index]:
            earliest = cached[1]
            return kind, (earliest if earliest > now else now)
        return kind, self._timing_earliest_issue_at(kind, addr,
                                                    RequestSource.NDA, now)

    def _issue_toward(self, addr: DramAddress, is_write: bool, now: int,
                      classify: bool = False) -> Optional[CommandType]:
        """Issue the next command (PRE/ACT/column) needed for an access.

        Returns the issued command kind, or None when nothing could issue
        (the access is still pending and did not consume this cycle's issue
        slot).  ``classify`` records the row-buffer outcome of the access
        (hit/miss/conflict) just before its first command issues, so the
        outcome reflects the bank state the access found.
        """
        kind, earliest = self._required_earliest(addr, is_write, now)
        if kind.is_row and self._host_wants_bank(addr):
            # Host row commands take priority on contended banks.  The block
            # lifts when the host queue changes, which only happens at
            # engine-processed cycles — retry at the next opportunity.
            self.cycles_blocked_by_host += 1
            return None
        if earliest > now:
            return None
        if classify:
            self.dram.record_access_outcome(addr, is_write, is_nda=True)
        # required_command + the probe above are exactly the issue-time
        # legality checks; nothing issued in between.
        self.dram.issue_trusted(Command(kind, addr, RequestSource.NDA), now)
        self.commands_issued += 1
        return kind

    def _next_read_addr(self, state: _ExecutionState) -> DramAddress:
        idx = state.reads_issued
        if state._read_addr_idx == idx:
            return state._read_addr
        bank, row, column = state.next_read()
        addr = self._addr(bank, row, column)
        state._read_addr_idx = idx
        state._read_addr = addr
        return addr

    def _next_drain_addr(self, state: _ExecutionState) -> DramAddress:
        idx = state.writes_drained
        if state._drain_addr_idx == idx:
            return state._drain_addr
        bank, row, column = state.next_drain()
        addr = self._addr(bank, row, column)
        state._drain_addr_idx = idx
        state._drain_addr = addr
        return addr

    def _try_read(self, now: int, state: _ExecutionState) -> bool:
        addr = self._next_read_addr(state)
        classify = state.reads_issued > state.read_classified_idx
        issued = self._issue_toward(addr, is_write=False, now=now,
                                    classify=classify)
        if issued is None:
            return False
        if classify:
            state.read_classified_idx = state.reads_issued
        if issued.is_column:
            state.advance_read()
            self.bytes_read += self.dram.org.cacheline_bytes
            self.fsm.apply("read_issued")
            return True
        return False

    def _stage_writes(self, state: _ExecutionState) -> None:
        """Stage every result write the staging frontier allows, at once."""
        wb = self.write_buffer
        count = state.stage_frontier(wb.capacity) - state.writes_staged
        if count > 0:
            wb.push(count)
            state.writes_staged += count
            self.fsm.apply_bulk("write_buffered", count)
        if state.reads_done and wb.length and not wb.draining:
            wb.force_drain()
            self.fsm.apply("drain_start")

    def _try_drain_write(self, now: int, state: _ExecutionState) -> bool:
        if not self.throttle.allow_write(self.channel, self.rank, now):
            self.cycles_blocked_by_throttle += 1
            return False
        addr = self._next_drain_addr(state)
        classify = state.writes_drained > state.write_classified_idx
        issued = self._issue_toward(addr, is_write=True, now=now,
                                    classify=classify)
        if issued is None:
            return False
        if classify:
            state.write_classified_idx = state.writes_drained
        if issued.is_column:
            self.write_buffer.pop()
            state.writes_drained += 1
            self.bytes_written += self.dram.org.cacheline_bytes
            self.fsm.apply("write_drained")
            return True
        return False

    def _complete_active(self, now: int) -> None:
        state = self._active
        assert state is not None
        work = state.work
        work.completed_cycle = now
        self._active = None
        self.instructions_completed += 1
        self.fsm.apply("complete")
        for pe in self.pes:
            if pe.busy:
                pe.finish()
        if work.on_complete is not None:
            work.on_complete(now)

    # ------------------------------------------------------------------ #
    # Event-engine interface
    # ------------------------------------------------------------------ #

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which this controller may act.

        The contract (see ``engine/``): for every cycle strictly before the
        returned value, calling ``try_issue``/``post_cycle`` would neither
        issue a command, classify an access, consume throttle RNG, nor
        complete an instruction — so the event engine may skip those cycles.
        Drains under a non-deterministic throttle pin the wake-up to every
        host-free cycle so RNG draws land on exactly the same cycles as in
        the cycle-by-cycle loop.

        Access wake-ups combine the DRAM timing horizon of the required
        command with the rank's host-busy windows (the concurrent-access
        gate).  Exact under the fast-forward contract: both inputs are
        frozen until the next command issues to the rank — and every such
        issue either is this controller's own (the engine re-polls ran
        units) or arrives as a host-issue dirty notification, so the unit
        is re-polled in time.

        While a burst plan is live the unit's entire activity up to the
        burst horizon is the plan itself (settled lazily), so the wake is
        the horizon, where per-cycle processing resumes.  The poll is also
        where the plan set changes without a processed wake: the re-poll
        after a host-issue truncation plans the shifted streak, and a
        re-poll that finds a parked plan (other than the one its parking
        asked for) drops it.
        """
        if self.replan_cycle == now:
            # Re-polled after a host-issue truncation: plan here, where the
            # per-cycle engine re-derives its wake, so both decide on the
            # same queue state (the host unit may still have enqueued
            # between the truncating issue and this poll).
            self.replan_cycle = -1
            self.plan_burst(now)
        plan = self._plan
        if plan is not None:
            if plan.parked is None or now <= plan.parked_at:
                return plan.end if plan.end > now else now
            # A parked plan stands for a stale calendar entry; any later
            # re-poll (a measurement reset, delivered work) makes the
            # per-cycle engine re-derive its wake from the current state.
            self.cancel_burst(now, "wake")
        state = self._active
        if state is None:
            if not self._queue:
                # Idle ranks stay idle until new work arrives; delivery
                # fires wake_listener, so the engine re-polls in time.
                return _NO_EVENT
            # Refill (and the first command of the new work item) happens at
            # the next issue opportunity.
            return self._issue_horizon(self.channel, self.rank, now)
        wake = _NO_EVENT
        drain_pending = (not self.write_buffer.empty
                         and (self.write_buffer.draining or state.reads_done))
        if drain_pending:
            if not self.throttle.deterministic:
                wake = self._issue_horizon(self.channel, self.rank, now)
            elif self.throttle.would_allow(self.channel, self.rank, now):
                addr = self._next_drain_addr(state)
                kind, earliest = self._required_earliest(addr, True, now)
                if kind.is_row and self._host_wants_bank(addr):
                    # Blocked on the host queue: poll at each opportunity.
                    wake = self._issue_horizon(self.channel, self.rank, now)
                else:
                    wake = self._issue_horizon(self.channel, self.rank, earliest)
            # else: throttled — the block only lifts when the host queue
            # changes: either a read to this rank issues (a host-issue
            # dirty notification re-polls this unit) or an enqueue makes
            # the prediction stricter (which can only delay the drain).
        if not state.reads_done:
            addr = self._next_read_addr(state)
            kind, earliest = self._required_earliest(addr, False, now)
            if kind.is_row and self._host_wants_bank(addr):
                candidate = self._issue_horizon(self.channel, self.rank, now)
            else:
                candidate = self._issue_horizon(self.channel, self.rank, earliest)
            if candidate < wake:
                wake = candidate
        return wake

    def reset_measurement(self) -> None:
        """Zero measurement counters at the warmup boundary."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.commands_issued = 0
        self.cycles_blocked_by_host = 0
        self.cycles_blocked_by_throttle = 0
        self.instructions_completed = 0
        for pe in self.pes:
            pe.stats = type(pe.stats)()

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def burst_stats(self) -> Dict[str, object]:
        """Burst-issue diagnostics (cumulative; read by the perf ledger).

        ``commands_settled`` counts the column commands settled in closed
        form; ``row_commands`` the other side's row commands plans absorbed
        and settled (both are in ``commands_issued``).
        """
        return {
            "bursts_planned": self.bursts_planned,
            "commands_planned": self.burst_commands_planned,
            "commands_settled": self.burst_commands_settled,
            "row_commands": self.burst_row_commands,
            "bursts_completed": self.bursts_completed,
            "truncations": dict(self.burst_truncations),
            "planned_by_class": dict(self.burst_commands_by_class),
        }

    def stats(self) -> Dict[str, float]:
        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "commands": self.commands_issued,
            "instructions_completed": self.instructions_completed,
            "blocked_by_host": self.cycles_blocked_by_host,
            "blocked_by_throttle": self.cycles_blocked_by_throttle,
            "write_buffer_occupancy": len(self.write_buffer),
        }
