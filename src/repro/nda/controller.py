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
from repro.nda.burst import (
    NO_EVENT,
    PLAN_CLASSES,
    BurstPlan,
    Caps,
    PlanClass,
    Side,
    StreakPlanner,
    stage_flip,
)
from repro.nda.fsm import ReplicatedFsm
from repro.nda.isa import NdaInstruction
from repro.nda.pe import ProcessingElement
from repro.nda.throttle import IssueIfIdlePolicy, WriteThrottlePolicy
from repro.nda.write_buffer import NdaWriteBuffer

#: Builds a probe record from a tuple of its fields: the records are made
#: once or twice per wake, where keyword processing is measurable.
_new_record = tuple.__new__
# Enum members read through their class cost an attribute lookup each.
_ACT = CommandType.ACT
_PRE = CommandType.PRE
_RD = CommandType.RD
_WR = CommandType.WR
_CLOSED = BankState.CLOSED


@dataclass
class RankWorkItem:
    """An NDA instruction bound to concrete banks/rows of one rank.

    ``operand_banks``/``operand_base_rows`` give, for every streamed input
    operand, the flat bank index and the starting row; ``output_bank`` and
    ``output_base_row`` locate the result vector (``None`` for reductions).
    ``on_complete`` is invoked with the completion cycle.
    """

    STATE = ("instruction", "operand_banks", "operand_base_rows",
             "output_bank", "output_base_row", "launched_cycle",
             "completed_cycle", "operation_id")
    #: Rebuilt at restore from ``operation_id``.
    DERIVED = ("on_complete",)

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

    STATE = ("work", "reads_issued", "writes_staged", "writes_drained",
             "read_classified_idx", "write_classified_idx")
    DERIVED = ("columns_per_row", "total_read_columns", "total_write_columns",
               "num_operands", "read_memo", "drain_memo")

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
        # (cursor, decoded address) of the next read access and of the next
        # drain (the write buffer's head): recomputed only when a cursor
        # moves; blocked attempts and wake probes reuse the immutable
        # address.
        self.read_memo: Tuple[int, Optional[DramAddress]] = (-1, None)
        self.drain_memo: Tuple[int, Optional[DramAddress]] = (-1, None)

    # -- reads ------------------------------------------------------------ #

    @property
    def reads_done(self) -> bool:
        return self.reads_issued >= self.total_read_columns

    def next_read(self) -> Tuple[int, int, int]:
        """(flat bank, row, column) of the next read access."""
        # Column index within the whole instruction, mapped to operand and
        # then to (row, column) within the operand's row sequence.
        batch, within = divmod(self.reads_issued,
                               self.num_operands * self.columns_per_row)
        operand, column = divmod(within, self.columns_per_row)
        bank = self.work.operand_banks[operand]
        row = self.work.operand_base_rows[operand] + batch
        return bank, row, column

    # -- writes ------------------------------------------------------------ #

    @property
    def writes_done(self) -> bool:
        return self.writes_drained >= self.total_write_columns

    def next_drain(self) -> Tuple[int, int, int]:
        """(flat bank, row, column) of the write buffer's head: it holds
        exactly writes ``[writes_drained, writes_staged)``, in order."""
        row_offset, column = divmod(self.writes_drained, self.columns_per_row)
        bank = self.work.output_bank if self.work.output_bank is not None else 0
        base_row = self.work.output_base_row or 0
        return bank, base_row + row_offset, column

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

    #: Burst diagnostics stay cumulative across the warm-up boundary.  A
    #: live burst plan (``_plan`` and its mirrors) is settled and dropped
    #: before a checkpoint, so it is never saved.
    STATE = ("write_buffer", "fsm", "pes", "_queue", "_active",
             "bursts_planned", "burst_commands_planned",
             "burst_commands_settled", "burst_row_commands",
             "bursts_completed", "burst_truncations", "burst_commands_by_class")
    COUNTERS = ("bytes_read", "bytes_written", "commands_issued",
                "cycles_blocked_by_host", "cycles_blocked_by_throttle",
                "instructions_completed")
    DERIVED = ("channel", "rank", "dram", "_rank_index", "_bank_index_base",
               "_timing_earliest_issue_at", "_banks", "_timing_versions",
               "_timing_row_versions", "_act_cache", "_pre_cache",
               "_nda_rd_cache", "_nda_wr_cache", "config", "allowed_banks",
               "throttle", "_host_pending_to_bank", "_rank_timing",
               "refresh_enabled", "wake_listener", "_plan", "burst_class",
               "burst_due", "_replan_cycle", "_planner", "gate_stats")

    def __init__(self, channel: int, rank: int, dram: DramSystem,
                 config: Optional[NdaConfig] = None,
                 allowed_banks: Optional[List[int]] = None,
                 throttle: Optional[WriteThrottlePolicy] = None,
                 host_pending_to_bank: Optional[Callable[[int, int, int], bool]] = None,
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
        # This rank's (stable) timing-state object: the host-free walk runs
        # once or twice per wake probe, where the generic rank_state lookup
        # is measurable.
        self._rank_timing = dram.timing.rank_state(channel, rank)
        #: Whether the owning system runs refresh (set by the system): plans
        #: then stop short of the refresh deadline, as the gate defers to it.
        self.refresh_enabled = True
        self.write_buffer = NdaWriteBuffer(self.config.write_buffer_entries)
        self.fsm = ReplicatedFsm(channel, rank)
        self.pes = [ProcessingElement(chip, self.config)
                    for chip in range(dram.org.chips_per_rank)]
        self._queue: Deque[RankWorkItem] = deque()
        self._active: Optional[_ExecutionState] = None
        #: Selective-wake notification: invoked whenever work is delivered,
        #: so the engine re-polls (and, when eligible, runs) this rank's
        #: unit on the delivery cycle.
        self.wake_listener: Optional[Callable[[], None]] = None
        # ---- burst-issue fast path (see nda/burst.py) ------------------ #
        self._plan: Optional[BurstPlan] = None
        #: The live plan's row of ``PLAN_TABLE``, whose flags say which
        #: outside events can break it, and the cycle of its first unsettled
        #: command, past which the owning channel settles it before a scan
        #: (None / ``NO_EVENT`` without a plan).
        self.burst_class: Optional[PlanClass] = None
        self.burst_due = NO_EVENT
        # Cycle of the last host-issue stop: the re-poll it triggers (same
        # cycle, at this unit's slot) plans the shifted streak.
        self._replan_cycle = -1
        self._planner = StreakPlanner.for_timing(
            dram.timing.timing, self._host_free,
            dram.timing.act_after_precharge)
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
        # Plans embed the old policy's decisions.  Swaps happen between
        # engine runs, after the run-boundary flush settled every elapsed
        # command: the remainder lies in the future and is simply dropped.
        self.stop_burst(0, "throttle_change")
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
            self._refill()
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
    # Burst-issue fast path (plans: nda/burst.py; their classes and proofs:
    # ARCHITECTURE.md, "Burst issue").
    # ------------------------------------------------------------------ #

    def plan_burst(self, now: int) -> None:
        """Plan the next streak starting strictly after ``now`` (at the end
        of a processed wake, and on the re-poll after a host-issue stop)."""
        state = self._active
        if state is None or self._plan is not None:
            return
        wb = self.write_buffer
        drain_pending = not wb.empty and (wb.draining or state.reads_done)
        if drain_pending and not self.throttle.deterministic:
            return  # every host-free cycle draws RNG
        # The side probe: what each side needs next, from the next cycle on.
        floor = now + 1
        drain = decision = None
        if drain_pending:
            decision = self.throttle.would_allow(self.channel, self.rank,
                                                 floor)
            drain = self._side(self._next_drain_addr(state), True, floor)
        read = (None if state.reads_done
                else self._side(self._next_read_addr(state), False, floor))
        cols = state.columns_per_row
        rt = self._rank_timing
        # The Caps fields, in order (built without keyword processing).
        plan = self._planner.plan(read, drain, decision, _new_record(Caps, (
            cols - state.reads_issued % cols,
            state.total_read_columns - 1 - state.reads_issued,
            NO_EVENT if drain_pending else stage_flip(state, wb),
            cols - state.writes_drained % cols,
            wb.length - wb.drain_low_len - 1,
            rt.data_busy_from,
            rt.refresh_due if self.refresh_enabled else NO_EVENT)))
        if plan is None:
            return
        plan.skip_first = (
            state.write_classified_idx >= state.writes_drained
            if plan.kind is _WR
            else state.read_classified_idx >= state.reads_issued)
        self._plan = plan
        self.burst_class = plan.cls
        self.burst_due = plan.due
        self.bursts_planned += 1
        self.burst_commands_planned += plan.count
        self.burst_commands_by_class[plan.cls.name] += plan.count
        if plan.row_gapped:  # recorded with the stops: it cut a streak
            self.burst_truncations["row_gap"] = (
                self.burst_truncations.get("row_gap", 0) + 1)

    def settle_burst(self, upto: int) -> None:
        """Apply the timing effects of planned commands before ``upto`` —
        the hot path, run before every FR-FCFS scan on the channel past
        :attr:`burst_due`.  Counters, the FSM and staging defer to
        :meth:`_account_burst`: nothing reads them mid-plan.  Absorbed row
        commands touch only the other bank and the ACT/busy horizons, which
        the column law neither reads nor writes, so the two commute."""
        plan = self._plan
        rows = plan.rows
        while (rows and plan.row_idx < len(rows)
               and rows[plan.row_idx][0] < upto):
            cycle, cmd = rows[plan.row_idx]
            plan.row_idx += 1
            self._settle_row(cycle, cmd, plan.kind is _RD)
        last = plan.advance(upto)
        if last >= 0:
            self.dram.issue_nda_run(plan.kind, plan.addr, last)
        self.burst_due = plan.due

    def _settle_row(self, cycle: int, cmd: Command, is_write: bool) -> None:
        """Issue an absorbed row command of the non-leading side (``is_write``:
        the drain) with what the per-cycle wake issuing it records: the
        access's classification if it is the access's first command, one
        gate opportunity and one drain-attempt throttle decision —
        permissive, since only plans under a permissive pending drain
        absorb."""
        self._classify(self._active, cmd.addr, is_write)
        self.dram.issue_trusted(cmd, cycle)
        self.commands_issued += 1
        self.burst_row_commands += 1
        self.throttle.note_decisions(1, 0)
        gate = self.gate_stats
        if gate is not None:
            gate.nda_issue_opportunities += 1

    def _account_burst(self, plan: BurstPlan) -> None:
        """Apply the deferred accounting of the plan's settled commands:
        counters and FSM transitions are additive and the staging frontier
        depends only on the final cursors, so one O(1) bulk application is
        state-identical to per-command application."""
        done = plan.acc_idx
        dj = plan.idx - done
        if dj <= 0:
            return
        plan.acc_idx = plan.idx
        dram = self.dram
        counts = dram.counts
        bank = self._banks[plan.addr.bank_index]
        # Every streak command is a row-buffer hit, classified (once per
        # access) at its issue — except a first command whose access was
        # already classified by its preceding row command.
        classified = dj - 1 if (done == 0 and plan.skip_first) else dj
        bank.row_hits += classified
        counts.nda_row_hits += classified
        cacheline = dram.org.cacheline_bytes
        state = self._active
        if plan.kind is _WR:
            bank.nda_writes += classified
            counts.nda_writes += dj
            self.bytes_written += dj * cacheline
            self.write_buffer.pop(dj)
            state.writes_drained += dj
            state.write_classified_idx = state.writes_drained - 1
            self.fsm.apply_bulk("write_drained", dj)
        else:
            bank.nda_reads += classified
            counts.nda_reads += dj
            self.bytes_read += dj * cacheline
            state.reads_issued += dj
            state.read_classified_idx = state.reads_issued - 1
            self.fsm.apply_bulk("read_issued", dj)
        if state.writes_staged < state.total_write_columns:
            # As the per-cycle path's post-cycle after each command.
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

    def stop_burst(self, upto: int, cause: Optional[str] = None,
                   park: bool = False, bank: int = -1) -> None:
        """Settle the live plan's commands before ``upto`` and stop it.

        * No ``cause``: a run-boundary flush.  Accounting settles too
          (results and measurement resets read it); the plan stays live.
        * ``park``: a host enqueue broke the plan's futility proof —
          ``read_queue`` flipping the embedded throttle decision, or
          ``bank_demand`` for ``bank``, the other side's row-command bank.
          Callers park only plans whose class rests on that proof
          (:attr:`burst_class`, a row of ``PLAN_TABLE``).
          Enqueues do not re-poll the per-cycle engine's unit, whose
          calendar still holds the next planned cycle, where it re-decides.
          So the plan stays, its wake pulled in to that command, where the
          wake drops it.
        * Otherwise the plan is dropped: counted as completed if all its
          commands elapsed, else under ``cause`` (or its park cause).
        """
        plan = self._plan
        if plan is None:
            return
        if park:
            if cause == "read_queue":
                broken = plan.decision != self.throttle.would_allow(
                    self.channel, self.rank, upto)
            else:
                broken = plan.row_bank == bank
            if not broken:
                return
        self.settle_burst(upto)
        due = self.burst_due
        if park:
            if due != NO_EVENT:
                plan.end = due
                plan.parked = cause
                plan.parked_at = upto
                listener = self.wake_listener
                if listener is not None:
                    listener()
            return
        self._account_burst(plan)
        if cause is None:
            return
        self._plan = None
        self.burst_class = None
        self.burst_due = NO_EVENT
        if due == NO_EVENT:
            self.bursts_completed += 1
        else:
            cause = plan.parked or cause
            self.burst_truncations[cause] = (
                self.burst_truncations.get(cause, 0) + 1)

    def note_host_issue(self, now: int) -> None:
        """A host command issued to this rank at ``now``: stop the plan.

        Streaming usually survives with a shifted cadence, so the re-poll
        the issue triggers plans again (the planner re-reads bank state: a
        host command that perturbed the streak yields no plan).
        """
        if self._plan is not None:
            self.stop_burst(now, "host_issue")
            self._replan_cycle = now

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _refill(self) -> None:
        """Start the next queued work item (the caller checked the queue)."""
        work = self._queue.popleft()
        state = self._active = _ExecutionState(work,
                                               self.dram.org.columns_per_row)
        self.fsm.apply("launch", instruction_id=work.instruction.instruction_id,
                       reads=state.total_read_columns,
                       writes=state.total_write_columns)
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

    def _host_free(self, cycle: int) -> int:
        """Earliest host-free cycle >= ``cycle`` for this rank (the walk of
        ``TimingEngine.next_host_free_cycle``)."""
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
        return self._host_pending_to_bank(
            self.channel, self.rank, addr.bank_index - self._bank_index_base)

    def _classify(self, state: _ExecutionState, addr: DramAddress,
                  is_write: bool) -> None:
        """Record the access's row-buffer outcome (hit/miss/conflict) if the
        command about to issue is its first, so the outcome reflects the
        bank state the access found."""
        if is_write:
            if state.writes_drained > state.write_classified_idx:
                self.dram.record_access_outcome(addr, True, is_nda=True)
                state.write_classified_idx = state.writes_drained
        elif state.reads_issued > state.read_classified_idx:
            self.dram.record_access_outcome(addr, False, is_nda=True)
            state.read_classified_idx = state.reads_issued

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
        if bank.state is _CLOSED:
            kind = _ACT
            cache = self._act_cache
            versions = self._timing_row_versions
        elif bank.open_row == addr.row:
            if is_write:
                kind = _WR
                cache = self._nda_wr_cache
            else:
                kind = _RD
                cache = self._nda_rd_cache
            versions = self._timing_versions
        else:
            kind = _PRE
            cache = self._pre_cache
            versions = self._timing_row_versions
        cached = cache[bank_index]
        if cached[0] == versions[addr.rank_index]:
            earliest = cached[1]
            return kind, (earliest if earliest > now else now)
        return kind, self._timing_earliest_issue_at(kind, addr,
                                                    RequestSource.NDA, now)

    def _side(self, addr: DramAddress, is_write: bool, floor: int) -> Side:
        """The side probe :meth:`next_event_cycle` and :meth:`plan_burst`
        share: what the access to ``addr`` needs next, from ``floor`` on."""
        kind, earliest = self._required_earliest(addr, is_write, floor)
        # A row command the host blocks polls every opportunity.
        blocked = kind.is_row and self._host_wants_bank(addr)
        return _new_record(Side, (addr, kind, self._host_free(
            floor if blocked else earliest), blocked))

    def _issue_toward(self, state: _ExecutionState, addr: DramAddress,
                      is_write: bool, now: int) -> Optional[CommandType]:
        """Issue the next command (PRE/ACT/column) needed for an access.

        Returns the issued command kind, or None when nothing could issue
        (the access is still pending and did not consume this cycle's issue
        slot).
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
        self._classify(state, addr, is_write)
        # required_command + the probe above are exactly the issue-time
        # legality checks; nothing issued in between.
        self.dram.issue_trusted(Command(kind, addr, RequestSource.NDA), now)
        self.commands_issued += 1
        return kind

    def _next_read_addr(self, state: _ExecutionState) -> DramAddress:
        memo = state.read_memo
        if memo[0] != state.reads_issued:
            memo = state.read_memo = (state.reads_issued,
                                      self._addr(*state.next_read()))
        return memo[1]

    def _next_drain_addr(self, state: _ExecutionState) -> DramAddress:
        memo = state.drain_memo
        if memo[0] != state.writes_drained:
            memo = state.drain_memo = (state.writes_drained,
                                       self._addr(*state.next_drain()))
        return memo[1]

    def _try_read(self, now: int, state: _ExecutionState) -> bool:
        issued = self._issue_toward(state, self._next_read_addr(state), False,
                                    now)
        if issued is None or not issued.is_column:
            return False
        state.reads_issued += 1
        self.bytes_read += self.dram.org.cacheline_bytes
        self.fsm.apply("read_issued")
        return True

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
        issued = self._issue_toward(state, self._next_drain_addr(state), True,
                                    now)
        if issued is None or not issued.is_column:
            return False
        self.write_buffer.pop()
        state.writes_drained += 1
        self.bytes_written += self.dram.org.cacheline_bytes
        self.fsm.apply("write_drained")
        return True

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

        The contract (see ``engine/``): before the returned cycle,
        ``try_issue``/``post_cycle`` would neither issue a command, classify
        an access, consume throttle RNG, nor complete an instruction.  A
        drain under a stochastic throttle pins the wake to every host-free
        cycle, so RNG draws land where the cycle-by-cycle loop makes them.
        Access wakes compose the required command's timing horizon with the
        rank's host-busy windows; both stay frozen until the next command to
        the rank, which is this controller's own or arrives as a host-issue
        dirty notification.

        A live plan's wake is its horizon.  The poll is also where plans
        change without a processed wake: the re-poll after a host-issue stop
        plans the shifted streak, and any later re-poll drops a parked plan.
        """
        if self._replan_cycle == now:
            # Re-polled after a host-issue stop: plan here, where the
            # per-cycle engine re-derives its wake, so both decide on the
            # same queue state (the host unit may still have enqueued
            # between the stopping issue and this poll).
            self._replan_cycle = -1
            self.plan_burst(now)
        plan = self._plan
        if plan is not None:
            if plan.parked is None or now <= plan.parked_at:
                return plan.end if plan.end > now else now
            # A parked plan stands for a stale calendar entry; any later
            # re-poll (a measurement reset, delivered work) makes the
            # per-cycle engine re-derive its wake from the current state.
            self.stop_burst(now, "wake")
        state = self._active
        if state is None:
            if not self._queue:
                # Idle ranks stay idle until new work arrives; delivery
                # fires wake_listener, so the engine re-polls in time.
                return NO_EVENT
            # Refill (and the first command of the new work item) happens at
            # the next issue opportunity.
            return self._host_free(now)
        wake = NO_EVENT
        wb = self.write_buffer
        if not wb.empty and (wb.draining or state.reads_done):
            if not self.throttle.deterministic:
                wake = self._host_free(now)
            elif self.throttle.would_allow(self.channel, self.rank, now):
                wake = self._side(self._next_drain_addr(state), True, now).at
            # else: throttled — the block only lifts when the host queue
            # changes: either a read to this rank issues (a host-issue
            # dirty notification re-polls this unit) or an enqueue makes
            # the prediction stricter (which can only delay the drain).
        if not state.reads_done:
            at = self._side(self._next_read_addr(state), False, now).at
            if at < wake:
                wake = at
        return wake

    def save_refs(self, refs) -> Dict[str, object]:
        active = self._active
        if active is not None:
            active = refs.capture(active, {"work": refs.work(active.work)})
        return {"_queue": [refs.work(work) for work in self._queue],
                "_active": active}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        # Direct appends: enqueue would overwrite launched_cycle and fire
        # the wake listener.
        self._queue = deque(refs.load_work(work)
                            for work in saved.pop("_queue"))
        active = saved.pop("_active")
        if active is not None:
            active = dict(active)
            state = _ExecutionState(refs.load_work(active.pop("work")),
                                    self.dram.org.columns_per_row)
            refs.restore(state, active)
            self._active = state

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
