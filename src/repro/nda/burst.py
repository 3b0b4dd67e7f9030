"""Burst plans: closed-form schedules of an NDA rank's steady-state streaks.

In steady-state streaming an NDA rank controller's next K commands are
same-bank column commands at the fixed cadence ``max(tCCD_S, tBL)``, while
the other side — the next read, or the pending drain — provably does nothing
but, at most, one row transition on another bank.  :class:`StreakPlanner`
captures such a streak as a :class:`BurstPlan`, a pure schedule: nothing in
the simulation changes when a plan is made.  ``NdaRankController`` settles
the plan's elapsed prefix lazily and stops it when an outside event breaks
the proof it rests on.

The planner is a function of two records: the *side probe* (one
:class:`Side` per side: what its access needs next, and when) and the
:class:`Caps` (the limits a plan may not cross).  :data:`PLAN_TABLE` lists
the four plan classes; ARCHITECTURE.md ("Burst issue") mirrors it and has
the futility proofs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple

from repro.config import DramTimingConfig
from repro.dram.commands import Command, CommandType, DramAddress, RequestSource

#: Sentinel for "no such cycle" (matches the engine's INFINITY).
NO_EVENT = 1 << 62

_ACT = CommandType.ACT
_PRE = CommandType.PRE
_RD = CommandType.RD
_WR = CommandType.WR
_NDA = RequestSource.NDA


class PlanClass(NamedTuple):
    """One row of the plan-class table."""

    name: str
    #: The side whose row-hit column commands the plan carries.
    leads: str
    #: What the other side is doing meanwhile.
    other: str
    #: Why the other side cannot act on any planned cycle.
    lemma: str
    #: Whether the plan may carry the other side's row commands on another
    #: bank — and so stops when the host starts wanting that bank
    #: (``bank_demand``).
    absorbs_rows: bool
    #: Whether the plan freezes the throttle's decision on a pending drain —
    #: and so stops when a read-queue change flips it (``read_queue``).
    embeds_decision: bool


_READS = "row-hit `RD`s of the current `(operand, row)` run"
_DRAINS = "row-hit `WR`s of the buffer head's row"
_PUSHES = "pushed column command; absorbed row transition; pushed precharge"
READ_STREAK = PlanClass("read_streak", _READS, "no drain pending", "none",
                        False, False)
DRAIN_TAIL = PlanClass("drain_tail", _DRAINS, "reads done", "none",
                       False, True)
DRAIN_RUN = PlanClass("drain_run", _DRAINS, "reads remain", _PUSHES,
                      True, True)
READ_UNDER_DRAIN = PlanClass("read_under_drain", _READS, "buffer draining",
                             "inhibited; " + _PUSHES, True, True)

#: The plan classes.  ``burst_stats()["planned_by_class"]`` is keyed by
#: their names, in this order.
PLAN_TABLE = (READ_STREAK, DRAIN_TAIL, DRAIN_RUN, READ_UNDER_DRAIN)
PLAN_CLASSES = tuple(row.name for row in PLAN_TABLE)


class Side(NamedTuple):
    """What one side needs next, probed at a floor cycle (the side probe)."""

    addr: DramAddress
    #: The command the access needs next.
    kind: CommandType
    #: The first host-free cycle from its timing horizon — from the floor
    #: when ``blocked``: the per-cycle path then polls every opportunity.
    at: int
    #: A row command to a bank the host has requests for.
    blocked: bool


class Caps(NamedTuple):
    """The active instruction's and the rank's limits on a plan."""

    #: Reads left in the current ``(operand, row)`` run, the next included.
    read_run: int = 0
    #: Reads before the instruction's final one (its post-cycle triggers
    #: force-drain and completion).
    reads_left: int = 0
    #: Reads until the staged push that flips the buffer into its drain
    #: phase (``NO_EVENT``: none, or the instruction writes nothing).
    stage_flip: int = NO_EVENT
    #: Writes left in the buffer head's row, the head included.
    drain_run: int = 0
    #: Pops before the one that would cross the low watermark.
    pops_left: int = 0
    #: Start of the rank's latest host data burst.
    data_busy_from: int = 0
    #: The rank's refresh-due cycle (``NO_EVENT`` with refresh off).
    refresh_due: int = NO_EVENT


@dataclass(eq=False)
class BurstPlan:
    """A planned streak: ``count`` column commands ``kind`` to ``addr``'s row
    at ``start + j * step``, plus the other side's absorbed row commands
    ``rows`` (``(cycle, Command)``, in cycle order, never on a planned
    cycle).  ``end`` — past the last command: the burst horizon — is the
    owning unit's calendar wake while the plan lives.

    ``idx`` and ``row_idx`` count the column and row commands whose timing
    has settled, and ``due`` is the cycle of the first unsettled one of
    either kind (``NO_EVENT`` once all have); ``acc_idx`` counts the column
    commands whose accounting (counters, FSM, staging) has settled, which
    defers to plan boundaries.
    """

    cls: PlanClass
    addr: DramAddress
    kind: CommandType
    start: int
    step: int
    count: int
    end: int
    #: The throttle decision every planned cycle's drain attempt gets
    #: (``None``: no drain pending).
    decision: Optional[bool]
    #: Global index of the bank the other side's row commands target (-1:
    #: none); the proof that they stay futile assumes the host does not
    #: want it.
    row_bank: int
    rows: List[Tuple[int, Command]]
    #: Whether a row command the plan could not absorb cut it short.
    row_gapped: bool
    due: int
    #: The first command's access was classified by its row command;
    #: classification is per access, so settlement must not record it again
    #: (set by the controller, which keeps the classification cursors).
    skip_first: bool = False
    idx: int = 0
    row_idx: int = 0
    acc_idx: int = 0
    #: The cause a parked plan stopped for, and the cycle it parked at.
    parked: Optional[str] = None
    parked_at: int = -1

    def command_at(self, j: int) -> int:
        """Cycle of column command ``j``."""
        return self.start + j * self.step

    def advance(self, upto: int) -> int:
        """Count the column commands at cycles before ``upto`` as settled
        (the caller has settled the row commands before it) and refresh
        :attr:`due`; returns the cycle of the last newly settled column
        command, or -1."""
        start, step, idx = self.start, self.step, self.idx
        last = -1
        j = (upto - 1 - start) // step + 1
        if j > self.count:
            j = self.count
        if j > idx:
            self.idx = idx = j
            last = start + (j - 1) * step
        due = start + idx * step if idx < self.count else NO_EVENT
        rows = self.rows
        if rows and self.row_idx < len(rows) and rows[self.row_idx][0] < due:
            due = rows[self.row_idx][0]
        self.due = due
        return last

    def commands(self) -> Iterator[Tuple[int, Command]]:
        """Every planned command — column commands and absorbed row
        commands — as ``(cycle, Command)``, in cycle order."""
        addr = self.addr
        kind = self.kind
        columns = ((self.command_at(j),
                    Command(kind, addr.with_column(addr.column + j), _NDA))
                   for j in range(self.count))
        return heapq.merge(columns, self.rows, key=lambda item: item[0])


class StreakPlanner(NamedTuple):
    """Plans one rank's streaks from the side probe and the caps.

    ``host_free(cycle)`` is the rank's first host-free cycle from ``cycle``;
    ``act_after(addr, pre_cycle)`` the earliest ACT of ``addr``'s bank once a
    PRE to it issues at ``pre_cycle``.  The ``*_pushes_*`` flags are the
    static platform properties the futility lemmas rest on: each planned
    command of the first kind pushes the other side's next command of the
    second kind strictly past the following planned cycle.
    """

    step: int
    host_free: Callable[[int], int]
    act_after: Callable[[DramAddress, int], int]
    wr_pushes_rd: bool = True
    rd_pushes_wr: bool = True
    wr_pushes_pre: bool = True
    rd_pushes_pre: bool = True

    @classmethod
    def for_timing(cls, t: DramTimingConfig, host_free: Callable[[int], int],
                   act_after: Callable[[DramAddress, int], int],
                   ) -> "StreakPlanner":
        step = max(t.tCCDS, t.tBL)
        return cls(step, host_free, act_after,
                   wr_pushes_rd=t.tCWL + t.tBL + min(t.tWTRS, t.tWTRL) > step,
                   rd_pushes_wr=t.read_to_write > step,
                   wr_pushes_pre=t.write_to_precharge > step,
                   rd_pushes_pre=t.tRTP > step)

    def plan(self, read: Optional[Side], drain: Optional[Side],
             decision: Optional[bool], caps: Caps) -> Optional[BurstPlan]:
        """The plan for the streak of the side whose row-hit column command
        comes first (drains win a tie), or None when no streak of at least
        two commands is provably regular.

        ``read`` is None once reads are done; ``decision`` is the
        deterministic throttle's verdict on the pending drain (None: no
        drain pending), and ``drain`` its probe when the verdict is True.
        """
        write_at = drain.at if decision and drain.kind is _WR else None
        read_at = read.at if read is not None and read.kind is _RD else None
        if write_at is not None and (read_at is None or write_at <= read_at):
            lead, other, start = drain, read, write_at
            pushes_col, pushes_pre = self.wr_pushes_rd, self.wr_pushes_pre
            cls = DRAIN_RUN if read is not None else DRAIN_TAIL
            run, left = caps.drain_run, caps.pops_left
        elif read_at is not None:
            lead, other, start = read, drain if decision else None, read_at
            pushes_col, pushes_pre = self.rd_pushes_wr, self.rd_pushes_pre
            cls = READ_STREAK if decision is None else READ_UNDER_DRAIN
            run, left = caps.read_run, caps.reads_left
        else:
            return None
        # The other side's row commands the plan absorbs, the first cycle
        # it could act otherwise (the row gap), and the bank they target.
        rows: List[Tuple[int, Command]] = []
        gap = NO_EVENT
        row_bank = -1
        if other is not None:
            if other.kind.is_column:
                if not pushes_col:
                    return None
            else:
                row_bank = other.addr.bank_index
                rows, gap = self._absorb(other, lead.addr.bank_index, start,
                                         pushes_pre, pushes_col)
        if left < 2 or gap <= start:
            return None
        # Up to the end of the same-row run, or to the class's last
        # command (the final read; the pop before the low watermark).  A
        # row end after the planned run means a row command follows;
        # otherwise another command of the streak, one step past the plan.
        count = run if run < left else left
        row_end = run <= left
        step = self.step
        # A later host data burst on the rank blocks the concurrent-access
        # gate mid-streak: plan only up to its start.
        if caps.data_busy_from > start:
            cap = (caps.data_busy_from - start - 1) // step + 1
            if count > cap:
                count = cap
                row_end = False
        if decision is None and caps.stage_flip <= count:
            # Drains gain priority right after the flip (a read streak's).
            count = caps.stage_flip
            row_end = True
        # The gate blocks NDA issue from the refresh-due cycle onward; the
        # deadline is frozen while the plan lives (only a REF moves it, and
        # every host issue to the rank stops the plan first).
        if caps.refresh_due <= start:
            return None
        cap = (caps.refresh_due - 1 - start) // step + 1
        if count > cap:
            count = cap
            row_end = True
        # Only commands strictly before the row gap are planned.
        cap = (gap - 1 - start) // step + 1
        row_gapped = count > cap
        if row_gapped:
            count = cap
            row_end = False
        if row_end:
            # What follows the run's last command is decided by a re-poll
            # right after it: leave that command to the per-cycle path, so
            # the plan always ends on a continuation of the streak.
            count -= 1
        if count < 2:
            return None
        # Absorb only row commands before the last planned column command;
        # the first one left out is the row gap.
        last = start + (count - 1) * step
        while rows and rows[-1][0] > last:
            gap = rows.pop()[0]
        # The next command of the streak cannot issue before one step past
        # the plan composed with the frozen host-free windows: the
        # per-cycle engine's next wake, and so the plan's.
        end = self.host_free(start + count * step)
        if gap < end:
            end = gap
        return BurstPlan(cls, lead.addr, lead.kind, start, step, count, end,
                         decision, row_bank, rows, row_gapped,
                         rows[0][0] if rows and rows[0][0] < start else start)

    def _absorb(self, other: Side, lead_bank: int, start: int,
                pushes_pre: bool, pushes_col: bool,
                ) -> Tuple[List[Tuple[int, Command]], int]:
        """The other side's row commands a plan starting at ``start`` can
        absorb, and the first cycle that side acts otherwise (0: no plan).

        On another bank its ACT/PRE horizon is frozen while only column
        commands issue to the leading bank, so the command is absorbed at
        ``other.at``; a PRE's ACT follows at ``act_after`` (equally frozen),
        and after the ACT the side's column command is pushed past every
        next planned cycle (``pushes_col``).  An ACT is absorbed only after
        the plan's first command, so that the push covers it.  A command
        landing on a planned cycle is not absorbed (``try_issue`` would
        order the two sides): it is the gap.  On the leading bank itself (a
        PRE: the bank is open on the leading row) every planned command
        pushes it past the next planned cycle (``pushes_pre``), so once the
        first command beats it, it never comes due.  A row command the host
        blocks means no plan: the per-cycle path polls, and counts, every
        blocked opportunity.
        """
        if other.blocked:
            return [], 0
        gap = other.at
        addr = other.addr
        if addr.bank_index == lead_bank:
            return [], (NO_EVENT if pushes_pre and gap > start else 0)
        step = self.step
        rows: List[Tuple[int, Command]] = []
        if other.kind is _PRE:
            if gap >= start and (gap - start) % step == 0:
                return rows, gap
            rows.append((gap, Command(_PRE, addr, _NDA)))
            gap = self.host_free(self.act_after(addr, gap))
        if not pushes_col or gap <= start or (gap - start) % step == 0:
            return rows, gap
        rows.append((gap, Command(_ACT, addr, _NDA)))
        return rows, NO_EVENT


def stage_flip(state, write_buffer) -> int:
    """Reads, from now, until staging enters the drain phase (a read
    plan's last command: drains gain priority right after it).

    The flip is the push of write ``target``: the first to reach length
    ``drain_high_len``, or the next one if the buffer already holds that
    many (coinciding watermarks).  The frontier reaches it once
    ``ceil(reads * total_writes / total_reads) >= target``.  ``NO_EVENT``
    when writes or capacity stop staging short of it.
    """
    drained = state.writes_drained
    target = drained + write_buffer.drain_high_len
    if target <= state.writes_staged:
        target = state.writes_staged + 1
    writes = state.total_write_columns
    if target > writes or target > drained + write_buffer.capacity:
        return NO_EVENT
    reads = (target - 1) * state.total_read_columns // writes + 1
    flip = reads - state.reads_issued
    return flip if flip > 1 else 1
