"""The DRAM system façade: banks + timing engine + event statistics.

:class:`DramSystem` is the single object memory controllers talk to.  It
validates command legality (both protocol state and timing), applies the
command to bank state, and accumulates the event counts that the statistics
and energy models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.config import DramOrgConfig, DramTimingConfig
from repro.dram.bank import Bank, BankState
from repro.dram.commands import Command, CommandRecord, CommandType, DramAddress, RequestSource
from repro.dram.timing import TimingEngine


@dataclass
class DramEventCounts:
    """Aggregate DRAM event counts used by the energy and stats models."""

    STATE = ("activates", "precharges", "refreshes", "host_reads",
             "host_writes", "nda_reads", "nda_writes", "host_row_hits",
             "host_row_conflicts", "nda_row_hits", "nda_row_conflicts")

    activates: int = 0
    precharges: int = 0
    refreshes: int = 0
    host_reads: int = 0
    host_writes: int = 0
    nda_reads: int = 0
    nda_writes: int = 0
    host_row_hits: int = 0
    host_row_conflicts: int = 0
    nda_row_hits: int = 0
    nda_row_conflicts: int = 0

    @property
    def host_columns(self) -> int:
        return self.host_reads + self.host_writes

    @property
    def nda_columns(self) -> int:
        return self.nda_reads + self.nda_writes


class DramSystem:
    """All banks of the memory system plus the timing engine."""

    STATE = ("timing", "_banks")
    COUNTERS = ("counts",)
    DERIVED = ("org", "timing_config", "_ranks_per_channel",
               "_banks_per_group", "_banks_per_rank", "observer",
               "channel_issue_version")

    def __init__(self, org: DramOrgConfig, timing: DramTimingConfig) -> None:
        org.validate()
        timing.validate()
        self.org = org
        self.timing_config = timing
        self.timing = TimingEngine(org, timing)
        self.counts = DramEventCounts()
        #: The command observer: called with a :class:`CommandRecord` for
        #: every command, exactly once — per-cycle issues from
        #: :meth:`issue_trusted`, a burst plan's commands as they settle.
        self.observer: Optional[Callable[[CommandRecord], None]] = None
        self._ranks_per_channel = org.ranks_per_channel
        self._banks_per_group = org.banks_per_group
        self._banks_per_rank = org.banks_per_rank
        #: Per-channel issue counters: bumped by every command issued to any
        #: rank of the channel.  A channel's bank/timing state is a pure
        #: function of its issue history, so schedulers memoize scan results
        #: against this (plus their queue versions).  (The per-rank twin of
        #: this counter is gone: the NDA wake caches it tagged were replaced
        #: by push notifications — host issues reach the rank units through
        #: the concurrent-access scheduler's wake hub, see core/scheduler.)
        #: Derived like the timing engine's issue versions: scan caches
        #: start cold (tag -1), so a restore need not carry it.
        self.channel_issue_version: List[int] = [0] * org.channels
        #: Banks in dense ``bank_index`` order: all banks of one rank are
        #: contiguous, ranks in ``rank_index`` order.
        self._banks: List[Bank] = [
            Bank(ch, rk, bg, bk)
            for ch in range(org.channels)
            for rk in range(org.ranks_per_channel)
            for bg in range(org.bank_groups)
            for bk in range(org.banks_per_group)
        ]

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #

    def bank_index(self, addr: DramAddress) -> int:
        """Dense flat index of the addressed bank (stamp or arithmetic)."""
        index = addr.bank_index
        if index >= 0:
            return index
        return ((addr.channel * self._ranks_per_channel + addr.rank)
                * self._banks_per_rank
                + addr.bank_group * self._banks_per_group + addr.bank)

    def bank(self, addr: DramAddress) -> Bank:
        return self._banks[self.bank_index(addr)]

    def banks_of_rank(self, channel: int, rank: int) -> List[Bank]:
        start = (channel * self._ranks_per_channel + rank) * self._banks_per_rank
        return self._banks[start:start + self._banks_per_rank]

    # ------------------------------------------------------------------ #
    # Command legality and the prerequisite sequence for an access
    # ------------------------------------------------------------------ #

    def required_command(self, addr: DramAddress, is_write: bool) -> CommandType:
        """The next command needed to complete a column access to ``addr``.

        Follows the open-page protocol: a row conflict requires a PRE, a
        closed bank requires an ACT, an open matching row allows RD/WR.
        """
        index = addr.bank_index
        if index < 0:
            index = ((addr.channel * self._ranks_per_channel + addr.rank)
                     * self._banks_per_rank
                     + addr.bank_group * self._banks_per_group + addr.bank)
        bank = self._banks[index]
        if bank.state is BankState.CLOSED:
            return CommandType.ACT
        if bank.open_row == addr.row:
            return CommandType.WR if is_write else CommandType.RD
        return CommandType.PRE

    def can_issue_at(self, kind: CommandType, addr: DramAddress,
                     source: RequestSource, now: int) -> bool:
        """Protocol-state plus timing legality of ``(kind, addr)`` at ``now``.

        Schedulers probe candidate commands with it without allocating a
        :class:`Command`.
        """
        bank = self.bank(addr)
        if kind is CommandType.ACT and bank.state is BankState.OPEN:
            return False
        if kind is CommandType.RD or kind is CommandType.WR:
            if not bank.is_open(addr.row):
                return False
        if kind is CommandType.REF:
            if any(b.state is BankState.OPEN
                   for b in self.banks_of_rank(addr.channel, addr.rank)):
                return False
        return self.timing.earliest_issue_at(kind, addr, source, now) <= now

    def earliest_issue_at(self, kind: CommandType, addr: DramAddress,
                          source: RequestSource, now: int) -> int:
        """Timing-only earliest issue cycle of ``(kind, addr)`` (value-based)."""
        return self.timing.earliest_issue_at(kind, addr, source, now)

    def issue(self, cmd: Command, now: int) -> None:
        """Issue ``cmd``: update bank state, timing state and event counts."""
        if not self.can_issue_at(cmd.kind, cmd.addr, cmd.source, now):
            raise ValueError(f"illegal command at cycle {now}: {cmd}")
        self.issue_trusted(cmd, now)

    def issue_trusted(self, cmd: Command, now: int,
                      plan: Optional[str] = None) -> None:
        """Issue a command the caller has just proven legal.

        The scheduler hot paths (FR-FCFS pick, NDA issue) probe protocol
        state and timing immediately before issuing, with no intervening
        DRAM mutation, so the :meth:`issue` re-validation would repeat the
        exact same checks.  State effects are identical to :meth:`issue`.
        ``plan`` names the burst plan class of an absorbed row command.
        """
        addr = cmd.addr
        self.channel_issue_version[addr.channel] += 1
        index = addr.bank_index
        bank = self._banks[index] if index >= 0 else self.bank(addr)
        is_nda = cmd.is_nda
        kind = cmd.kind

        # Dispatch ordered by frequency: column commands dominate.
        if kind is CommandType.RD:
            if is_nda:
                self.counts.nda_reads += 1
            else:
                self.counts.host_reads += 1
        elif kind is CommandType.WR:
            if is_nda:
                self.counts.nda_writes += 1
            else:
                self.counts.host_writes += 1
        elif kind is CommandType.ACT:
            bank.activate(addr.row)
            self.counts.activates += 1
        elif kind is CommandType.PRE:
            bank.precharge()
            self.counts.precharges += 1
        else:  # REF
            self.counts.refreshes += 1
        self.timing.issue(cmd, now)
        if self.observer is not None:
            self.observer(CommandRecord.of(now, cmd, plan))

    def issue_nda_run(self, kind: CommandType, addr: DramAddress,
                      last: int) -> None:
        """Settle the timing of a run of NDA column commands to ``addr``'s
        bank ending at cycle ``last`` (a burst plan's elapsed prefix).

        The run's twin of :meth:`issue_trusted`: column commands leave the
        bank state alone, and the event counts are the caller's (burst
        accounting defers them to plan boundaries).
        """
        self.channel_issue_version[addr.channel] += 1
        self.timing.issue_nda_run(kind, addr, last)

    def record_access_outcome(self, addr: DramAddress, is_nda: bool) -> str:
        """Classify and record the row-buffer outcome of a new column access.

        Memory controllers call this once per access, at the moment the
        access is first scheduled (before any PRE/ACT it may require), so the
        hit/miss/conflict classification reflects the bank state the access
        found.  Returns the outcome string.
        """
        index = addr.bank_index
        bank = self._banks[index] if index >= 0 else self.bank(addr)
        # Classify and record inline: this runs once per column access.
        counts = self.counts
        if bank.state is BankState.CLOSED:
            return "miss"
        if bank.open_row == addr.row:
            if is_nda:
                counts.nda_row_hits += 1
            else:
                counts.host_row_hits += 1
            return "hit"
        if is_nda:
            counts.nda_row_conflicts += 1
        else:
            counts.host_row_conflicts += 1
        return "conflict"

    # ------------------------------------------------------------------ #
    # Convenience queries used by schedulers and statistics
    # ------------------------------------------------------------------ #

    def refresh_due(self, channel: int, rank: int, now: int) -> bool:
        return self.timing.refresh_due(channel, rank, now)

    def next_host_free_cycle(self, channel: int, rank: int, now: int) -> int:
        return self.timing.next_host_free_cycle(channel, rank, now)

    def host_busy_runs(self, channel: int, rank: int, start: int,
                       stop: int) -> List[Tuple[bool, int]]:
        return self.timing.host_busy_runs(channel, rank, start, stop)

    def read_latency(self) -> int:
        return self.timing.read_latency()

    def write_latency(self) -> int:
        return self.timing.write_latency()
