"""DDR4 timing-constraint engine.

The engine tracks, for every bank, rank and channel, the earliest cycle at
which each command type may legally issue, applying the Table II parameters:

* per bank:  tRCD, tRP, tRAS, tRC, tRTP, write recovery (tCWL+tBL+tWR)
* per rank:  tRRD_S/tRRD_L, tFAW, tCCD_S/tCCD_L, write-to-read turnaround
             (tCWL+tBL+tWTR_S/L), read-to-write turnaround
* per channel (host column commands only): data-bus occupancy (tBL) and
             rank-to-rank switching (tRTRS)
* per rank (NDA column commands only): internal data-bus occupancy

Host and NDA column commands to the *same rank* share the rank-level
constraints (the DRAM IO circuitry is shared inside the rank), which is the
source of the read/write-turnaround interference studied in Section III-B.
Host and NDA commands to *different ranks* only interact through the
channel-level constraints, which NDA commands do not use.

Hot-path layout: per-bank and per-rank state lives in flat lists indexed by
the dense ``rank_index``/``bank_index`` stamped on :class:`DramAddress` at
decode time (with an arithmetic fallback for unstamped addresses), and the
constraint check is exposed value-based as :meth:`earliest_issue_at` /
:meth:`can_issue_at` so schedulers can scan candidate ``(kind, addr)`` pairs
without allocating a :class:`Command` per probe.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.config import DramOrgConfig, DramTimingConfig
from repro.dram.commands import Command, CommandType, DramAddress, RequestSource


class _RankTiming:
    """Mutable timing state of one rank."""

    __slots__ = (
        "act_allowed", "act_allowed_bg", "faw_window",
        "last_read_cycle", "last_read_bg",
        "last_host_read_cycle", "last_nda_read_cycle",
        "last_write_cycle", "last_write_bg",
        "busy_until", "data_busy_from", "data_busy_until",
        "nda_bus_free", "refresh_due", "refreshing_until",
    )
    STATE = __slots__

    def __init__(self, bank_groups: int, tREFI: int) -> None:
        self.act_allowed = 0
        self.act_allowed_bg = [0] * bank_groups
        self.faw_window: Deque[int] = deque(maxlen=4)
        self.last_read_cycle = -(10 ** 9)
        self.last_read_bg = -1
        self.last_host_read_cycle = -(10 ** 9)
        self.last_nda_read_cycle = -(10 ** 9)
        self.last_write_cycle = -(10 ** 9)
        self.last_write_bg = -1
        self.busy_until = 0
        self.data_busy_from = 0
        self.data_busy_until = 0
        self.nda_bus_free = 0
        self.refresh_due = tREFI
        self.refreshing_until = 0


class _BankTiming:
    """Mutable timing state of one bank."""

    __slots__ = ("act_allowed", "pre_allowed", "rd_allowed", "wr_allowed")
    STATE = __slots__

    def __init__(self) -> None:
        self.act_allowed = 0
        self.pre_allowed = 0
        self.rd_allowed = 0
        self.wr_allowed = 0


class _ChannelTiming:
    """Mutable timing state of one channel's shared buses (host side)."""

    __slots__ = ("data_bus_free", "last_col_rank", "last_data_end")
    STATE = __slots__

    def __init__(self) -> None:
        self.data_bus_free = 0
        self.last_col_rank = -1
        self.last_data_end = 0


class TimingEngine:
    """Tracks and enforces DDR4 timing constraints for every command."""

    STATE = ("_ranks", "_banks", "_channels", "_channel_refresh_due")
    DERIVED = ("org", "timing", "_read_to_write", "_write_to_precharge",
               "_tCL", "_tCWL", "_tBL", "_tCCDS", "_tCCDL", "_tWTRS", "_tWTRL",
               "_tRTRS", "_wr_to_rd", "_ranks_per_channel", "_banks_per_group",
               "_banks_per_rank", "_act_cache", "_pre_cache", "_nda_rd_cache",
               "_nda_wr_cache", "busy_observer", "_issue_versions",
               "_row_versions")

    def __init__(self, org: DramOrgConfig, timing: DramTimingConfig) -> None:
        self.org = org
        self.timing = timing
        # Snapshot of the derived timing sums and the column-command scalars
        # (plain attributes; the config recomputes the sums per property
        # access and even plain dataclass reads are measurable at the
        # probe rate the scans sustain).
        self._read_to_write = timing.read_to_write
        self._write_to_precharge = timing.write_to_precharge
        self._tCL = timing.tCL
        self._tCWL = timing.tCWL
        self._tBL = timing.tBL
        self._tCCDS = timing.tCCDS
        self._tCCDL = timing.tCCDL
        self._tWTRS = timing.tWTRS
        self._tWTRL = timing.tWTRL
        self._tRTRS = timing.tRTRS
        self._wr_to_rd = timing.tCWL + timing.tBL
        self._ranks_per_channel = org.ranks_per_channel
        self._banks_per_group = org.banks_per_group
        self._banks_per_rank = org.banks_per_rank
        total_ranks = org.channels * org.ranks_per_channel
        self._ranks: List[_RankTiming] = [
            _RankTiming(org.bank_groups, timing.tREFI) for _ in range(total_ranks)
        ]
        self._banks: List[_BankTiming] = [
            _BankTiming() for _ in range(total_ranks * org.banks_per_rank)
        ]
        self._channels: List[_ChannelTiming] = [
            _ChannelTiming() for _ in range(org.channels)
        ]
        # Min refresh_due over each channel's ranks; refreshed on REF issue
        # only, so the per-cycle wake computation reads one value instead of
        # looping over ranks.
        self._channel_refresh_due: List[int] = [timing.tREFI] * org.channels
        # Row-command probe caches.  ACT and PRE constraints are purely
        # rank/bank-local, so their absolute earliest-issue cycles stay
        # valid until the next command issues to the owning rank; scans
        # re-probe every queued bank every cycle and mostly hit here.
        #
        # Two version counters per rank: ``_issue_versions`` advances on
        # *every* command (column spacing, turnaround and bus state move on
        # column commands, so the NDA column caches key on it), while
        # ``_row_versions`` advances only on ACT/PRE/REF — no constraint an
        # ACT probe reads moves on a column command, and the one PRE input a
        # column command does move (its own bank's tRTP/tWR horizon) is
        # invalidated point-wise at issue.  Host FR-FCFS scans therefore
        # keep their ACT/PRE horizon hits across dense NDA column streams.
        # Both are derived: only ever compared for equality with the tags
        # of probe caches, whose cold entries carry -1, so the zeroed
        # counters of a restored system cannot match a stale entry.
        self._issue_versions: List[int] = [0] * total_ranks
        self._row_versions: List[int] = [0] * total_ranks
        total_banks = total_ranks * org.banks_per_rank
        self._act_cache: List[Tuple[int, int]] = [(-1, 0)] * total_banks
        self._pre_cache: List[Tuple[int, int]] = [(-1, 0)] * total_banks
        # NDA column commands never touch the channel bus, so their
        # absolute horizons are rank-local and cache the same way.
        self._nda_rd_cache: List[Tuple[int, int]] = [(-1, 0)] * total_banks
        self._nda_wr_cache: List[Tuple[int, int]] = [(-1, 0)] * total_banks
        #: Invoked as ``busy_observer(channel, rank, now)`` immediately
        #: before a command mutates the rank's host-busy state (busy_until /
        #: data-burst windows).  The windowed idle statistics use it to
        #: flush lazily-accumulated observations while the pre-mutation
        #: state — which exactly describes the elapsed window — is still
        #: available.  NDA column commands never mutate host-busy state and
        #: skip the callback.
        self.busy_observer: Optional[Callable[[int, int, int], None]] = None

    def clear_probe_caches(self) -> None:
        """Start every probe cache cold, in place (hot paths hold the lists)."""
        for cache in (self._act_cache, self._pre_cache, self._nda_rd_cache,
                      self._nda_wr_cache):
            cache[:] = [(-1, 0)] * len(cache)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def _indices(self, addr: DramAddress) -> Tuple[int, int]:
        """(rank_index, bank_index) of ``addr``, from stamp or arithmetic."""
        bank_index = addr.bank_index
        if bank_index >= 0:
            return addr.rank_index, bank_index
        rank_index = addr.channel * self._ranks_per_channel + addr.rank
        return rank_index, (rank_index * self._banks_per_rank
                            + addr.bank_group * self._banks_per_group + addr.bank)

    def rank_state(self, channel: int, rank: int) -> _RankTiming:
        return self._ranks[channel * self._ranks_per_channel + rank]

    # ------------------------------------------------------------------ #
    # Constraint checks
    # ------------------------------------------------------------------ #

    def earliest_issue_at(self, kind: CommandType, addr: DramAddress,
                          source: RequestSource, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``(kind, addr)`` may issue.

        Value-based hot-path entry point: the FR-FCFS and NDA schedulers
        probe every candidate through this (no ``Command`` allocation) and
        build a command object only for the access they actually issue.
        """
        t = self.timing
        bank_index = addr.bank_index
        if bank_index >= 0:
            rank_index = addr.rank_index
        else:
            rank_index = addr.channel * self._ranks_per_channel + addr.rank
            bank_index = (rank_index * self._banks_per_rank
                          + addr.bank_group * self._banks_per_group + addr.bank)
        bank = self._banks[bank_index]
        rank = self._ranks[rank_index]

        # Comparisons instead of max(): this function dominates the hot
        # path, and the builtin's call overhead is measurable at this rate.
        # Every constraint is an absolute cycle, so each branch accumulates
        # the ``now``-independent horizon and clamps to ``now`` at the end;
        # that makes the horizons cacheable per (bank, kind) wherever they
        # are rank-local (ACT/PRE, and NDA column commands).
        if kind is CommandType.RD or kind is CommandType.WR:
            # Column commands.  NDA accesses move data over the rank's
            # internal (TSV) path rather than the chip IO mux, so
            # back-to-back NDA column commands are paced at tCCD_S even
            # within one bank group; all cross-type turnaround constraints
            # still apply because the bank and sense-amp resources are
            # shared with host accesses.
            is_nda = source is RequestSource.NDA
            if is_nda:
                cache = (self._nda_rd_cache if kind is CommandType.RD
                         else self._nda_wr_cache)
                version = self._issue_versions[rank_index]
                cached = cache[bank_index]
                if cached[0] == version:
                    absolute = cached[1]
                    return absolute if absolute > now else now
            absolute = rank.refreshing_until
            ccd_long = self._tCCDS if is_nda else self._tCCDL
            if kind is CommandType.RD:
                if bank.rd_allowed > absolute:
                    absolute = bank.rd_allowed
                # read-after-read spacing within the rank
                spacing = rank.last_read_cycle + (
                    ccd_long if addr.bank_group == rank.last_read_bg
                    else self._tCCDS)
                if spacing > absolute:
                    absolute = spacing
                # write-to-read turnaround within the rank
                wtr = (self._tWTRL if addr.bank_group == rank.last_write_bg
                       else self._tWTRS)
                turnaround = rank.last_write_cycle + self._wr_to_rd + wtr
                if turnaround > absolute:
                    absolute = turnaround
                data_start_offset = self._tCL
            else:  # WR
                if bank.wr_allowed > absolute:
                    absolute = bank.wr_allowed
                spacing = rank.last_write_cycle + (
                    ccd_long if addr.bank_group == rank.last_write_bg
                    else self._tCCDS)
                if spacing > absolute:
                    absolute = spacing
                # Read-to-write turnaround is a data-bus direction change, so
                # it only applies between accesses sharing a data path: host
                # reads and host writes share the channel DQ bus, NDA reads
                # and NDA writes share the rank-internal path.  A read on the
                # *other* path only imposes the basic column spacing.
                if is_nda:
                    same_path_read = rank.last_nda_read_cycle
                    other_path_read = rank.last_host_read_cycle
                else:
                    same_path_read = rank.last_host_read_cycle
                    other_path_read = rank.last_nda_read_cycle
                turnaround = same_path_read + self._read_to_write
                if turnaround > absolute:
                    absolute = turnaround
                spacing = other_path_read + self._tCCDS
                if spacing > absolute:
                    absolute = spacing
                data_start_offset = self._tCWL

            if is_nda:
                # NDA column accesses use the rank-internal bus only; the
                # data burst must wait for the bus, pushing the command back
                # by the burst's start offset.
                bus = rank.nda_bus_free - data_start_offset
                if bus > absolute:
                    absolute = bus
                cache[bank_index] = (version, absolute)
                return absolute if absolute > now else now

            # Host column accesses use the shared channel data bus: the
            # data burst (command + CL/CWL) must clear the bus-free cycle
            # and, when the previous burst came from another rank, the
            # rank-to-rank switching gap.
            channel = self._channels[addr.channel]
            bus = channel.data_bus_free - data_start_offset
            if bus > absolute:
                absolute = bus
            if channel.last_col_rank not in (-1, addr.rank):
                switch = channel.last_data_end + self._tRTRS - data_start_offset
                if switch > absolute:
                    absolute = switch
            return absolute if absolute > now else now

        if kind is CommandType.ACT:
            version = self._row_versions[rank_index]
            cached = self._act_cache[bank_index]
            if cached[0] == version:
                absolute = cached[1]
                return absolute if absolute > now else now
            absolute = rank.refreshing_until
            if bank.act_allowed > absolute:
                absolute = bank.act_allowed
            if rank.act_allowed > absolute:
                absolute = rank.act_allowed
            bg_allowed = rank.act_allowed_bg[addr.bank_group]
            if bg_allowed > absolute:
                absolute = bg_allowed
            if len(rank.faw_window) == 4:
                faw = rank.faw_window[0] + t.tFAW
                if faw > absolute:
                    absolute = faw
            self._act_cache[bank_index] = (version, absolute)
            return absolute if absolute > now else now

        if kind is CommandType.PRE:
            version = self._row_versions[rank_index]
            cached = self._pre_cache[bank_index]
            if cached[0] == version:
                absolute = cached[1]
            else:
                absolute = rank.refreshing_until
                if bank.pre_allowed > absolute:
                    absolute = bank.pre_allowed
                self._pre_cache[bank_index] = (version, absolute)
            return absolute if absolute > now else now

        # REF
        refreshing = rank.refreshing_until
        return refreshing if refreshing > now else now

    def act_after_precharge(self, addr: DramAddress, pre_cycle: int) -> int:
        """Earliest cycle at which ``addr``'s bank may be activated once a
        ``PRE`` to it issues at ``pre_cycle``.

        The precharge moves exactly one ACT input — its own bank's horizon,
        to ``pre_cycle + tRP`` (``issue`` takes the max) — so the answer is
        the current ACT horizon composed with that, read through the ACT law
        itself.  The burst planner uses it to schedule a row transition of
        another bank ahead of time.
        """
        return self.earliest_issue_at(CommandType.ACT, addr, RequestSource.NDA,
                                      pre_cycle + self.timing.tRP)

    def host_column_base(self, is_read: bool, addr: DramAddress) -> int:
        """Bank-independent part of a host column command's earliest cycle.

        Exactly the host-column branch of :meth:`earliest_issue_at` minus
        the per-bank tRCD horizon (``rd_allowed``/``wr_allowed``) and the
        ``now`` clamp, which the caller applies.  The FR-FCFS bucketed scan
        uses it as its column probe (one call per bucket and direction) —
        keep the two branches in lock-step when adding constraints.
        """
        rank = self._ranks[addr.rank_index]
        channel = self._channels[addr.channel]
        bg = addr.bank_group
        base = rank.refreshing_until
        if is_read:
            spacing = rank.last_read_cycle + (
                self._tCCDL if bg == rank.last_read_bg else self._tCCDS)
            if spacing > base:
                base = spacing
            wtr = self._tWTRL if bg == rank.last_write_bg else self._tWTRS
            turnaround = rank.last_write_cycle + self._wr_to_rd + wtr
            if turnaround > base:
                base = turnaround
            offset = self._tCL
        else:
            spacing = rank.last_write_cycle + (
                self._tCCDL if bg == rank.last_write_bg else self._tCCDS)
            if spacing > base:
                base = spacing
            turnaround = rank.last_host_read_cycle + self._read_to_write
            if turnaround > base:
                base = turnaround
            spacing = rank.last_nda_read_cycle + self._tCCDS
            if spacing > base:
                base = spacing
            offset = self._tCWL
        bus = channel.data_bus_free - offset
        if bus > base:
            base = bus
        if channel.last_col_rank not in (-1, addr.rank):
            switch = channel.last_data_end + self._tRTRS - offset
            if switch > base:
                base = switch
        return base

    def can_issue_at(self, kind: CommandType, addr: DramAddress,
                     source: RequestSource, now: int) -> bool:
        """Whether ``(kind, addr)`` can legally issue at cycle ``now``."""
        return self.earliest_issue_at(kind, addr, source, now) <= now

    # ------------------------------------------------------------------ #
    # State updates on issue
    # ------------------------------------------------------------------ #

    def issue(self, cmd: Command, now: int) -> None:
        """Apply the timing consequences of issuing ``cmd`` at cycle ``now``."""
        t = self.timing
        addr = cmd.addr
        rank_index, bank_index = self._indices(addr)
        self._issue_versions[rank_index] += 1
        bank = self._banks[bank_index]
        rank = self._ranks[rank_index]
        kind = cmd.kind
        is_column = kind is CommandType.RD or kind is CommandType.WR
        if is_column:
            # A column command moves no ACT input and, of the PRE inputs,
            # only its own bank's precharge horizon (tRTP / write recovery):
            # kill that single cache entry and leave the row version alone.
            self._pre_cache[bank_index] = (-1, 0)
        else:
            self._row_versions[rank_index] += 1
        if self.busy_observer is not None and not (cmd.is_nda and is_column):
            # Row commands, refresh and host column commands all extend the
            # rank's host-busy windows; let the idle statistics catch up on
            # the unmutated window first.
            self.busy_observer(addr.channel, addr.rank, now)

        if is_column:
            self._issue_column(cmd.is_nda, kind, addr, bank, rank, now)
            return

        if kind is CommandType.ACT:
            # now + t.X always moves constraints forward from a live bank's
            # perspective, but the max() guards stay (as comparisons) for
            # exactness with out-of-order test scenarios.
            rcd = now + t.tRCD
            if rcd > bank.rd_allowed:
                bank.rd_allowed = rcd
            if rcd > bank.wr_allowed:
                bank.wr_allowed = rcd
            ras = now + t.tRAS
            if ras > bank.pre_allowed:
                bank.pre_allowed = ras
            rc = now + t.tRC
            if rc > bank.act_allowed:
                bank.act_allowed = rc
            rrds = now + t.tRRDS
            if rrds > rank.act_allowed:
                rank.act_allowed = rrds
            bg = addr.bank_group
            rrdl = now + t.tRRDL
            if rrdl > rank.act_allowed_bg[bg]:
                rank.act_allowed_bg[bg] = rrdl
            rank.faw_window.append(now)
            if now + 1 > rank.busy_until:
                rank.busy_until = now + 1
            return

        if kind is CommandType.PRE:
            rp = now + t.tRP
            if rp > bank.act_allowed:
                bank.act_allowed = rp
            if now + 1 > rank.busy_until:
                rank.busy_until = now + 1
            return

        # REF
        rank.refreshing_until = max(rank.refreshing_until, now + t.tRFC)
        rank.refresh_due += t.tREFI
        start = rank_index * self._banks_per_rank
        for b in self._banks[start:start + self._banks_per_rank]:
            b.act_allowed = max(b.act_allowed, now + t.tRFC)
        rank.busy_until = max(rank.busy_until, now + t.tRFC)
        ch = addr.channel
        first = ch * self._ranks_per_channel
        self._channel_refresh_due[ch] = min(
            r.refresh_due
            for r in self._ranks[first:first + self._ranks_per_channel]
        )

    def issue_nda_run(self, kind: CommandType, addr: DramAddress,
                      last: int) -> None:
        """Apply the timing consequences of a run of NDA column commands
        ``kind`` to ``addr``'s bank whose last command issues at ``last``
        (a burst plan's settled prefix).

        Every field the NDA column law writes takes the last command's
        value or a monotone max over the run, so the run leaves the state
        its last command alone would: :meth:`issue` of that command, except
        that the rank's issue version advances once per run — the probe
        caches compare versions for equality, so one bump invalidates them
        as surely as one per command.
        """
        bank_index = addr.bank_index
        rank_index = addr.rank_index
        self._issue_versions[rank_index] += 1
        self._pre_cache[bank_index] = (-1, 0)
        self._issue_column(True, kind, addr, self._banks[bank_index],
                           self._ranks[rank_index], last)

    def _issue_column(self, is_nda: bool, kind: CommandType,
                      addr: DramAddress, bank: _BankTiming,
                      rank: _RankTiming, now: int) -> None:
        """Column-command (RD/WR) consequences — the dominant issue path."""
        t = self.timing
        is_read = kind is CommandType.RD
        data_start = now + (t.tCL if is_read else t.tCWL)
        data_end = data_start + t.tBL

        if is_read:
            rtp = now + t.tRTP
            if rtp > bank.pre_allowed:
                bank.pre_allowed = rtp
            rank.last_read_cycle = now
            rank.last_read_bg = addr.bank_group
            if is_nda:
                rank.last_nda_read_cycle = now
            else:
                rank.last_host_read_cycle = now
        else:
            wtp = now + self._write_to_precharge
            if wtp > bank.pre_allowed:
                bank.pre_allowed = wtp
            rank.last_write_cycle = now
            rank.last_write_bg = addr.bank_group

        if is_nda:
            if data_end > rank.nda_bus_free:
                rank.nda_bus_free = data_end
        else:
            channel = self._channels[addr.channel]
            if data_end > channel.data_bus_free:
                channel.data_bus_free = data_end
            channel.last_col_rank = addr.rank
            channel.last_data_end = data_end
            # The rank is occupied by the host for the command cycle and for
            # the data-burst window; the gap in between (CAS latency) is a
            # short idle period the NDA may exploit (Section III-B).
            if now + 1 > rank.busy_until:
                rank.busy_until = now + 1
            if data_start >= rank.data_busy_until:
                rank.data_busy_from = data_start
            if data_end > rank.data_busy_until:
                rank.data_busy_until = data_end

    # ------------------------------------------------------------------ #
    # Refresh bookkeeping
    # ------------------------------------------------------------------ #

    def refresh_due(self, channel: int, rank: int, now: int) -> bool:
        """Whether a refresh is due for the given rank at cycle ``now``."""
        return now >= self.rank_state(channel, rank).refresh_due

    # ------------------------------------------------------------------ #
    # Host-busy queries used by the NDA opportunistic scheduler
    # ------------------------------------------------------------------ #

    def next_host_free_cycle(self, channel: int, rank: int, now: int) -> int:
        """Earliest cycle >= ``now`` at which the rank is host-free.

        Valid until the next host command issues to the rank; the event
        engine uses it to find the next NDA issue opportunity without
        stepping through host-busy cycles one by one.
        """
        state = self.rank_state(channel, rank)
        cycle = now
        while True:
            if cycle < state.busy_until:
                cycle = state.busy_until
                continue
            if state.data_busy_from <= cycle < state.data_busy_until:
                cycle = state.data_busy_until
                continue
            return cycle

    def host_busy_span(self, channel: int, rank: int, start: int,
                       stop: int) -> Optional[bool]:
        """Uniform host-busy state over ``[start, stop)``, or None if mixed.

        O(1) fast path for the per-mutation statistics flush: windows with
        no busy edge inside are a single run (the common case between two
        commands of a dense stream).
        """
        state = self._ranks[channel * self._ranks_per_channel + rank]
        busy_until = state.busy_until
        data_from = state.data_busy_from
        data_until = state.data_busy_until
        if (start < busy_until < stop or start < data_from < stop
                or start < data_until < stop):
            return None
        return start < busy_until or data_from <= start < data_until

    def host_busy_runs(self, channel: int, rank: int, start: int,
                       stop: int) -> List[Tuple[bool, int]]:
        """Partition ``[start, stop)`` into (host_busy, cycle_count) runs.

        Exact under the engine's fast-forward contract: no command issues to
        the rank inside the window, so busy-ness over the window is fully
        determined by the current timing state.  Feeding the runs to the
        idle-period statistics is bit-identical to observing each cycle.
        """
        state = self.rank_state(channel, rank)
        busy_until = state.busy_until
        data_from = state.data_busy_from
        data_until = state.data_busy_until
        # Walk the (at most three) interior edges in ascending order without
        # building a set or sorting: this runs once per busy mutation.
        runs: List[Tuple[bool, int]] = []
        cursor = start
        while cursor < stop:
            nxt = stop
            for edge in (busy_until, data_from, data_until):
                if cursor < edge < nxt:
                    nxt = edge
            busy = cursor < busy_until or data_from <= cursor < data_until
            runs.append((busy, nxt - cursor))
            cursor = nxt
        return runs

    def channel_min_refresh_due(self, channel: int) -> int:
        """Earliest refresh-due cycle over all ranks of ``channel`` (O(1))."""
        return self._channel_refresh_due[channel]

    def read_latency(self) -> int:
        """Cycles from RD issue until the last data beat is received."""
        return self.timing.tCL + self.timing.tBL

    def write_latency(self) -> int:
        """Cycles from WR issue until the last data beat is driven."""
        return self.timing.tCWL + self.timing.tBL
