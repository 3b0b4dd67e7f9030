"""FR-FCFS request selection (Rixner et al., used by the paper's host MC).

First-Ready, First-Come-First-Served: among queued requests, prefer one whose
*next required DRAM command* is issuable this cycle and whose access is a
row-buffer hit; fall back to the oldest request whose next command is
issuable; otherwise pick nothing.

Selection can also report a *horizon*: the earliest future cycle at which any
scanned request could issue, given no further state changes.  The event
engine uses the horizon to fast-forward over cycles where the controller
provably cannot act.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.dram.bank import BankState
from repro.dram.commands import Command, CommandType, RequestSource
from repro.dram.device import DramSystem
from repro.memctrl.request import MemoryRequest, RequestQueue

#: Sentinel for "no issuable cycle known" horizons.
NO_EVENT = 1 << 62


class FrFcfsScheduler:
    """Selects the next request to serve and the command to issue for it."""

    def __init__(self, dram: DramSystem) -> None:
        self.dram = dram
        # Bound methods of the hot probes: the scan bypasses the DramSystem
        # delegation layer (timing-only semantics, as before).
        self._earliest_issue_at = dram.timing.earliest_issue_at
        self._bank = dram.bank
        # Direct references to the timing engine's row-command probe caches
        # (lists mutated in place, never reassigned): the bucketed scan
        # reads them inline, skipping the probe call on cache hits.  The
        # bank list is likewise indexed directly through the stamped
        # ``bank_index`` (one bank-state read per bucket).
        # Row-command caches key on the row version: NDA column streams do
        # not invalidate the scan's ACT/PRE horizon hits.
        self._issue_versions = dram.timing._row_versions
        self._act_cache = dram.timing._act_cache
        self._pre_cache = dram.timing._pre_cache
        self._banks = dram._banks
        # The scan's column probe: the bank-independent host-column horizon
        # lives next to the full constraint law in TimingEngine.
        self._host_column_base = dram.timing.host_column_base
        self._bank_timings = dram.timing._banks

    def select_or_horizon(self, requests: Iterable[MemoryRequest], now: int,
                          ) -> Tuple[Optional[Tuple[MemoryRequest, Command]], int]:
        """FR-FCFS pick plus the earliest future issue cycle.

        Returns ``(choice, horizon)``.  When ``choice`` is not None the
        horizon is meaningless (the scan may have stopped early at a
        row-hit); when ``choice`` is None the horizon is the minimum
        ``earliest_issue_at`` over every queued request's required command — a
        lower bound on the next cycle this queue could issue anything,
        assuming no intervening enqueue or DRAM state change that hastens a
        request (timing state moves constraints later, apart from the
        tWTR_L hole noted at ``ChannelController._issue_hint``).

        The scan is allocation-free: every candidate is probed value-based
        through ``required_command``/``earliest_issue_at`` and exactly one
        :class:`Command` is built, for the winning request.
        """
        if isinstance(requests, RequestQueue):
            choice, horizon, _future = self._select_bucketed(requests, now)
            return choice, horizon
        required_command = self.dram.required_command
        earliest_issue_at = self._earliest_issue_at
        host = RequestSource.HOST
        fallback: Optional[MemoryRequest] = None
        fallback_kind: Optional[CommandType] = None
        horizon = NO_EVENT
        for request in requests:  # iteration order == arrival order
            addr = request.addr
            kind = required_command(addr, request.is_write)
            earliest = earliest_issue_at(kind, addr, host, now)
            if earliest > now:
                if earliest < horizon:
                    horizon = earliest
                continue
            if kind is CommandType.RD or kind is CommandType.WR:
                # required_command returns a column command only when the
                # target row is open — a row-buffer hit by construction.
                cmd = Command(kind, addr, host, request_id=request.request_id)
                return (request, cmd), NO_EVENT
            if fallback is None:
                fallback = request
                fallback_kind = kind
        if fallback is None:
            return None, horizon
        cmd = Command(fallback_kind, fallback.addr, host,
                      request_id=fallback.request_id)
        return (fallback, cmd), horizon

    def _select_bucketed(self, queue: RequestQueue, now: int,
                         ) -> Tuple[Optional[Tuple[MemoryRequest, Command]],
                                    int,
                                    Optional[Tuple[MemoryRequest, Command]]]:
        """Bucketed FR-FCFS scan: ``(choice, horizon, choice_at_horizon)``.

        The third element predicts the FR-FCFS pick at the horizon cycle:
        when nothing is issuable now, every candidate's *absolute* earliest
        cycle is already in hand, and — provided no queue or channel DRAM
        state changes in between, which the caller's version-keyed memo
        guarantees — the scan at the horizon selects among exactly the
        candidates whose earliest equals the horizon.  The controller can
        therefore issue at the horizon from the memo without re-scanning.

        Timing-equivalent to the linear scan but probes DDR4 timing once
        per bank bucket and command class instead of once per request:
        within one bank, every request needing ACT (bank closed) or PRE
        (row conflict) shares the same ``earliest_issue_at``, and row-hit
        column commands share it per direction (RD/WR).  Arrival order
        across buckets is recovered from each request's ``queue_seq``
        stamp, so the selected request is exactly the one the linear scan
        would pick; the horizon (min earliest over non-issuable requests)
        is likewise identical whenever it is consumed (choice is None),
        and the at-horizon winner (hit preferred, then arrival order, among
        candidates whose earliest equals the horizon) matches the scan a
        caller would run at that cycle with unchanged state.
        """
        earliest_issue_at = self._earliest_issue_at
        dram_bank = self._bank
        banks = self._banks
        host = RequestSource.HOST
        rd = CommandType.RD
        wr = CommandType.WR
        closed = BankState.CLOSED
        horizon = NO_EVENT
        # Queues are shallow in practice (a handful of buckets per scan), so
        # the column probe is the leaner ``_host_column_base`` + the bank's
        # own tRCD horizon, called at most once per bucket and direction.
        host_column_base = self._host_column_base
        bank_timings = self._bank_timings
        best_hit: Optional[MemoryRequest] = None
        best_hit_kind: Optional[CommandType] = None
        best_hit_seq = NO_EVENT
        best_fb: Optional[MemoryRequest] = None
        best_fb_kind: Optional[CommandType] = None
        best_fb_seq = NO_EVENT
        # At-horizon winner: among candidates whose earliest equals the
        # (running) horizon, a hit beats a fallback, then arrival order —
        # the same priority the scan itself applies at the horizon cycle.
        h_req: Optional[MemoryRequest] = None
        h_kind: Optional[CommandType] = None
        h_seq = NO_EVENT
        h_is_hit = False
        issue_versions = self._issue_versions
        act_cache = self._act_cache
        pre_cache = self._pre_cache
        for bucket in queue.bank_buckets():
            first = next(iter(bucket.values()))
            first_bi = first.addr.bank_index
            bank = banks[first_bi] if first_bi >= 0 else dram_bank(first.addr)
            if bank.state is closed:
                # Whole bucket needs ACT; oldest request represents it.
                a = first.addr
                bi = a.bank_index
                if bi >= 0 and act_cache[bi][0] == issue_versions[a.rank_index]:
                    earliest = act_cache[bi][1]
                    if earliest < now:
                        earliest = now
                else:
                    earliest = earliest_issue_at(CommandType.ACT, a, host, now)
                if earliest <= now:
                    if first.queue_seq < best_fb_seq:
                        best_fb, best_fb_kind = first, CommandType.ACT
                        best_fb_seq = first.queue_seq
                elif earliest < horizon:
                    horizon = earliest
                    h_req, h_kind = first, CommandType.ACT
                    h_seq, h_is_hit = first.queue_seq, False
                elif (earliest == horizon and not h_is_hit
                        and first.queue_seq < h_seq):
                    h_req, h_kind, h_seq = first, CommandType.ACT, first.queue_seq
                continue
            open_row = bank.open_row
            rd_earliest = wr_earliest = pre_earliest = -1
            for request in bucket.values():
                addr = request.addr
                if addr.row == open_row:
                    if request.is_write:
                        if wr_earliest < 0:
                            bi = addr.bank_index
                            if bi >= 0:
                                base = host_column_base(False, addr)
                                allowed = bank_timings[bi].wr_allowed
                                wr_earliest = base if base >= allowed else allowed
                                if wr_earliest < now:
                                    wr_earliest = now
                            else:
                                wr_earliest = earliest_issue_at(
                                    wr, addr, host, now)
                        earliest, kind = wr_earliest, wr
                    else:
                        if rd_earliest < 0:
                            bi = addr.bank_index
                            if bi >= 0:
                                base = host_column_base(True, addr)
                                allowed = bank_timings[bi].rd_allowed
                                rd_earliest = base if base >= allowed else allowed
                                if rd_earliest < now:
                                    rd_earliest = now
                            else:
                                rd_earliest = earliest_issue_at(
                                    rd, addr, host, now)
                        earliest, kind = rd_earliest, rd
                    if earliest <= now:
                        if request.queue_seq < best_hit_seq:
                            best_hit, best_hit_kind = request, kind
                            best_hit_seq = request.queue_seq
                        # Later bucket entries are younger and the horizon
                        # is irrelevant once a choice exists.
                        break
                else:
                    if pre_earliest < 0:
                        bi = addr.bank_index
                        if (bi >= 0 and pre_cache[bi][0]
                                == issue_versions[addr.rank_index]):
                            pre_earliest = pre_cache[bi][1]
                            if pre_earliest < now:
                                pre_earliest = now
                        else:
                            pre_earliest = earliest_issue_at(
                                CommandType.PRE, addr, host, now)
                    earliest = pre_earliest
                    if earliest <= now:
                        if request.queue_seq < best_fb_seq:
                            best_fb, best_fb_kind = request, CommandType.PRE
                            best_fb_seq = request.queue_seq
                        continue
                    kind = CommandType.PRE
                if earliest > now:
                    if earliest < horizon:
                        horizon = earliest
                        h_req, h_kind, h_seq = request, kind, request.queue_seq
                        h_is_hit = kind is rd or kind is wr
                    elif earliest == horizon:
                        is_hit = kind is rd or kind is wr
                        if (is_hit and not h_is_hit) or (
                                is_hit == h_is_hit and request.queue_seq < h_seq):
                            h_req, h_kind, h_seq = request, kind, request.queue_seq
                            h_is_hit = is_hit
        if best_hit is not None:
            cmd = Command(best_hit_kind, best_hit.addr, host,
                          request_id=best_hit.request_id)
            return (best_hit, cmd), NO_EVENT, None
        if best_fb is not None:
            cmd = Command(best_fb_kind, best_fb.addr, host,
                          request_id=best_fb.request_id)
            return (best_fb, cmd), horizon, None
        future = None
        if h_req is not None:
            cmd = Command(h_kind, h_req.addr, host, request_id=h_req.request_id)
            future = (h_req, cmd)
        return None, horizon, future
