"""Micro-oracles for the fast path's shortcuts, each against its plain form.

The system-level suites (engine equivalence, burst replay, snapshot fuzz)
prove the event engine end-to-end; these localize a failure to the single
shortcut that broke, on live simulator state reached by running real
workloads:

* **probe caches and the column fast probe** — every cached ACT/PRE/NDA
  column horizon equals a fresh evaluation of the constraint law, and the
  bucketed scan's host-column probe (``host_column_base`` + the bank's tRCD
  horizon) equals ``earliest_issue_at``;
* **bucketed scan** — ``FrFcfsScheduler._select_bucketed`` (one probe per
  bank bucket and command class, plus the at-horizon prediction) picks what
  the linear per-request FR-FCFS scan picks, and the controller's memoized
  scan agrees with both;
* **never-late wake** — no cycle before a channel's published wake (from
  the idle probe, or refined after an issuing tick) holds an issuable
  request, checked cycle by cycle with the linear scan;
* **NDA column runs** — ``TimingEngine.issue_nda_run`` leaves every timing
  field, both version lists (as invalidations) and every live probe-cache
  entry that one ``issue`` per command of the run leaves, on drawn
  platforms, runs and command histories;
* **closed-form settlement** — ``settle_burst`` leaves the timing state the
  per-command ``TimingEngine.issue`` replay of the same planned commands
  leaves, for every plan class, and across a plan's absorbed row commands
  (each re-derived from the per-cycle law) also the bank state, open rows
  and row version;
* **ACT after PRE** — ``TimingEngine.act_after_precharge`` equals issuing
  the precharge on a copy and probing the ACT law;
* **staging window** — the write buffer's integer staging frontier and a
  read plan's drain-flip index equal the per-write float loop they replaced,
  on drawn buffer states and on live ones.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramOrgConfig, DramTimingConfig
from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.dram.commands import Command, CommandType, DramAddress, RequestSource
from repro.dram.device import DramSystem
from repro.dram.timing import _BankTiming, _ChannelTiming, _RankTiming
from repro.experiments.common import resolve_config
from repro.memctrl.frfcfs import NO_EVENT
from repro.nda.burst import PLAN_CLASSES, stage_flip
from repro.nda.controller import (
    NdaRankController,
    RankWorkItem,
    _ExecutionState,
)
from repro.nda.isa import NdaInstruction, NdaOpcode
from repro.nda.write_buffer import NdaWriteBuffer

_HOST = RequestSource.HOST
_NDA = RequestSource.NDA


def _live_system(seed, extra_cycles=0):
    """An event-engine system advanced to a seed-dependent live state."""
    rng = random.Random(seed)
    mode, mix, opcode = rng.choice([
        (AccessMode.HOST_ONLY, "mix1", None),
        (AccessMode.SHARED, "mix5", NdaOpcode.AXPY),
        (AccessMode.BANK_PARTITIONED, "mix1", NdaOpcode.DOT),
        (AccessMode.BANK_PARTITIONED, "mix5", NdaOpcode.COPY),
        (AccessMode.RANK_PARTITIONED, "mix8", NdaOpcode.COPY),
    ])
    platform = rng.choice([None, "ddr4-3200", "lpddr4-3200", "ddr5-4800",
                           "hbm2"])
    system = ChopimSystem(
        config=resolve_config(platform, rng.choice([1, 2]), 2),
        mode=mode, mix=mix, engine="event")
    if opcode is not None:
        system.set_nda_workload(opcode, elements_per_rank=1 << 12)
    system.run(cycles=rng.randrange(200, 900) + extra_cycles, warmup=0)
    return system


def _bank_addresses(system):
    """One stamped address per bank of the system."""
    org = system.dram.org
    for channel in range(org.channels):
        for rank in range(org.ranks_per_channel):
            rank_index = channel * org.ranks_per_channel + rank
            for group in range(org.bank_groups):
                for bank in range(org.banks_per_group):
                    bank_index = (rank_index * org.banks_per_rank
                                  + group * org.banks_per_group + bank)
                    yield DramAddress(channel, rank, group, bank, 0, 0,
                                      rank_index, bank_index)


def _check_probes(system):
    """Diff every probe shortcut against the law on the current state;
    returns how many probes were answered from a live cache entry."""
    timing = system.dram.timing
    now = system.now
    caches = [
        (CommandType.ACT, _HOST, timing._act_cache, timing._row_versions),
        (CommandType.PRE, _HOST, timing._pre_cache, timing._row_versions),
        (CommandType.RD, _NDA, timing._nda_rd_cache, timing._issue_versions),
        (CommandType.WR, _NDA, timing._nda_wr_cache, timing._issue_versions),
    ]
    hits = 0
    for addr in _bank_addresses(system):
        bank = timing._banks[addr.bank_index]
        # Probing at cycle 0 exposes the absolute horizons unclamped, so a
        # term that only matters in the past still has to agree.
        for at in (now, 0):
            for is_read, kind in ((True, CommandType.RD),
                                  (False, CommandType.WR)):
                allowed = bank.rd_allowed if is_read else bank.wr_allowed
                fast = max(at, allowed,
                           timing.host_column_base(is_read, addr))
                assert fast == timing.earliest_issue_at(kind, addr, _HOST,
                                                        at), (kind, addr, at)
        for kind, source, cache, versions in caches:
            hits += cache[addr.bank_index][0] == versions[addr.rank_index]
            probed = timing.earliest_issue_at(kind, addr, source, 0)
            # Invalidate the entry: the probe re-derives it from the law.
            cache[addr.bank_index] = (-1, 0)
            fresh = timing.earliest_issue_at(kind, addr, source, 0)
            assert probed == fresh, (kind, source, addr)
    return hits


class TestTimingProbes:
    """Cached and fast probes vs the full constraint law, bank by bank."""

    @pytest.mark.parametrize("seed", range(8))
    def test_probes_match_uncached_law(self, seed):
        system = _live_system(seed)
        hits = _check_probes(system)
        # Invalidated entries hold correct values, so the run continues
        # exactly; later stops meet entries the simulation itself cached.
        for _ in range(6):
            system.run(cycles=97, warmup=0)
            hits += _check_probes(system)
        assert hits > 0, "no probe cache entry was live to check"


def _compare_scans(system):
    """Diff the bucketed scan against the linear scan on every queue;
    returns how many non-empty queues were compared."""
    compared = 0
    now = system.now
    for controller in system.channel_controllers.values():
        scheduler = controller.scheduler
        for queue in (controller.read_queue, controller.write_queue):
            pick, horizon, future = scheduler._select_bucketed(queue, now)
            linear, linear_horizon = scheduler.select_or_horizon(
                list(queue), now)
            assert (pick is None) == (linear is None)
            memo, memo_horizon = controller._scan(queue, now)
            assert (memo is None) == (pick is None)
            if pick is not None:
                for other in (linear, memo):
                    assert other[0].request_id == pick[0].request_id
                    assert other[1].kind is pick[1].kind
                    assert other[1].addr == pick[1].addr
            else:
                assert horizon == linear_horizon == memo_horizon
                assert (future is None) == (not queue)
            if future is not None:
                # Unchanged state: the linear scan at the horizon cycle picks
                # the bucketed scan's prediction.
                at_horizon, _ = scheduler.select_or_horizon(list(queue),
                                                            horizon)
                assert at_horizon is not None
                assert at_horizon[0].request_id == future[0].request_id
                assert at_horizon[1].kind is future[1].kind
            compared += bool(queue)
    return compared


class TestBucketedScan:
    """The bucketed scan vs the linear FR-FCFS scan on live queue state."""

    @pytest.mark.parametrize("seed", range(8))
    def test_scan_matches_linear_scheduler(self, seed):
        system = _live_system(seed + 100)
        compared = _compare_scans(system)
        # March forward and re-compare, so the scan meets evolving queue
        # and timing state.
        for _ in range(6):
            system.run(cycles=97, warmup=0)
            compared += _compare_scans(system)
        assert compared > 0, "scenario never produced a non-empty queue"

    def test_empty_queue_reports_no_event(self):
        system = ChopimSystem(config=resolve_config(None),
                              mode=AccessMode.NDA_ONLY)
        controller = system.channel_controllers[0]
        pick, horizon, future = controller.scheduler._select_bucketed(
            controller.read_queue, 0)
        assert pick is None and future is None
        assert horizon == NO_EVENT
        assert controller.scheduler.select_or_horizon([], 0) == (None,
                                                                 NO_EVENT)


def _check_wakes(system, post_tick=False, window=4000):
    """Assert no issuable request before each channel's wake; returns the
    number of (channel, cycle) pairs checked.

    ``post_tick`` ticks the channel at the stop cycle first (it may issue)
    and checks the refined wake ``wake_after_tick`` publishes instead.
    """
    checked = 0
    now = system.now
    for channel, controller in system.channel_controllers.items():
        if not (controller.read_queue or controller.write_queue):
            continue
        if post_tick:
            controller.tick(now)
            wake, first = controller.wake_after_tick(now), now + 1
        else:
            wake, first = controller.next_event_cycle(now), now
        settler = controller.burst_settler
        for cycle in range(first, min(wake, first + window)):
            # The scan tick(cycle) would run sees every planned NDA command
            # issued on earlier cycles.
            if settler is not None:
                settler(cycle)
            for queue in (controller.read_queue, controller.write_queue):
                choice, _ = controller.scheduler.select_or_horizon(
                    list(queue), cycle)
                assert choice is None, (
                    f"channel {channel}: request {choice[0].request_id} "
                    f"issuable at {cycle}, but the wake is {wake}")
            checked += 1
    return checked


class TestWakeNeverLate:
    """A channel's published wake is never after its first issuable cycle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_no_issuable_cycle_before_the_wake(self, seed):
        checked = 0
        # Each stop point is a fresh deterministic run: the check settles
        # plans ahead of the engine, so the system is not continued.
        for extra in (0, 131, 262):
            checked += _check_wakes(_live_system(seed + 200, extra))
        assert checked > 0, "no channel slept with requests queued"

    @pytest.mark.parametrize("seed", range(6))
    def test_no_issuable_cycle_before_the_post_tick_wake(self, seed):
        """The refinement after an issuing tick skips the dead cycles
        behind the issued command (tRCD, CCD spacing), never a live one."""
        checked = 0
        for extra in (0, 131, 262):
            checked += _check_wakes(_live_system(seed + 300, extra),
                                    post_tick=True)
        assert checked > 0, "no channel slept with requests queued"


def _timing_dump(timing):
    return {
        tier: [{slot: copy.copy(getattr(state, slot))
                for slot in cls.__slots__} for state in states]
        for tier, cls, states in (
            ("ranks", _RankTiming, timing._ranks),
            ("banks", _BankTiming, timing._banks),
            ("channels", _ChannelTiming, timing._channels))
    }


def _timing_load(timing, dump):
    for tier, states in (("ranks", timing._ranks), ("banks", timing._banks),
                         ("channels", timing._channels)):
        for state, fields in zip(states, dump[tier]):
            for slot, value in fields.items():
                setattr(state, slot, copy.copy(value))


def _live_plan(cls, rows=0):
    """A native hbm2 NDA-only COPY system stopped while some rank holds a
    live ``cls`` plan with at least three column commands and ``rows``
    absorbed row commands still unsettled."""
    system = ChopimSystem(config=resolve_config("hbm2"),
                          mode=AccessMode.NDA_ONLY, mix=None,
                          throttle="next_rank", engine="event")
    system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 13)
    system.run(cycles=100, warmup=0)
    for _ in range(600):
        for controller in system.rank_controllers.values():
            plan = controller._plan
            if (plan is not None and plan.cls.name == cls
                    and plan.count - plan.idx >= 3
                    and len(plan.rows) - plan.row_idx >= rows):
                return system, controller
        # Run boundaries settle but keep live plans.
        system.run(cycles=5, warmup=0)
    raise AssertionError(f"no live {cls} plan found")


def _row_state(system, controller):
    """Row-buffer state of the controller's rank plus its row version."""
    dram = system.dram
    return ([(bank.state, bank.open_row) for bank in
             dram.banks_of_rank(controller.channel, controller.rank)],
            dram.timing._row_versions[controller._rank_index])


def _check_settlement_replay(system, controller, upto):
    """Settle the live plan up to ``upto`` in closed form, then replay the
    same window command by command on the saved state and diff the two.

    The replay derives each absorbed row command from the plain per-cycle
    law — its kind from the bank state, its cycle from the probe composed
    with the host-free windows (``try_issue`` tries the drain first, so a
    read's row command due on a planned ``WR`` cycle waits one cycle) — and
    issues it through the validating ``DramSystem.issue``."""
    dram = system.dram
    timing = dram.timing
    plan = controller._plan
    settled = plan.idx
    absorbed = plan.rows[plan.row_idx:]
    before = _timing_dump(timing), _row_state(system, controller)

    # Commands at cycles strictly before ``upto`` are settled: the column
    # command at a boundary cycle itself is not, one cycle later it is.
    controller.settle_burst(plan.start + (settled + 1) * plan.step)
    assert plan.idx == settled + 1
    controller.settle_burst(upto)
    columns = plan.idx - settled
    assert columns >= 3
    closed_form = _timing_dump(timing), _row_state(system, controller)

    _timing_load(timing, before[0])
    banks = dram.banks_of_rank(controller.channel, controller.rank)
    for bank, (state, open_row) in zip(banks, before[1][0]):
        bank.state, bank.open_row = state, open_row
    timing._row_versions[controller._rank_index] = before[1][1]
    is_write = plan.kind is CommandType.WR
    slots = {plan.start + index * plan.step
             for index in range(plan.count)}
    events = [(plan.start + index * plan.step, None)
              for index in range(settled, settled + columns)]
    events += [(cycle, cmd) for cycle, cmd in absorbed if cycle < upto]
    floor = system.now
    for cycle, cmd in sorted(events, key=lambda event: event[0]):
        if cmd is None:
            timing.issue(Command(plan.kind, plan.addr, _NDA), cycle)
            continue
        kind = dram.required_command(cmd.addr, not is_write)
        plain = dram.next_host_free_cycle(
            controller.channel, controller.rank,
            timing.earliest_issue_at(kind, cmd.addr, _NDA, floor))
        if is_write and plain in slots:
            plain = dram.next_host_free_cycle(controller.channel,
                                              controller.rank, plain + 1)
        assert (kind, plain) == (cmd.kind, cycle), (
            f"{plan.cls.name}: absorbed {cmd.kind.name} planned at {cycle}, the "
            f"per-cycle law issues {kind.name} at {plain}")
        dram.issue(Command(kind, cmd.addr, _NDA), cycle)
        floor = cycle + 1
    replayed = _timing_dump(timing), _row_state(system, controller)
    mismatched = [
        (tier, position, slot)
        for tier, states in closed_form[0].items()
        for position, fields in enumerate(states)
        for slot, value in fields.items()
        if replayed[0][tier][position][slot] != value]
    assert not mismatched, (
        f"{plan.cls.name} settlement diverged from the per-command replay on "
        f"{mismatched[:5]}")
    assert replayed[1] == closed_form[1], (
        f"{plan.cls.name}: bank state / row version diverged")


class TestSettlementReplay:
    """``settle_burst`` == one issue per planned command, in cycle order."""

    @pytest.mark.parametrize("cls", PLAN_CLASSES)
    def test_settlement_matches_per_command_issue(self, cls):
        system, controller = _live_plan(cls)
        plan = controller._plan
        _check_settlement_replay(
            system, controller, plan.start + (plan.idx + 2) * plan.step + 1)

    @pytest.mark.parametrize("cls", ["drain_run", "read_under_drain"])
    def test_settlement_across_absorbed_row_commands(self, cls):
        """A plan carrying the other bank's PRE and ACT, settled across
        both: bank state, open row and row version match the replay."""
        system, controller = _live_plan(cls, rows=2)
        plan = controller._plan
        upto = max(plan.start + (plan.idx + 2) * plan.step,
                   plan.rows[-1][0]) + 1
        _check_settlement_replay(system, controller, upto)
        assert plan.row_idx == len(plan.rows)
        assert controller.burst_row_commands >= 2


def _effective(cache, versions, rank_index):
    """A probe cache's live entries: the cached horizon where the entry's
    version is the rank's current one (the probes compare for equality),
    None where the next probe re-derives it."""
    return [entry[1] if entry[0] == versions[rank_index] else None
            for entry in cache]


class TestNdaColumnRun:
    """``TimingEngine.issue_nda_run`` == one ``TimingEngine.issue`` per
    command of the run, on drawn platforms, runs and command histories."""

    @settings(max_examples=200, deadline=None)
    @given(platform=st.sampled_from([None, "ddr4-3200", "lpddr4-3200",
                                     "ddr5-4800", "hbm2"]),
           history=st.lists(st.tuples(st.sampled_from(list(CommandType)),
                                      st.sampled_from([_HOST, _NDA]),
                                      st.integers(0, 63),
                                      st.integers(0, 40)), max_size=24),
           length=st.integers(1, 40), is_read=st.booleans(),
           group=st.integers(0, 7), bank=st.integers(0, 7),
           gap=st.integers(0, 60))
    def test_run_matches_per_command_issue(self, platform, history, length,
                                           is_read, group, bank, gap):
        config = resolve_config(platform, 1, 1)
        org = config.org
        timing = DramSystem(org, config.timing).timing

        def addr(flat):
            flat %= org.banks_per_rank
            return DramAddress(0, 0, flat // org.banks_per_group,
                               flat % org.banks_per_group, 0, 0, 0, flat)

        now = 0
        for kind, source, flat, delay in history:
            now += delay
            timing.issue(Command(kind, addr(flat), source), now)
        # Fill every probe cache at the current versions, so the run must
        # invalidate exactly what per-command issue invalidates.
        for flat in range(org.banks_per_rank):
            for kind, source in ((CommandType.ACT, _HOST),
                                 (CommandType.PRE, _HOST),
                                 (CommandType.RD, _NDA),
                                 (CommandType.WR, _NDA)):
                timing.earliest_issue_at(kind, addr(flat), source, now)
        target = addr(group % org.bank_groups * org.banks_per_group
                      + bank % org.banks_per_group)
        kind = CommandType.RD if is_read else CommandType.WR
        step = max(config.timing.tCCDS, config.timing.tBL)
        start = now + gap
        before = timing._issue_versions[0]
        plain = copy.deepcopy(timing)
        for j in range(length):
            plain.issue(Command(kind, target, _NDA), start + j * step)
        timing.issue_nda_run(kind, target, start + (length - 1) * step)

        assert _timing_dump(timing) == _timing_dump(plain)
        assert timing._row_versions == plain._row_versions
        # One bump per run, one per command: both move the same rank.
        assert timing._issue_versions[0] > before
        assert plain._issue_versions[0] > before
        for name, versions in (("_act_cache", "_row_versions"),
                               ("_pre_cache", "_row_versions"),
                               ("_nda_rd_cache", "_issue_versions"),
                               ("_nda_wr_cache", "_issue_versions")):
            assert (_effective(getattr(timing, name),
                               getattr(timing, versions), 0)
                    == _effective(getattr(plain, name),
                                  getattr(plain, versions), 0)), name


class TestActAfterPrecharge:
    """``TimingEngine.act_after_precharge`` == issue the PRE on a copy, then
    probe the ACT law, on drawn platforms and timing states."""

    @settings(max_examples=150, deadline=None)
    @given(platform=st.sampled_from([None, "ddr4-3200", "lpddr4-3200",
                                     "ddr5-4800", "hbm2"]),
           history=st.lists(st.tuples(st.sampled_from(list(CommandType)),
                                      st.integers(0, 63),
                                      st.integers(0, 40)), max_size=24),
           bank=st.integers(0, 63), offset=st.integers(0, 80))
    def test_matches_precharge_then_probe(self, platform, history, bank,
                                          offset):
        config = resolve_config(platform, 1, 1)
        timing = DramSystem(config.org, config.timing).timing
        banks = config.org.banks_per_rank
        per_group = config.org.banks_per_group

        def addr(flat):
            flat %= banks
            return DramAddress(0, 0, flat // per_group, flat % per_group, 0,
                               0, 0, flat)

        now = 0
        for kind, flat, gap in history:
            now += gap
            timing.issue(Command(kind, addr(flat), _NDA), now)
        target = addr(bank)
        pre_cycle = now + offset
        plain = copy.deepcopy(timing)
        plain.issue(Command(CommandType.PRE, target, _NDA), pre_cycle)
        expected = plain.earliest_issue_at(CommandType.ACT, target, _NDA,
                                           pre_cycle)
        assert timing.act_after_precharge(target, pre_cycle) == expected


# The per-write staging loop the closed forms replaced, kept verbatim as the
# plain form: one float progress comparison and one float watermark check
# per staged write.

def _plain_stage_allowed(reads, total_reads, staged, total_writes):
    if total_writes == 0:
        return False
    read_progress = reads / max(1, total_reads)
    write_progress = staged / max(1, total_writes)
    return write_progress < read_progress or reads >= total_reads


def _plain_stage(reads, total_reads, staged, drained, total_writes,
                 capacity, high, draining):
    """Stage write by write; returns (writes staged, draining)."""
    while (staged < total_writes
           and _plain_stage_allowed(reads, total_reads, staged, total_writes)
           and staged - drained < capacity):
        staged += 1
        if (staged - drained) / capacity >= high:
            draining = True
    if reads >= total_reads and staged > drained:
        draining = True  # force-drain once reads are done
    return staged, draining


def _plain_flip(reads, total_reads, staged, drained, total_writes,
                capacity, high, count):
    """Replay ``count`` reads' staging; the read whose staged push enters
    the drain phase, or None."""
    tr = max(1, total_reads)
    w = staged
    for k in range(1, count + 1):
        rr = reads + k
        while (w < total_writes and w / total_writes < rr / tr
               and w - drained < capacity):
            w += 1
            if (w - drained) / capacity >= high:
                return k
    return None


@pytest.fixture(scope="module")
def staging_controller():
    return NdaRankController(0, 0, DramSystem(DramOrgConfig(),
                                              DramTimingConfig()))


def _staging_state(total_reads, total_writes, reads, staged, drained):
    work = RankWorkItem(NdaInstruction(NdaOpcode.COPY, num_elements=1024),
                        [0], [0], 1, 0)
    state = _ExecutionState(work, columns_per_row=128)
    state.total_read_columns = total_reads
    state.total_write_columns = total_writes
    state.reads_issued = reads
    state.writes_staged = staged
    state.writes_drained = drained
    return state


@st.composite
def _buffer_points(draw, reads_pending):
    """A buffer geometry plus instruction progress, with the write window
    drawn near the read-progress frontier, where the two forms could part.
    Totals stay below 2**26, the bound under which integer and float
    progress comparisons agree."""
    capacity = draw(st.integers(1, 160))
    high = draw(st.floats(0.0, 1.0))
    low = draw(st.floats(0.0, high))
    sizes = st.one_of(st.integers(0, 300), st.integers(0, 1 << 20))
    total_writes = max(draw(sizes), 1 if reads_pending else 0)
    total_reads = max(draw(sizes), 2 if reads_pending else 0)
    top = total_reads - 2 if reads_pending else total_reads
    reads = draw(st.integers(0, top))
    near = reads * total_writes // max(1, total_reads)
    drained = draw(st.integers(max(0, near - 2 * capacity),
                               min(total_writes, near + capacity)))
    staged = draw(st.integers(drained,
                              min(total_writes, drained + capacity)))
    return dict(capacity=capacity, high=high, low=low,
                total_reads=total_reads, total_writes=total_writes,
                reads=reads, staged=staged, drained=drained)


class TestStagingWindow:
    """The write buffer's closed-form staging vs the per-write loop."""

    @given(_buffer_points(reads_pending=False), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_frontier_matches_per_write_loop(self, staging_controller, p,
                                             draining):
        controller = staging_controller
        wb = controller.write_buffer = NdaWriteBuffer(
            p["capacity"], p["high"], p["low"])
        wb.length = p["staged"] - p["drained"]
        wb._draining = draining = draining and wb.length > 0
        state = _staging_state(p["total_reads"], p["total_writes"],
                               p["reads"], p["staged"], p["drained"])
        controller._stage_writes(state)
        staged, draining = _plain_stage(
            p["reads"], p["total_reads"], p["staged"], p["drained"],
            p["total_writes"], p["capacity"], p["high"], draining)
        assert (state.writes_staged, wb.draining) == (staged, draining), p
        assert len(wb) == staged - p["drained"]

    @given(_buffer_points(reads_pending=True), st.integers(1, 512))
    @settings(max_examples=400, deadline=None)
    def test_drain_flip_matches_replay(self, staging_controller, p, count):
        controller = staging_controller
        controller.write_buffer = NdaWriteBuffer(p["capacity"], p["high"],
                                                 p["low"])
        count = min(count, p["total_reads"] - 1 - p["reads"])
        state = _staging_state(p["total_reads"], p["total_writes"],
                               p["reads"], p["staged"], p["drained"])
        flip = stage_flip(state, controller.write_buffer)
        assert flip >= 1
        closed = flip if flip <= count else None
        assert closed == _plain_flip(
            p["reads"], p["total_reads"], p["staged"], p["drained"],
            p["total_writes"], p["capacity"], p["high"], count), p

    @pytest.mark.parametrize("buffer", [None, (8, 0.5, 0.25), (6, 0.5, 0.5)])
    def test_live_window_matches_per_write_loop(self, buffer):
        """On live COPY runs: the buffer is exactly the window of staged,
        undrained writes; staging stands at the per-write loop's fixed
        point; and the drain-flip index equals the replay's.  The platform
        follows ``REPRO_PLATFORM``."""
        system = ChopimSystem(config=resolve_config(None, 1, 2),
                              mode=AccessMode.BANK_PARTITIONED, mix="mix5",
                              throttle="next_rank", engine="event")
        if buffer is not None:
            for rc in system.rank_controllers.values():
                rc.write_buffer = NdaWriteBuffer(*buffer)
        system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 12)
        windows = flips = 0
        for _ in range(40):
            system.run(cycles=89, warmup=0)
            for rc in system.rank_controllers.values():
                state, wb = rc._active, rc.write_buffer
                if state is None:
                    assert (len(wb), wb.draining) == (0, False)
                    continue
                windows += 1
                assert len(wb) == state.writes_staged - state.writes_drained
                args = (state.reads_issued, state.total_read_columns,
                        state.writes_staged, state.writes_drained,
                        state.total_write_columns)
                assert _plain_stage(*args, wb.capacity,
                                    wb.drain_high_watermark, wb.draining) == (
                    state.writes_staged, wb.draining)
                count = min(512, state.total_read_columns - 1
                            - state.reads_issued)
                if count >= 1 and not wb.draining:
                    flip = stage_flip(state, wb)
                    assert (flip if flip <= count else None) == _plain_flip(
                        *args, wb.capacity, wb.drain_high_watermark, count)
                    flips += flip != NO_EVENT
        assert windows > 0 and flips > 0, (windows, flips)
