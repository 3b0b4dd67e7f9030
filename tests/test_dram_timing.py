"""Tests for the DDR4 timing engine and command/bank state machines."""

import pytest

from repro.config import DramOrgConfig, DramTimingConfig
from repro.dram.bank import Bank, BankState
from repro.dram.commands import Command, CommandType, DramAddress, RequestSource
from repro.dram.device import DramSystem
from repro.dram.timing import TimingEngine

T = DramTimingConfig()


def addr(channel=0, rank=0, bg=0, bank=0, row=0, col=0) -> DramAddress:
    return DramAddress(channel, rank, bg, bank, row, col)


def host(kind, a) -> Command:
    return Command(kind, a, RequestSource.HOST)


def nda(kind, a) -> Command:
    return Command(kind, a, RequestSource.NDA)


HOST, NDA = RequestSource.HOST, RequestSource.NDA
ACT, PRE, RD, WR = CommandType.ACT, CommandType.PRE, CommandType.RD, CommandType.WR


@pytest.fixture
def engine(org):
    return TimingEngine(org, T)


@pytest.fixture
def dram(org):
    return DramSystem(org, T)


class TestCommandTypes:
    def test_column_classification(self):
        assert CommandType.RD.is_column and CommandType.WR.is_column
        assert not CommandType.ACT.is_column
        assert CommandType.ACT.is_row and CommandType.PRE.is_row
        assert not CommandType.RD.is_row

    def test_dram_address_same_bank(self, dram):
        assert dram.bank(addr(row=1)) is dram.bank(addr(row=9))
        assert dram.bank(addr(bank=1)) is not dram.bank(addr(bank=2))

    def test_with_helpers(self):
        a = addr(row=5, col=3)
        assert a.with_column(7).column == 7
        assert a._replace(row=9).row == 9


class TestBankStateMachine:
    def test_activate_then_precharge(self):
        bank = Bank(0, 0, 0, 0)
        assert bank.state is BankState.CLOSED
        bank.activate(42)
        assert bank.is_open(42)
        assert not bank.is_open(43)
        bank.precharge()
        assert bank.state is BankState.CLOSED

    def test_double_activate_rejected(self):
        bank = Bank(0, 0, 0, 0)
        bank.activate(1)
        with pytest.raises(ValueError):
            bank.activate(2)


class TestActivationTiming:
    def test_trcd_enforced(self, engine):
        a = addr(row=1)
        engine.issue(host(CommandType.ACT, a), 0)
        assert not engine.can_issue_at(RD, a, HOST, T.tRCD - 1)
        assert engine.can_issue_at(RD, a, HOST, T.tRCD)

    def test_tras_and_trp_enforced(self, engine):
        a = addr(row=1)
        engine.issue(host(CommandType.ACT, a), 0)
        assert not engine.can_issue_at(PRE, a, HOST, T.tRAS - 1)
        assert engine.can_issue_at(PRE, a, HOST, T.tRAS)
        engine.issue(host(PRE, a), T.tRAS)
        assert not engine.can_issue_at(ACT, a, HOST, T.tRAS + T.tRP - 1)
        assert engine.can_issue_at(ACT, a, HOST, max(T.tRAS + T.tRP, T.tRC))

    def test_trc_same_bank(self, engine):
        a = addr(row=1)
        engine.issue(host(CommandType.ACT, a), 0)
        engine.issue(host(CommandType.PRE, a), T.tRAS)
        assert engine.earliest_issue_at(ACT, addr(row=2), HOST, 0) >= T.tRC

    def test_trrd_across_banks(self, engine):
        engine.issue(host(CommandType.ACT, addr(bg=0, bank=0, row=1)), 0)
        same_bg = addr(bg=0, bank=1, row=1)
        diff_bg = addr(bg=1, bank=0, row=1)
        assert engine.earliest_issue_at(ACT, same_bg, HOST, 0) == T.tRRDL
        assert engine.earliest_issue_at(ACT, diff_bg, HOST, 0) == T.tRRDS

    def test_faw_limits_fifth_activate(self, engine):
        # Four activates to different bank groups at the RRD_S rate.
        t = 0
        for bank_group in range(4):
            a = addr(bg=bank_group, bank=0, row=1)
            t = engine.earliest_issue_at(ACT, a, HOST, t)
            engine.issue(host(ACT, a), t)
        fifth = addr(bg=0, bank=1, row=1)
        first_act_time = 0
        assert engine.earliest_issue_at(ACT, fifth, HOST, t) >= first_act_time + T.tFAW


class TestColumnTiming:
    def _open(self, engine, a, now=0):
        engine.issue(host(CommandType.ACT, a), now)
        return now + T.tRCD

    def test_read_to_read_same_bank_group_uses_ccdl(self, engine):
        a = addr(row=1)
        ready = self._open(engine, a)
        engine.issue(host(CommandType.RD, a), ready)
        nxt = a.with_column(1)
        assert engine.earliest_issue_at(RD, nxt, HOST, ready) == ready + T.tCCDL

    def test_read_to_read_diff_bank_group_uses_ccds(self, engine):
        a = addr(bg=0, row=1)
        b = addr(bg=1, row=1)
        ra = self._open(engine, a)
        rb = self._open(engine, b, 4)
        start = max(ra, rb)
        engine.issue(host(CommandType.RD, a), start)
        assert engine.earliest_issue_at(RD, b, HOST, start) == start + T.tCCDS

    def test_write_to_read_turnaround_same_rank(self, engine):
        a = addr(bg=0, row=1)
        ready = self._open(engine, a)
        engine.issue(host(CommandType.WR, a), ready)
        assert (engine.earliest_issue_at(RD, a.with_column(1), HOST, ready)
                == ready + T.tCWL + T.tBL + T.tWTRL)

    def test_write_to_read_smaller_penalty_across_bank_groups(self, engine):
        a = addr(bg=0, row=1)
        b = addr(bg=1, row=1)
        ra = self._open(engine, a)
        rb = self._open(engine, b, 4)
        start = max(ra, rb)
        engine.issue(host(CommandType.WR, a), start)
        assert (engine.earliest_issue_at(RD, b, HOST, start)
                < engine.earliest_issue_at(RD, a.with_column(1), HOST, start))

    def test_read_to_write_penalty_smaller_than_write_to_read(self, engine):
        a = addr(bg=0, row=1)
        ready = self._open(engine, a)
        engine.issue(host(CommandType.RD, a), ready)
        wr_after_rd = engine.earliest_issue_at(WR, a.with_column(1), HOST, ready) - ready

        engine2 = TimingEngine(DramOrgConfig(), T)
        ready2 = T.tRCD
        engine2.issue(host(CommandType.ACT, a), 0)
        engine2.issue(host(CommandType.WR, a), ready2)
        rd_after_wr = engine2.earliest_issue_at(RD, a.with_column(1), HOST, ready2) - ready2
        assert rd_after_wr > wr_after_rd

    def test_rank_to_rank_switch_penalty_on_channel(self, engine):
        a = addr(rank=0, row=1)
        b = addr(rank=1, row=1)
        ra = self._open(engine, a)
        engine.issue(host(CommandType.ACT, b), 1)
        start = max(ra, 1 + T.tRCD)
        engine.issue(host(CommandType.RD, a), start)
        same_rank = engine.earliest_issue_at(RD, a.with_column(1), HOST, start)
        other_rank = engine.earliest_issue_at(RD, b, HOST, start)
        assert other_rank >= same_rank - T.tCCDL + T.tBL + T.tRTRS - 1

    def test_read_to_precharge(self, engine):
        a = addr(row=1)
        ready = self._open(engine, a)
        engine.issue(host(CommandType.RD, a), ready)
        assert engine.earliest_issue_at(PRE, a, HOST, ready) >= ready + T.tRTP

    def test_write_recovery_before_precharge(self, engine):
        a = addr(row=1)
        ready = self._open(engine, a)
        engine.issue(host(CommandType.WR, a), ready)
        assert (engine.earliest_issue_at(PRE, a, HOST, ready)
                >= ready + T.tCWL + T.tBL + T.tWR)


class TestNdaHostInteraction:
    def test_nda_does_not_occupy_channel_bus(self, engine):
        """An NDA read on rank 0 must not delay a host read on rank 1."""
        a = addr(rank=0, row=1)
        b = addr(rank=1, row=1)
        engine.issue(nda(CommandType.ACT, a), 0)
        engine.issue(host(CommandType.ACT, b), 1)
        start = 1 + T.tRCD
        engine.issue(nda(CommandType.RD, a), T.tRCD)
        assert engine.earliest_issue_at(RD, b, HOST, start) == start

    def test_nda_write_causes_wtr_for_host_read_same_rank(self, engine):
        """The central interference mechanism of Section III-B."""
        a = addr(rank=0, bg=0, row=1)
        b = addr(rank=0, bg=1, row=2)
        engine.issue(nda(CommandType.ACT, a), 0)
        engine.issue(host(CommandType.ACT, b), 1)
        start = 1 + T.tRCD
        engine.issue(nda(CommandType.WR, a), start)
        assert (engine.earliest_issue_at(RD, b, HOST, start)
                >= start + T.tCWL + T.tBL + T.tWTRS)

    def test_nda_columns_paced_at_ccds_within_bank_group(self, engine):
        a = addr(rank=0, bg=0, row=1)
        engine.issue(nda(CommandType.ACT, a), 0)
        engine.issue(nda(CommandType.RD, a), T.tRCD)
        nxt = a.with_column(1)
        assert engine.earliest_issue_at(RD, nxt, NDA, T.tRCD) == T.tRCD + T.tCCDS

    def test_rank_host_busy_tracks_host_data(self, engine):
        a = addr(rank=0, row=1)
        engine.issue(host(CommandType.ACT, a), 0)
        engine.issue(host(CommandType.RD, a), T.tRCD)
        # Busy during the command cycle and during the data burst; the CAS
        # gap in between is a short idle window the NDAs may exploit.
        burst = T.tRCD + T.tCL
        assert engine.next_host_free_cycle(0, 0, T.tRCD) == T.tRCD + 1
        assert engine.next_host_free_cycle(0, 0, T.tRCD + 2) == T.tRCD + 2
        assert engine.next_host_free_cycle(0, 0, burst + 1) == burst + T.tBL
        assert engine.next_host_free_cycle(0, 0, burst + T.tBL + 1) == burst + T.tBL + 1

    def test_nda_access_does_not_mark_rank_host_busy(self, engine):
        a = addr(rank=0, row=1)
        engine.issue(nda(CommandType.ACT, a), 0)
        engine.issue(nda(CommandType.RD, a), T.tRCD)
        assert engine.next_host_free_cycle(0, 0, T.tRCD + 1) == T.tRCD + 1


class TestRefresh:
    def test_refresh_due_after_trefi(self, engine):
        assert not engine.refresh_due(0, 0, 0)
        assert engine.refresh_due(0, 0, T.tREFI)

    def test_refresh_blocks_bank_for_trfc(self, dram):
        a = addr(row=0)
        ref = host(CommandType.REF, a)
        dram.issue(ref, 0)
        assert not dram.can_issue_at(ACT, addr(row=1), HOST, T.tRFC - 1)
        assert dram.can_issue_at(ACT, addr(row=1), HOST, T.tRFC)


class TestDramSystemFacade:
    def test_required_command_progression(self, dram):
        a = addr(row=3)
        assert dram.required_command(a, False) is CommandType.ACT
        dram.issue(host(CommandType.ACT, a), 0)
        assert dram.required_command(a, False) is CommandType.RD
        assert dram.required_command(a._replace(row=4), False) is CommandType.PRE

    def test_illegal_command_raises(self, dram):
        a = addr(row=3)
        with pytest.raises(ValueError):
            dram.issue(host(CommandType.RD, a), 0)  # bank closed

    def test_event_counts(self, dram):
        a = addr(row=3)
        dram.issue(host(CommandType.ACT, a), 0)
        dram.issue(host(CommandType.RD, a), T.tRCD)
        dram.issue(nda(CommandType.WR, a.with_column(1)), T.tRCD + T.tCCDL + 20)
        assert dram.counts.activates == 1
        assert dram.counts.host_reads == 1
        assert dram.counts.nda_writes == 1
        assert dram.counts.host_columns == 1
        assert dram.counts.nda_columns == 1

    def test_record_access_outcome(self, dram):
        a = addr(row=3)
        assert dram.record_access_outcome(a, is_nda=False) == "miss"
        dram.issue(host(CommandType.ACT, a), 0)
        assert dram.record_access_outcome(a, is_nda=False) == "hit"
        assert dram.record_access_outcome(a._replace(row=9), is_nda=True) == "conflict"
        assert dram.counts.host_row_hits == 1
        assert dram.counts.nda_row_conflicts == 1

    def test_latencies(self, dram):
        assert dram.read_latency() == T.tCL + T.tBL
        assert dram.write_latency() == T.tCWL + T.tBL


class TestWriteToReadLongTurnaround:
    """tWTR_L must hold from *every* earlier write to the read's bank group.

    ``_RankTiming`` remembers only the last write's cycle and bank group, so
    a later write to another bank group replaces the same-group write the
    long turnaround counts from: the read is allowed up to tWTR_L - tWTR_S -
    tCCD_S cycles early (an NDA write does this to a host read, so NDA
    activity can move a host constraint *earlier*).  Pinned per preset,
    built explicitly so the ``REPRO_PLATFORM`` matrix does not collapse it.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the rank keeps one last write: tWTR_L from an "
                       "earlier same-group write is lost")
    @pytest.mark.parametrize("name", [
        "ddr4-2400", "ddr4-3200", "ddr5-4800", "hbm2",
        pytest.param("lpddr4-3200", marks=pytest.mark.skip(
            reason="one bank group: every write is same-group")),
    ])
    def test_read_waits_for_earlier_same_group_write(self, name):
        from repro.platform import platform_config

        config = platform_config(name)
        t = config.timing
        dram = DramSystem(config.org, t)
        group0, group1 = addr(bg=0), addr(bg=1)
        dram.issue(host(CommandType.ACT, group0), 0)
        dram.issue(nda(CommandType.ACT, group1), t.tRRDS)
        first = 200
        dram.issue(host(CommandType.WR, group0), first)
        dram.issue(nda(CommandType.WR, group1), first + t.tCCDS)
        earliest = dram.earliest_issue_at(CommandType.RD, group0,
                                          RequestSource.HOST, first + t.tCCDS)
        assert earliest >= first + t.tCWL + t.tBL + t.tWTRL
