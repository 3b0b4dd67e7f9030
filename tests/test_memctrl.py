"""Tests for the host memory controller: queues, FR-FCFS, write drain, refresh."""

import pytest

from repro.config import DramOrgConfig, DramTimingConfig, SchedulerConfig
from repro.dram.commands import CommandType, DramAddress
from repro.dram.device import DramSystem
from repro.memctrl.controller import ChannelController
from repro.memctrl.frfcfs import FrFcfsScheduler
from repro.memctrl.request import MemoryRequest, RequestQueue

T = DramTimingConfig()


def addr(channel=0, rank=0, bg=0, bank=0, row=0, col=0):
    return DramAddress(channel, rank, bg, bank, row, col)


@pytest.fixture
def dram():
    return DramSystem(DramOrgConfig(), T)


@pytest.fixture
def controller(dram):
    return ChannelController(0, dram, SchedulerConfig(refresh_enabled=False))


def drive(controller, cycles, start=0):
    completed = []
    for now in range(start, start + cycles):
        completed.extend(controller.tick(now))
    return completed, start + cycles


class TestRequestQueue:
    def test_fifo_order_and_capacity(self):
        q = RequestQueue(2)
        r1 = MemoryRequest(addr(), False)
        r2 = MemoryRequest(addr(col=1), False)
        r3 = MemoryRequest(addr(col=2), False)
        assert q.push(r1) and q.push(r2)
        assert not q.push(r3)
        assert q.full
        assert q.oldest() is r1
        q.remove(r1)
        assert q.oldest() is r2

    def test_find_write_to(self):
        q = RequestQueue(4)
        w = MemoryRequest(addr(row=3), True)
        q.push(w)
        assert q.find_write_to(addr(row=3)) is w
        assert q.find_write_to(addr(row=4)) is None


    def test_fifo_order_preserved_across_interleaved_removals(self):
        """Regression for the bucketed O(1) removal: iteration must stay
        exactly arrival order through arbitrary remove/push interleavings."""
        q = RequestQueue(8)
        reqs = [MemoryRequest(addr(row=i, bank=i % 4), False) for i in range(6)]
        for r in reqs:
            assert q.push(r)
        q.remove(reqs[2])
        q.remove(reqs[0])
        assert [r.request_id for r in q] == [reqs[i].request_id for i in (1, 3, 4, 5)]
        late = MemoryRequest(addr(row=9), False)
        q.push(late)
        assert [r.request_id for r in q] == (
            [reqs[i].request_id for i in (1, 3, 4, 5)] + [late.request_id])
        assert q.oldest() is reqs[1]

    def test_remove_absent_request_raises(self):
        q = RequestQueue(4)
        r = MemoryRequest(addr(), False)
        q.push(r)
        q.remove(r)
        with pytest.raises(ValueError):
            q.remove(r)

    def test_bank_buckets_track_membership(self):
        q = RequestQueue(8)
        a0 = addr(rank=0, bank=1, row=1)
        a1 = addr(rank=1, bank=1, row=2)
        r0 = MemoryRequest(a0, False)
        r1 = MemoryRequest(a1, False)
        r2 = MemoryRequest(a0._replace(row=7), False)
        for r in (r0, r1, r2):
            q.push(r)
        assert q.has_bank(0, 0, 1) and q.has_bank(1, 0, 1)
        assert not q.has_bank(0, 0, 2)
        assert sorted([r.request_id for r in bucket.values()]
                      for bucket in q.bank_buckets()) == sorted(
            [[r0.request_id, r2.request_id], [r1.request_id]])
        q.remove(r0)
        q.remove(r2)
        assert not q.has_bank(0, 0, 1)
        assert [list(bucket.values()) for bucket in q.bank_buckets()] == [[r1]]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(0)

    def test_request_completion_callback(self):
        seen = []
        r = MemoryRequest(addr(), False, on_complete=seen.append)
        r.complete(30)
        assert seen == [30]
        assert r.completed_cycle == 30


class TestFrFcfs:
    def test_prefers_row_hit_over_older_miss(self, dram):
        scheduler = FrFcfsScheduler(dram)
        hit_addr = addr(bank=0, row=1)
        miss_addr = addr(bank=1, row=2)
        # Open the row for the hit request.
        from repro.dram.commands import Command, RequestSource
        dram.issue(Command(CommandType.ACT, hit_addr, RequestSource.HOST), 0)
        older_miss = MemoryRequest(miss_addr, False)
        newer_hit = MemoryRequest(hit_addr, False)
        now = T.tRCD
        chosen, _ = scheduler.select_or_horizon([older_miss, newer_hit], now)
        assert chosen is not None
        request, cmd = chosen
        assert request is newer_hit
        assert cmd.kind is CommandType.RD

    def test_falls_back_to_oldest_issueable(self, dram):
        scheduler = FrFcfsScheduler(dram)
        r1 = MemoryRequest(addr(bank=0, row=1), False)
        r2 = MemoryRequest(addr(bank=1, row=2), False)
        chosen, _ = scheduler.select_or_horizon([r1, r2], 0)
        assert chosen is not None
        assert chosen[0] is r1
        assert chosen[1].kind is CommandType.ACT

    def test_returns_none_when_nothing_ready(self, dram):
        scheduler = FrFcfsScheduler(dram)
        a = addr(bank=0, row=1)
        from repro.dram.commands import Command, RequestSource
        dram.issue(Command(CommandType.ACT, a, RequestSource.HOST), 0)
        # A conflicting request needs PRE, which is not legal before tRAS.
        conflicting = MemoryRequest(a._replace(row=9), False)
        assert scheduler.select_or_horizon([conflicting], 1)[0] is None


class TestChannelController:
    def test_read_completes_after_full_latency(self, controller):
        request = MemoryRequest(addr(row=1), False)
        assert controller.enqueue(request, 0)
        completed, _ = drive(controller, 200)
        assert request.completed_cycle is not None
        assert request.completed_cycle >= T.tRCD + T.tCL + T.tBL
        assert request in completed

    def test_wrong_channel_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.enqueue(MemoryRequest(addr(channel=1), False), 0)

    def test_queue_full_rejection(self, controller):
        for i in range(controller.config.read_queue_entries):
            assert controller.enqueue(MemoryRequest(addr(row=i, bank=i % 4), False), 0)
        assert not controller.enqueue(MemoryRequest(addr(row=99), False), 0)
        assert len(controller.read_queue) == controller.config.read_queue_entries

    def test_read_forwarding_from_write_queue(self, controller):
        target = addr(row=7, col=3)
        controller.enqueue(MemoryRequest(target, True), 0)
        read = MemoryRequest(target, False)
        controller.enqueue(read, 1)
        # Forwarded reads complete immediately without a DRAM access.
        assert read.completed_cycle == 1
        assert not controller.read_queue

    def test_row_hits_after_first_access(self, controller, dram):
        for col in range(4):
            controller.enqueue(MemoryRequest(addr(row=5, col=col), False), 0)
        drive(controller, 300)
        counts = dram.counts
        assert (counts.activates, counts.host_row_hits,
                counts.host_row_conflicts) == (1, 3, 0)

    def test_write_drain_triggers_at_watermark(self, controller, dram):
        entries = controller.config.write_queue_entries
        for i in range(int(entries * 0.8)):
            controller.enqueue(MemoryRequest(addr(row=i % 8, bank=i % 4, col=i), True), 0)
        assert controller._draining_writes
        drive(controller, 400)
        assert dram.counts.host_writes > 0

    def test_reads_prioritized_over_writes_below_watermark(self, controller, dram):
        controller.enqueue(MemoryRequest(addr(row=1, bank=0), True), 0)
        read = MemoryRequest(addr(row=2, bank=1), False)
        controller.enqueue(read, 0)
        drive(controller, 100)
        # The read must not wait behind the single queued write.
        assert read.completed_cycle is not None
        assert dram.counts.host_reads == 1

    def test_oldest_pending_read_rank(self, controller):
        assert controller.oldest_pending_read_rank() is None
        controller.enqueue(MemoryRequest(addr(rank=1, row=1), False), 0)
        controller.enqueue(MemoryRequest(addr(rank=0, row=1), False), 1)
        assert controller.oldest_pending_read_rank() == 1

    def test_last_issue_tracking(self, controller):
        controller.enqueue(MemoryRequest(addr(rank=1, row=1), False), 0)
        drive(controller, 5)
        assert controller.last_issue_cycle >= 0
        assert controller.last_issue_rank == 1

    def test_refresh_issued_when_enabled(self, dram):
        controller = ChannelController(0, dram, SchedulerConfig(refresh_enabled=True))
        for now in range(T.tREFI + 50):
            controller.tick(now)
        assert dram.counts.refreshes >= 1

    def test_stats_reporting(self, controller):
        request = MemoryRequest(addr(row=1), False)
        controller.enqueue(request, 0)
        drive(controller, 200)
        assert controller.read_latency.count == 1
        assert controller.read_latency.total > 0
