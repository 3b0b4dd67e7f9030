"""Tests for the NDA hardware model: ISA, PE, write buffer, FSM, throttling,
rank controller and the host-side launch path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DramOrgConfig, DramTimingConfig, NdaConfig
from repro.dram.device import DramSystem
from repro.memctrl.controller import ChannelController
from repro.nda.controller import NdaRankController, RankWorkItem
from repro.nda.fsm import FsmDivergenceError, ReplicatedFsm
from repro.nda.isa import NdaInstruction, NdaOpcode, OPCODE_TRAITS
from repro.nda.launch import NdaHostController
from repro.nda.pe import ProcessingElement
from repro.nda.throttle import (
    IssueIfIdlePolicy,
    NextRankPredictionPolicy,
    StochasticIssuePolicy,
    make_policy,
)
from repro.nda.write_buffer import NdaWriteBuffer
from repro.utils.rng import DeterministicRng

ORG = DramOrgConfig()
T = DramTimingConfig()


class TestIsa:
    def test_all_table_i_operations_present(self):
        names = {op.value for op in NdaOpcode}
        assert names == {"axpby", "axpbypcz", "axpy", "copy", "xmy",
                         "dot", "nrm2", "scal", "gemv"}

    def test_write_intensity_extremes(self):
        assert OPCODE_TRAITS[NdaOpcode.DOT].write_intensity == 0.0
        assert OPCODE_TRAITS[NdaOpcode.COPY].write_intensity == 0.5
        assert OPCODE_TRAITS[NdaOpcode.DOT].is_reduction
        assert not OPCODE_TRAITS[NdaOpcode.COPY].is_reduction

    def test_copy_is_most_write_intensive(self):
        copy_intensity = OPCODE_TRAITS[NdaOpcode.COPY].write_intensity
        assert all(OPCODE_TRAITS[op].write_intensity <= copy_intensity
                   for op in NdaOpcode)

    def test_instruction_cache_block_accounting(self):
        instr = NdaInstruction(NdaOpcode.AXPY, num_elements=1024)
        assert instr.total_cache_blocks == 1024 * 4 // 64
        assert instr.read_cache_blocks == 2 * instr.total_cache_blocks
        assert instr.write_cache_blocks == instr.total_cache_blocks

    def test_dot_has_no_writes(self):
        instr = NdaInstruction(NdaOpcode.DOT, num_elements=1024)
        assert instr.write_cache_blocks == 0
        assert instr.fma_operations == 1024

    def test_gemv_accounting(self):
        instr = NdaInstruction(NdaOpcode.GEMV, num_elements=128, matrix_columns=1024)
        assert instr.fma_operations == 128 * 1024
        assert instr.read_cache_blocks > instr.total_cache_blocks

    def test_gemv_requires_columns(self):
        with pytest.raises(ValueError):
            NdaInstruction(NdaOpcode.GEMV, num_elements=128)

    def test_invalid_element_count(self):
        with pytest.raises(ValueError):
            NdaInstruction(NdaOpcode.COPY, num_elements=0)

    @given(st.integers(min_value=1, max_value=4096),
           st.integers(min_value=1, max_value=512))
    @settings(max_examples=50, deadline=None)
    def test_split_preserves_total_elements(self, elements, cache_blocks):
        instr = NdaInstruction(NdaOpcode.COPY, num_elements=elements)
        pieces = instr.split(cache_blocks)
        assert sum(p.num_elements for p in pieces) == elements
        assert all(p.opcode is NdaOpcode.COPY for p in pieces)
        per_piece = cache_blocks * instr.elements_per_cache_block
        assert all(p.num_elements <= per_piece for p in pieces)

    def test_split_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            NdaInstruction(NdaOpcode.COPY, num_elements=16).split(0)


class TestProcessingElement:
    def test_start_finish_accounting(self):
        pe = ProcessingElement(0)
        instr = NdaInstruction(NdaOpcode.AXPY, num_elements=2048)
        pe.start(instr)
        assert pe.busy
        pe.finish()
        assert not pe.busy
        streamed = (instr.read_cache_blocks + instr.write_cache_blocks) * 64
        assert pe.stats.buffer_accesses == streamed // 8
        assert pe.stats.scratchpad_accesses == 0
        assert pe.stats.fma_operations > 0

    def test_double_start_rejected(self):
        pe = ProcessingElement(0)
        pe.start(NdaInstruction(NdaOpcode.COPY, num_elements=16))
        with pytest.raises(RuntimeError):
            pe.start(NdaInstruction(NdaOpcode.COPY, num_elements=16))

    def test_finish_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            ProcessingElement(0).finish()


class TestWriteBuffer:
    def test_capacity_and_drain_watermark(self):
        wb = NdaWriteBuffer(capacity=4, drain_high_watermark=0.5)
        wb.push()
        assert not wb.draining
        wb.push()
        assert wb.draining
        wb.push(2)
        assert len(wb) == 4
        with pytest.raises(IndexError):
            wb.push()  # full: the PE stalls instead
        assert len(wb) == 4

    def test_drain_clears_flag_at_low_watermark(self):
        wb = NdaWriteBuffer(capacity=4, drain_high_watermark=0.5, drain_low_watermark=0.25)
        wb.push(3)
        assert wb.draining
        wb.pop()
        assert wb.draining
        wb.pop()
        assert not wb.draining
        wb.pop()
        assert wb.empty

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            NdaWriteBuffer().pop()

    def test_force_drain(self):
        wb = NdaWriteBuffer(capacity=128)
        wb.force_drain()
        assert not wb.draining
        wb.push()
        assert not wb.draining
        wb.force_drain()
        assert wb.draining

    def test_state_tuple_matches_fsm_view(self):
        wb = NdaWriteBuffer(capacity=8)
        wb.push()
        assert (len(wb), wb.draining) == (1, False)

    def test_invalid_watermarks(self):
        with pytest.raises(ValueError):
            NdaWriteBuffer(capacity=4, drain_high_watermark=0.1, drain_low_watermark=0.5)


class TestReplicatedFsm:
    def test_copies_stay_in_sync_through_full_lifecycle(self):
        fsm = ReplicatedFsm(0, 0)
        fsm.apply("launch", instruction_id=1, reads=4, writes=2)
        for _ in range(4):
            fsm.apply("read_issued")
        fsm.apply("write_buffered")
        fsm.apply("write_buffered")
        fsm.apply("drain_start")
        fsm.apply("write_drained")
        fsm.apply("write_drained")
        fsm.apply("complete")
        assert fsm.in_sync
        assert fsm.state.idle
        assert fsm.state.instructions_completed == 1

    def test_divergence_detected(self):
        fsm = ReplicatedFsm(0, 0, check_every_event=False)
        fsm.apply("launch", instruction_id=1, reads=1, writes=0)
        fsm.apply_device_only("read_issued")
        assert not fsm.in_sync
        with pytest.raises(FsmDivergenceError):
            fsm.verify()

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedFsm(0, 0).apply("warp_drive")

    def test_storage_overhead_matches_paper(self):
        assert ReplicatedFsm.storage_overhead_bytes() == (40, 20)

    @given(st.lists(st.sampled_from(["read_issued", "write_buffered",
                                     "write_drained", "drain_start", "drain_end"]),
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_sync_invariant_under_arbitrary_event_sequences(self, events):
        fsm = ReplicatedFsm(0, 1)
        fsm.apply("launch", instruction_id=7, reads=100, writes=100)
        for event in events:
            fsm.apply(event)
        assert fsm.in_sync


class TestThrottlePolicies:
    def test_issue_if_idle_always_allows(self):
        assert IssueIfIdlePolicy().allow_write(0, 0, 0)

    def test_stochastic_rate(self):
        policy = StochasticIssuePolicy(0.25, DeterministicRng(1, "st"))
        allowed = sum(policy.allow_write(0, 0, i) for i in range(4000))
        assert abs(allowed / 4000 - 0.25) < 0.05

    def test_stochastic_invalid_probability(self):
        with pytest.raises(ValueError):
            StochasticIssuePolicy(0.0, DeterministicRng(1, "st"))

    def test_next_rank_prediction_blocks_predicted_rank(self):
        class FakeController:
            def __init__(self, rank):
                self._rank = rank

            def oldest_pending_read_rank(self):
                return self._rank

        policy = NextRankPredictionPolicy({0: FakeController(1)})
        assert not policy.allow_write(0, 1, 0)   # predicted rank blocked
        assert policy.allow_write(0, 0, 0)       # other rank allowed
        assert policy.allow_write(1, 1, 0)       # unknown channel allowed

    def test_factory(self):
        rng = DeterministicRng(1, "f")
        assert isinstance(make_policy("issue_if_idle"), IssueIfIdlePolicy)
        assert isinstance(make_policy("stochastic", rng=rng), StochasticIssuePolicy)
        assert isinstance(make_policy("next_rank"), NextRankPredictionPolicy)
        with pytest.raises(ValueError):
            make_policy("stochastic")
        with pytest.raises(ValueError):
            make_policy("nonsense")


def _work_item(opcode=NdaOpcode.COPY, elements=512, on_complete=None):
    instr = NdaInstruction(opcode, num_elements=elements)
    return RankWorkItem(
        instruction=instr,
        operand_banks=[0, 1][:max(1, instr.traits.input_vectors)],
        operand_base_rows=[0, 0][:max(1, instr.traits.input_vectors)],
        output_bank=2 if instr.traits.output_vectors else None,
        output_base_row=0 if instr.traits.output_vectors else None,
        on_complete=on_complete,
    )


class TestNdaRankController:
    def make(self, **kwargs):
        dram = DramSystem(ORG, T)
        controller = NdaRankController(0, 0, dram, NdaConfig(), **kwargs)
        return dram, controller

    def run(self, controller, cycles, start=0):
        for now in range(start, start + cycles):
            controller.try_issue(now)
            controller.post_cycle(now)
        return start + cycles

    def test_copy_instruction_completes_with_equal_reads_and_writes(self):
        done = []
        dram, controller = self.make()
        controller.enqueue(_work_item(NdaOpcode.COPY, 512, done.append))
        self.run(controller, 1500)
        assert done, "instruction did not complete"
        assert controller.instructions_completed == 1
        assert controller.bytes_read == 512 * 4
        assert controller.bytes_written == 512 * 4
        assert controller.fsm.in_sync

    def test_dot_instruction_reads_two_vectors_writes_nothing(self):
        dram, controller = self.make()
        controller.enqueue(_work_item(NdaOpcode.DOT, 512))
        self.run(controller, 1500)
        assert controller.instructions_completed == 1
        assert controller.bytes_read == 2 * 512 * 4
        assert controller.bytes_written == 0
        assert dram.counts.nda_writes == 0

    def test_throttle_blocks_all_writes(self):
        class NeverWrite(IssueIfIdlePolicy):
            def allow_write(self, channel, rank, now):
                return False

        dram, controller = self.make(throttle=NeverWrite())
        controller.enqueue(_work_item(NdaOpcode.COPY, 256))
        self.run(controller, 1200)
        assert controller.instructions_completed == 0
        assert controller.bytes_written == 0
        assert controller.cycles_blocked_by_throttle > 0

    def test_host_pending_bank_blocks_nda_row_commands(self):
        dram, controller = self.make(
            host_pending_to_bank=lambda ch, rk, bank: True
        )
        controller.enqueue(_work_item(NdaOpcode.DOT, 128))
        self.run(controller, 500)
        # Every row command defers to the (permanently) pending host request.
        assert controller.instructions_completed == 0
        assert controller.cycles_blocked_by_host > 0

    def test_queue_and_busy_reporting(self):
        dram, controller = self.make()
        assert not controller.busy
        controller.enqueue(_work_item(NdaOpcode.COPY, 128))
        controller.enqueue(_work_item(NdaOpcode.COPY, 128))
        assert controller.busy
        stats = controller.stats()
        assert stats["instructions_completed"] == 0

    def test_multiple_instructions_execute_in_order(self):
        order = []
        dram, controller = self.make()
        controller.enqueue(_work_item(NdaOpcode.DOT, 128, lambda c: order.append("first")))
        controller.enqueue(_work_item(NdaOpcode.COPY, 128, lambda c: order.append("second")))
        self.run(controller, 3000)
        assert order == ["first", "second"]


class TestNdaHostController:
    def make(self, ranks=2):
        org = DramOrgConfig(ranks_per_channel=ranks)
        dram = DramSystem(org, T)
        channels = {ch: ChannelController(ch, dram) for ch in range(org.channels)}
        rank_controllers = {
            (ch, rk): NdaRankController(ch, rk, dram)
            for ch in range(org.channels) for rk in range(org.ranks_per_channel)
        }
        host = NdaHostController(dram, channels, rank_controllers)
        return dram, channels, rank_controllers, host

    def run(self, channels, rank_controllers, host, cycles):
        for now in range(cycles):
            for mc in channels.values():
                mc.tick(now)
            host.tick(now)
            for rc in rank_controllers.values():
                rc.try_issue(now)
                rc.post_cycle(now)

    def test_operation_split_across_all_ranks(self):
        dram, channels, rcs, host = self.make()
        op = host.submit_kernel(NdaOpcode.DOT, total_elements=4096, cache_blocks=256)
        self.run(channels, rcs, host, 4000)
        assert op.completed_cycle is not None
        assert all(rc.instructions_completed >= 1 for rc in rcs.values())
        assert host.operations_completed == 1
        assert host.idle

    @staticmethod
    def host_writes(dram):
        """The host WR commands ``dram`` issues from now on."""
        log = []
        dram.observer = lambda record: (
            log.append(record)
            if (record.kind, record.source) == ("WR", "host") else None)
        return log

    def launch_packets(self, cache_blocks):
        """Launch packets of a DOT after 200 cycles: written, queued or
        waiting for a queue."""
        dram, channels, rcs, host = self.make()
        written = self.host_writes(dram)
        host.submit_kernel(NdaOpcode.DOT, total_elements=4096,
                           cache_blocks=cache_blocks)
        self.run(channels, rcs, host, 200)
        return (len(written) + len(host._pending_packets)
                + sum(len(mc.write_queue) for mc in channels.values()))

    def test_launch_packets_consume_host_writes(self):
        dram, channels, rcs, host = self.make()
        written = self.host_writes(dram)
        host.submit_kernel(NdaOpcode.DOT, total_elements=4096, cache_blocks=1)
        self.run(channels, rcs, host, 300)
        # One host write per instruction per rank, to the control row.
        assert len(written) > 4
        assert {record.row for record in written} == {dram.org.rows_per_bank - 1}

    def test_fine_grain_needs_more_packets_than_coarse(self):
        assert self.launch_packets(1) > self.launch_packets(1024)

    def test_blocking_operation_serializes_launches(self):
        dram, channels, rcs, host = self.make()
        first = host.submit_kernel(NdaOpcode.COPY, total_elements=2048)
        second = host.submit_kernel(NdaOpcode.COPY, total_elements=2048)
        self.run(channels, rcs, host, 50)
        assert first.outstanding_instructions > 0
        assert second.outstanding_instructions == 0  # waits for the blocking op

    def test_async_operations_overlap(self):
        dram, channels, rcs, host = self.make()
        first = host.submit_kernel(NdaOpcode.COPY, total_elements=2048, async_launch=True)
        second = host.submit_kernel(NdaOpcode.COPY, total_elements=2048, async_launch=True)
        self.run(channels, rcs, host, 50)
        assert first.outstanding_instructions > 0
        assert second.outstanding_instructions > 0

    def test_bypassing_channel_for_launches(self):
        org = DramOrgConfig()
        dram = DramSystem(org, T)
        channels = {ch: ChannelController(ch, dram) for ch in range(org.channels)}
        rcs = {(ch, rk): NdaRankController(ch, rk, dram)
               for ch in range(org.channels) for rk in range(org.ranks_per_channel)}
        host = NdaHostController(dram, channels, rcs, launch_packets_use_channel=False)
        host.submit_kernel(NdaOpcode.DOT, total_elements=1024)
        host.tick(0)
        assert not any(mc.write_queue for mc in channels.values())
        assert all(rc.busy for rc in rcs.values())
