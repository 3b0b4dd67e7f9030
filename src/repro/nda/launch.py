"""Host-side NDA controller: launching and tracking NDA operations.

NDA operations are launched as in Farmahini et al.: a memory region is
reserved for NDA control registers and each launch is a packet (one host
write transaction) carrying the operation type, operand base addresses,
vector length and scalars (Section V).  The host-side NDA controller

* splits an API-level operation into per-rank instructions at the configured
  coarse-grain granularity (cache blocks per instruction),
* issues launch packets to the ranks round-robin, consuming host channel
  bandwidth — the contention that Figure 10 quantifies,
* tracks completion and supports blocking and asynchronous (macro-operation)
  launches, and
* maintains the replicated FSMs through its rank controllers.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config import NdaConfig
from repro.dram.commands import DramAddress
from repro.dram.device import DramSystem
from repro.memctrl.controller import ChannelController
from repro.memctrl.request import MemoryRequest
from repro.nda.controller import NdaRankController, RankWorkItem
from repro.nda.isa import NdaInstruction, NdaOpcode, OPCODE_TRAITS

_operation_ids = itertools.count()


def get_operation_id_watermark() -> int:
    """Next operation id the global counter would hand out (checkpointing)."""
    global _operation_ids
    value = next(_operation_ids)
    _operation_ids = itertools.count(value)
    return value


def set_operation_id_watermark(value: int) -> None:
    """Restore the global operation-id counter (checkpoint restore)."""
    global _operation_ids
    _operation_ids = itertools.count(value)


@dataclass
class NdaPacket:
    """A launch packet written to a rank's NDA control registers."""

    STATE = ("channel", "rank", "work", "control_address")

    channel: int
    rank: int
    work: RankWorkItem
    control_address: DramAddress


@dataclass
class NdaOperation:
    """An API-level NDA operation spanning all ranks.

    ``total_elements`` counts elements across the whole system; the host
    controller splits the work evenly over ranks.  ``cache_blocks`` is the
    per-instruction granularity (Figure 10); ``async_launch`` marks macro
    operations that do not block subsequent launches (Section V,
    "Optimization for Load-Imbalance").
    """

    STATE = ("opcode", "total_elements", "cache_blocks", "element_bytes",
             "scalars", "matrix_columns", "async_launch", "operation_id",
             "completed_cycle", "outstanding_instructions")
    #: A runtime callback: checkpoints refuse operations that carry one.
    DERIVED = ("on_complete",)

    opcode: NdaOpcode
    total_elements: int
    cache_blocks: Optional[int] = None
    element_bytes: int = 4
    scalars: Tuple[float, ...] = ()
    matrix_columns: int = 0
    async_launch: bool = False
    on_complete: Optional[Callable[[int], None]] = None
    operation_id: int = field(default_factory=lambda: next(_operation_ids))

    completed_cycle: Optional[int] = None
    outstanding_instructions: int = 0


class _OperandPlacer:
    """Assigns banks and base rows for synthetic NDA operand placement.

    Operands of one operation rotate over the allowed banks of the rank (the
    reserved banks under bank partitioning, every bank otherwise) and
    occupy consecutive rows starting at a per-bank cursor.  Placement is in
    DRAM coordinates, one rank per instruction, so equal indices of all
    operands land in one rank: Figure 3's alignment, which the paper gets
    from OS frame coloring of system-row-aligned operands (Section III-A;
    ``TestColoringProperty`` checks that property of the host mapping).
    This is the only place operands are laid out: no physical address is
    allocated or translated.
    """

    STATE = ("_row_cursor", "_next_bank")
    DERIVED = ("allowed_banks", "rows_per_bank")

    def __init__(self, allowed_banks: List[int], rows_per_bank: int) -> None:
        self.allowed_banks = allowed_banks
        self.rows_per_bank = rows_per_bank
        self._row_cursor: Dict[int, int] = {b: 0 for b in allowed_banks}
        self._next_bank = 0

    def place(self, rows_needed: int) -> Tuple[int, int]:
        """(flat bank, base row) for an operand needing ``rows_needed`` rows."""
        bank = self.allowed_banks[self._next_bank % len(self.allowed_banks)]
        self._next_bank += 1
        base = self._row_cursor[bank]
        self._row_cursor[bank] = (base + max(1, rows_needed)) % self.rows_per_bank
        return bank, base


class NdaHostController:
    """Accepts NDA operations, launches them to ranks and tracks completion."""

    STATE = ("_operation_queue", "_pending_packets", "_active_blocking",
             "_placers", "_control_column", "_inflight")
    COUNTERS = ("operations_completed",)
    DERIVED = ("dram", "channel_controllers", "rank_controllers", "config",
               "launch_packets_use_channel", "wake_listener")

    def __init__(self, dram: DramSystem,
                 channel_controllers: Dict[int, ChannelController],
                 rank_controllers: Dict[Tuple[int, int], NdaRankController],
                 config: Optional[NdaConfig] = None,
                 launch_packets_use_channel: bool = True) -> None:
        self.dram = dram
        self.channel_controllers = channel_controllers
        self.rank_controllers = rank_controllers
        self.config = config or NdaConfig()
        self.launch_packets_use_channel = launch_packets_use_channel
        self._operation_queue: Deque[NdaOperation] = deque()
        self._pending_packets: Deque[NdaPacket] = deque()
        self._active_blocking: Optional[NdaOperation] = None
        self._placers: Dict[Tuple[int, int], _OperandPlacer] = {
            key: _OperandPlacer(rc.allowed_banks, dram.org.rows_per_bank)
            for key, rc in rank_controllers.items()
        }
        self._control_column = 0
        #: Launch-packet writes currently in flight in a channel write queue,
        #: keyed by the carrying request's id.  Maintained so checkpointing
        #: can serialize the packet an in-flight control write delivers (the
        #: request's ``on_complete`` closure is rebuilt from this at restore).
        self._inflight: Dict[int, NdaPacket] = {}
        self.operations_completed = 0
        #: Selective-wake notification: invoked when a new operation is
        #: submitted, so the engine re-polls this controller's unit instead
        #: of polling it every cycle.
        self.wake_listener: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, operation: NdaOperation) -> NdaOperation:
        """Queue an operation for launch."""
        self._operation_queue.append(operation)
        listener = self.wake_listener
        if listener is not None:
            listener()
        return operation

    def submit_kernel(self, opcode: NdaOpcode, total_elements: int,
                      cache_blocks: Optional[int] = None,
                      async_launch: bool = False,
                      matrix_columns: int = 0,
                      on_complete: Optional[Callable[[int], None]] = None,
                      ) -> NdaOperation:
        """Convenience wrapper used by experiments and the runtime."""
        op = NdaOperation(
            opcode=opcode,
            total_elements=total_elements,
            cache_blocks=cache_blocks or self.config.default_cache_blocks_per_instruction,
            async_launch=async_launch,
            matrix_columns=matrix_columns,
            on_complete=on_complete,
        )
        return self.submit(op)

    @property
    def idle(self) -> bool:
        return (not self._operation_queue and not self._pending_packets
                and self._active_blocking is None
                and all(not rc.busy for rc in self.rank_controllers.values()))

    # ------------------------------------------------------------------ #
    # Cycle advance
    # ------------------------------------------------------------------ #

    def tick(self, now: int) -> None:
        """Advance launch processing by one DRAM cycle."""
        self._drain_packets(now)
        self._maybe_launch_next(now)

    def _maybe_launch_next(self, now: int) -> None:
        if self._active_blocking is not None:
            return
        if not self._operation_queue:
            return
        operation = self._operation_queue.popleft()
        self._launch(operation, now)
        if not operation.async_launch:
            self._active_blocking = operation

    def _launch(self, operation: NdaOperation, now: int) -> None:
        total_ranks = list(self.rank_controllers.keys())
        if not total_ranks:
            raise RuntimeError("no NDA rank controllers configured")
        per_rank = max(1, operation.total_elements // len(total_ranks))
        granularity = operation.cache_blocks or self.config.default_cache_blocks_per_instruction
        for key in total_ranks:
            rank_instruction = NdaInstruction(
                opcode=operation.opcode,
                num_elements=per_rank,
                element_bytes=operation.element_bytes,
                scalars=operation.scalars,
                matrix_columns=operation.matrix_columns,
            )
            pieces = rank_instruction.split(granularity)
            operation.outstanding_instructions += len(pieces)
            for piece in pieces:
                work = self._bind(key, piece, operation)
                packet = NdaPacket(
                    channel=key[0], rank=key[1], work=work,
                    control_address=self._control_register_address(key),
                )
                self._pending_packets.append(packet)
        self._drain_packets(now)

    def _bind(self, key: Tuple[int, int], instruction: NdaInstruction,
              operation: NdaOperation) -> RankWorkItem:
        placer = self._placers[key]
        columns_per_row = self.dram.org.columns_per_row
        rows_per_operand = max(1, (instruction.total_cache_blocks
                                   + columns_per_row - 1) // columns_per_row)
        traits = OPCODE_TRAITS[instruction.opcode]
        operand_banks: List[int] = []
        operand_rows: List[int] = []
        num_inputs = 2 if instruction.opcode is NdaOpcode.GEMV else max(1, traits.input_vectors)
        for _ in range(num_inputs):
            bank, row = placer.place(rows_per_operand)
            operand_banks.append(bank)
            operand_rows.append(row)
        output_bank: Optional[int] = None
        output_row: Optional[int] = None
        if traits.output_vectors:
            output_bank, output_row = placer.place(rows_per_operand)

        return RankWorkItem(
            instruction=instruction,
            operand_banks=operand_banks,
            operand_base_rows=operand_rows,
            output_bank=output_bank,
            output_base_row=output_row,
            on_complete=self._piece_completion_callback(operation),
            operation_id=operation.operation_id,
        )

    def _piece_completion_callback(self, operation: NdaOperation):
        """The per-piece completion hook bound to ``operation``.

        A named constructor (rather than an inline closure in ``_bind``) so
        checkpoint restore can rebuild the hook for a deserialized work item
        from its ``operation_id`` alone.
        """

        def _on_piece_complete(cycle: int, op=operation) -> None:
            op.outstanding_instructions -= 1
            if op.outstanding_instructions <= 0 and op.completed_cycle is None:
                op.completed_cycle = cycle
                self.operations_completed += 1
                if self._active_blocking is op:
                    self._active_blocking = None
                if op.on_complete is not None:
                    op.on_complete(cycle)

        return _on_piece_complete

    def _control_register_address(self, key: Tuple[int, int]) -> DramAddress:
        """Address of the rank's NDA control registers (a reserved row)."""
        channel, rank = key
        rc = self.rank_controllers[key]
        bank = rc.allowed_banks[0]
        self._control_column = (self._control_column + 1) % self.dram.org.columns_per_row
        return DramAddress(
            channel=channel,
            rank=rank,
            bank_group=bank // self.dram.org.banks_per_group,
            bank=bank % self.dram.org.banks_per_group,
            row=self.dram.org.rows_per_bank - 1,
            column=self._control_column,
        )

    def _drain_packets(self, now: int) -> None:
        """Send pending launch packets as host write transactions."""
        remaining: Deque[NdaPacket] = deque()
        while self._pending_packets:
            packet = self._pending_packets.popleft()
            if not self.launch_packets_use_channel:
                self._deliver(packet, now)
                continue
            controller = self.channel_controllers[packet.channel]
            request = MemoryRequest(
                addr=packet.control_address,
                is_write=True,
                core_id=-2,  # NDA control traffic
                on_complete=lambda cycle, p=packet: self._deliver(p, cycle),
            )
            if controller.enqueue(request, now):
                self._inflight[request.request_id] = packet
            else:
                remaining.append(packet)
                break  # preserve order; retry next cycle
        while remaining:
            self._pending_packets.appendleft(remaining.pop())

    def _deliver(self, packet: NdaPacket, cycle: int) -> None:
        """The packet write completed: hand the work to the rank controller."""
        for request_id, inflight in self._inflight.items():
            if inflight is packet:
                del self._inflight[request_id]
                break
        self.rank_controllers[(packet.channel, packet.rank)].enqueue(packet.work)

    # ------------------------------------------------------------------ #
    # Event-engine interface
    # ------------------------------------------------------------------ #

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``tick`` could do anything.

        Launches are self-paced (next cycle once an operation is queued and
        nothing blocks).  Stuck launch packets only unblock when a channel
        write queue frees an entry — the issuing channel unit dirties this
        controller's unit, so a full queue contributes no wake-up here.
        Operation completions (which clear ``_active_blocking`` and can make
        the controller idle for a relaunch) arrive as dirty notifications
        from the rank units.
        """
        if self._operation_queue and self._active_blocking is None:
            return now
        if self._pending_packets:
            packet = self._pending_packets[0]
            controller = self.channel_controllers[packet.channel]
            if not controller.write_queue.full:
                return now
        return 1 << 62

    def save_refs(self, refs) -> Dict[str, object]:
        def packet(p: NdaPacket) -> Dict[str, object]:
            return refs.capture(p, {"work": refs.work(p.work)})

        return {
            "_operation_queue": [refs.operation(op)
                                 for op in self._operation_queue],
            "_active_blocking": refs.operation(self._active_blocking),
            "_pending_packets": [packet(p) for p in self._pending_packets],
            "_inflight": [(request_id, packet(p))
                          for request_id, p in self._inflight.items()],
        }

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        def packet(state: Dict[str, object]) -> NdaPacket:
            return refs.rebuild(
                NdaPacket, state, work=refs.load_work(state["work"]),
                control_address=DramAddress._make(state["control_address"]))

        operations = refs.operations
        self._operation_queue = deque(
            operations[oid] for oid in saved.pop("_operation_queue"))
        self._active_blocking = operations.get(saved.pop("_active_blocking"))
        self._pending_packets = deque(
            packet(state) for state in saved.pop("_pending_packets"))
        for request_id, state in saved.pop("_inflight"):
            inflight = self._inflight[request_id] = packet(state)
            # The in-flight control write delivers this exact packet object
            # on completion (_deliver pops the map by identity).
            refs.requests[request_id].on_complete = (
                lambda cycle, p=inflight: self._deliver(p, cycle))
