"""Processing-element model (paper Figure 9).

Each PE has two floating-point fused multiply-add units, five scalar
registers, a 1 KiB streaming buffer and a 1 KiB scratchpad.  The FMA
throughput matches the 8-byte-per-access local memory bandwidth, so PE
execution is memory-bound; the PE model therefore tracks occupancy and
operation counts (for the energy model) rather than simulating the datapath
cycle by cycle.  Functional results are computed by the runtime with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config import NdaConfig
from repro.nda.isa import NdaInstruction, NdaOpcode


@dataclass
class PeStatistics:
    """Operation counts accumulated by one PE."""

    STATE = ("instructions_executed", "elements_processed", "fma_operations",
             "buffer_accesses", "scratchpad_accesses", "bytes_read",
             "bytes_written", "busy_cycles")

    instructions_executed: int = 0
    elements_processed: int = 0
    fma_operations: float = 0.0
    buffer_accesses: int = 0
    scratchpad_accesses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_cycles: int = 0


class ProcessingElement:
    """One PE on the logic die of a DRAM chip stack."""

    STATE = ("_current",)
    COUNTERS = ("stats",)
    DERIVED = ("chip_id", "config")

    def __init__(self, chip_id: int, config: Optional[NdaConfig] = None) -> None:
        self.chip_id = chip_id
        self.config = config or NdaConfig()
        self.stats = PeStatistics()
        self._current: Optional[NdaInstruction] = None

    # ------------------------------------------------------------------ #

    @property
    def busy(self) -> bool:
        return self._current is not None

    def start(self, instruction: NdaInstruction) -> None:
        if self.busy:
            raise RuntimeError(f"PE {self.chip_id} is already executing an instruction")
        self._current = instruction

    def finish(self) -> NdaInstruction:
        if self._current is None:
            raise RuntimeError(f"PE {self.chip_id} has no instruction to finish")
        instruction = self._current
        self._current = None
        self._account(instruction)
        return instruction

    def _account(self, instruction: NdaInstruction) -> None:
        per_chip_share = 1.0 / max(1, self.config.pes_per_chip)
        self.stats.instructions_executed += 1
        self.stats.elements_processed += instruction.num_elements
        self.stats.fma_operations += instruction.fma_operations * per_chip_share
        read_bytes = instruction.read_cache_blocks * 64
        write_bytes = instruction.write_cache_blocks * 64
        self.stats.bytes_read += read_bytes
        self.stats.bytes_written += write_bytes
        # Every byte streamed from DRAM passes through the 1 KiB buffer; the
        # result batch is staged there as well (Figure 9).
        buffer_bytes = read_bytes + write_bytes
        self.stats.buffer_accesses += max(1, buffer_bytes // self.config.access_granularity_bytes)
        if instruction.traits.is_reduction or instruction.opcode is NdaOpcode.GEMV:
            self.stats.scratchpad_accesses += max(
                1, instruction.num_elements // self.config.scalar_registers
            )

    # ------------------------------------------------------------------ #

    def save_refs(self, refs) -> Dict[str, object]:
        return {"_current": refs.instruction(self._current)}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        self._current = refs.instructions.get(saved.pop("_current"))

    def batch_count(self, instruction: NdaInstruction) -> int:
        """Number of 1 KiB batches the instruction is processed in (Figure 9)."""
        operand_bytes = instruction.num_elements * instruction.element_bytes
        per_chip = operand_bytes / 8.0  # the rank's 8 chips each hold 1/8th
        return max(1, int((per_chip + self.config.buffer_bytes - 1)
                          // self.config.buffer_bytes))

    def compute_cycles(self, instruction: NdaInstruction) -> int:
        """PE-side compute cycles, fully overlapped with memory streaming.

        Two FMAs per cycle per chip match the 8 B/cycle access granularity,
        so this only becomes the bottleneck for arithmetically dense kernels
        (none of the Table I operations are).
        """
        fma_per_cycle = self.config.fpfma_per_pe
        return int(instruction.fma_operations / 8.0 / max(1, fma_per_cycle)) + 1
