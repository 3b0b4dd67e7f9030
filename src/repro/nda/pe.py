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
    """Operation counts accumulated by one PE, as the energy model reads them."""

    STATE = ("fma_operations", "buffer_accesses", "scratchpad_accesses")

    fma_operations: float = 0.0
    buffer_accesses: int = 0
    scratchpad_accesses: int = 0


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
        self.stats.fma_operations += instruction.fma_operations * per_chip_share
        # Every byte streamed from DRAM passes through the 1 KiB buffer; the
        # result batch is staged there as well (Figure 9).
        streamed = (instruction.read_cache_blocks
                    + instruction.write_cache_blocks) * 64
        self.stats.buffer_accesses += max(
            1, streamed // self.config.access_granularity_bytes)
        if instruction.traits.is_reduction or instruction.opcode is NdaOpcode.GEMV:
            self.stats.scratchpad_accesses += max(
                1, instruction.num_elements // self.config.scalar_registers
            )

    # ------------------------------------------------------------------ #

    def save_refs(self, refs) -> Dict[str, object]:
        return {"_current": refs.instruction(self._current)}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        self._current = refs.instructions.get(saved.pop("_current"))
