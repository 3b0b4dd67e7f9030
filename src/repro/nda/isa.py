"""NDA instruction set (paper Table I).

Every operation is a coarse-grain vector/matrix kernel whose operands must be
local to one rank (one PE group).  The traits table records, per element
processed, how many operand cache lines are read, how many result cache lines
are written and how many fused multiply-add operations are executed — which
is all the timing and energy models need.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class NdaOpcode(enum.Enum):
    """The NDA operations of Table I."""

    AXPBY = "axpby"          # z = a*x + b*y
    AXPBYPCZ = "axpbypcz"    # w = a*x + b*y + c*z
    AXPY = "axpy"            # y = a*y + x   (paper's Table I form)
    COPY = "copy"            # y = x
    XMY = "xmy"              # z = x (*) y   (element-wise multiply)
    DOT = "dot"              # c = x . y
    NRM2 = "nrm2"            # c = sqrt(x . x)
    SCAL = "scal"            # x = a*x
    GEMV = "gemv"            # y = A x


@dataclass(frozen=True)
class OpcodeTraits:
    """Static per-element resource usage of one opcode."""

    #: Vector operands streamed from DRAM per output element.
    input_vectors: int
    #: Result vectors written back to DRAM (0 for reductions).
    output_vectors: int
    #: FMA operations per element.
    fmas_per_element: float
    #: Whether the result is a scalar reduction returned through the host.
    is_reduction: bool = False
    #: Whether the operation reads a matrix row per output element (GEMV).
    is_matrix: bool = False

    @property
    def reads_per_element(self) -> int:
        return self.input_vectors

    @property
    def writes_per_element(self) -> int:
        return self.output_vectors

    @property
    def write_intensity(self) -> float:
        """Fraction of DRAM traffic that is writes (used by Figures 11-13)."""
        total = self.input_vectors + self.output_vectors
        return self.output_vectors / total if total else 0.0


#: Per-opcode traits; elements are 4-byte floats.
OPCODE_TRAITS: Dict[NdaOpcode, OpcodeTraits] = {
    NdaOpcode.AXPBY: OpcodeTraits(input_vectors=2, output_vectors=1, fmas_per_element=2),
    NdaOpcode.AXPBYPCZ: OpcodeTraits(input_vectors=3, output_vectors=1, fmas_per_element=3),
    NdaOpcode.AXPY: OpcodeTraits(input_vectors=2, output_vectors=1, fmas_per_element=1),
    NdaOpcode.COPY: OpcodeTraits(input_vectors=1, output_vectors=1, fmas_per_element=0),
    NdaOpcode.XMY: OpcodeTraits(input_vectors=2, output_vectors=1, fmas_per_element=1),
    NdaOpcode.DOT: OpcodeTraits(input_vectors=2, output_vectors=0, fmas_per_element=1,
                                is_reduction=True),
    NdaOpcode.NRM2: OpcodeTraits(input_vectors=1, output_vectors=0, fmas_per_element=1,
                                 is_reduction=True),
    NdaOpcode.SCAL: OpcodeTraits(input_vectors=1, output_vectors=1, fmas_per_element=1),
    NdaOpcode.GEMV: OpcodeTraits(input_vectors=1, output_vectors=0, fmas_per_element=1,
                                 is_reduction=False, is_matrix=True),
}

_instruction_ids = itertools.count()


def get_instruction_id_watermark() -> int:
    """Next instruction id the global counter would hand out (checkpointing)."""
    global _instruction_ids
    value = next(_instruction_ids)
    _instruction_ids = itertools.count(value)
    return value


def set_instruction_id_watermark(value: int) -> None:
    """Restore the global instruction-id counter (checkpoint restore)."""
    global _instruction_ids
    _instruction_ids = itertools.count(value)


@dataclass
class NdaInstruction:
    """One NDA instruction targeting the portion of its operands in one rank.

    ``num_elements`` is the per-rank element count this instruction covers;
    ``cache_blocks`` is the coarse-grain granularity (the N-way vector width
    of Section III, swept by Figure 10): the number of 64-byte cache blocks
    of *each operand* processed by this single instruction.
    """

    STATE = ("opcode", "num_elements", "element_bytes", "cache_blocks",
             "scalars", "matrix_columns", "instruction_id")

    opcode: NdaOpcode
    num_elements: int
    element_bytes: int = 4
    cache_blocks: Optional[int] = None
    scalars: Tuple[float, ...] = ()
    #: GEMV only: number of matrix columns per output row.
    matrix_columns: int = 0
    instruction_id: int = field(default_factory=lambda: next(_instruction_ids))

    def __post_init__(self) -> None:
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")
        if self.element_bytes <= 0:
            raise ValueError("element_bytes must be positive")
        if self.opcode is NdaOpcode.GEMV and self.matrix_columns <= 0:
            raise ValueError("GEMV requires matrix_columns")

    @property
    def traits(self) -> OpcodeTraits:
        return OPCODE_TRAITS[self.opcode]

    @property
    def elements_per_cache_block(self) -> int:
        return max(1, 64 // self.element_bytes)

    @property
    def total_cache_blocks(self) -> int:
        """Cache blocks of one operand covered by this instruction."""
        if self.opcode is NdaOpcode.GEMV:
            elems = self.num_elements * self.matrix_columns
        else:
            elems = self.num_elements
        return max(1, (elems * self.element_bytes + 63) // 64)

    @property
    def read_cache_blocks(self) -> int:
        if self.opcode is NdaOpcode.GEMV:
            # The matrix is streamed once; the input vector is reused from
            # the scratchpad (Figure 9) and counted once.
            vec_blocks = max(1, (self.matrix_columns * self.element_bytes + 63) // 64)
            return self.total_cache_blocks + vec_blocks
        return self.total_cache_blocks * self.traits.input_vectors

    @property
    def write_cache_blocks(self) -> int:
        if self.opcode is NdaOpcode.GEMV:
            return max(1, (self.num_elements * self.element_bytes + 63) // 64)
        return self.total_cache_blocks * self.traits.output_vectors

    @property
    def fma_operations(self) -> float:
        if self.opcode is NdaOpcode.GEMV:
            return self.num_elements * self.matrix_columns
        return self.num_elements * self.traits.fmas_per_element

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic (read + write) of this instruction in bytes."""
        return (self.read_cache_blocks + self.write_cache_blocks) * 64

    def split(self, cache_blocks: int) -> "list[NdaInstruction]":
        """Split into instructions of at most ``cache_blocks`` granularity each."""
        if cache_blocks <= 0:
            raise ValueError("cache_blocks must be positive")
        elems_per_piece = cache_blocks * self.elements_per_cache_block
        pieces = []
        remaining = self.num_elements
        while remaining > 0:
            take = min(elems_per_piece, remaining)
            pieces.append(NdaInstruction(
                opcode=self.opcode,
                num_elements=take,
                element_bytes=self.element_bytes,
                cache_blocks=cache_blocks,
                scalars=self.scalars,
                matrix_columns=self.matrix_columns,
            ))
            remaining -= take
        return pieces
