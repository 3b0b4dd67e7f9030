"""Bank partitioning between host-reserved and shared banks (Section III-C).

Chopim reserves a small number of banks per rank for data shared between the
host and the NDAs and keeps the remaining banks exclusively for host-only
tasks.  Unlike prior bank-partitioning schemes, this one is compatible with
huge pages and with XOR-hashed interleaving because it operates *after* the
hardware mapping function (Figure 4b):

1. The OS hands host traffic only the bottom ``(B - N) / B`` of the physical
   address space, where ``B`` is banks per rank and ``N`` the reserved
   count; :meth:`BankPartitionMapping.to_dram` rejects anything above.
2. Host addresses go through the normal (hashed) mapping.  If the result
   lands in a reserved bank, the bank bits are swapped with the most
   significant row bits; because the host region never has those MSBs set
   to a reserved-bank value, the final bank is always a host bank and no
   aliasing can occur.

The reserved banks hold the NDA operands, which the NDA host places directly
in DRAM coordinates, rank-aligned as Figure 3 requires
(``repro.nda.launch._OperandPlacer``); no physical address reaches them.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DramOrgConfig
from repro.addressing.mapping import AddressMapping, XorFieldMapping, partition_friendly_mapping
from repro.dram.commands import DramAddress


class BankPartitionMapping(AddressMapping):
    """The host mapping of a rank whose top banks are reserved for NDAs."""

    def __init__(self, org: DramOrgConfig, reserved_banks_per_rank: int = 1,
                 base: Optional[XorFieldMapping] = None) -> None:
        super().__init__(org)
        banks = org.banks_per_rank
        if not 0 < reserved_banks_per_rank < banks:
            raise ValueError(
                "reserved_banks_per_rank must be between 1 and banks_per_rank - 1"
            )
        self.base = base if base is not None else partition_friendly_mapping(org)
        bank_total_bits = self.bank_group_bits + self.bank_bits
        if self.base.uses_top_row_bits_in_hash(bank_total_bits):
            raise ValueError(
                "base mapping hashes the top row bits; bank partitioning requires "
                "the physical MSBs to map only to the row address (Figure 4b)"
            )
        #: Flat bank indices (bank_group * banks_per_group + bank) reserved
        #: for NDA operands, taken from the top of the bank space.
        self._first_reserved = banks - reserved_banks_per_rank
        self.reserved_banks = tuple(range(self._first_reserved, banks))
        self.host_capacity_bytes = org.total_bytes * self._first_reserved // banks
        self._row_shift = self.row_bits - bank_total_bits

    def to_dram(self, phys: int) -> DramAddress:
        self.check_range(phys)
        addr = self.base.to_dram(phys)
        flat = addr.bank_group * self._banks_per_group + addr.bank
        if flat < self._first_reserved:
            return addr
        # Swap the bank bits with the most significant row bits.
        row_shift = self._row_shift
        new_flat = addr.row >> row_shift
        new_row = (flat << row_shift) | (addr.row & ((1 << row_shift) - 1))
        return self.stamp_indices(
            addr.channel,
            addr.rank,
            new_flat // self._banks_per_group,
            new_flat % self._banks_per_group,
            new_row,
            addr.column,
        )
