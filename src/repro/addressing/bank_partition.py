"""Bank partitioning between host-reserved and shared banks (Section III-C).

Chopim reserves a small number of banks per rank for data shared between the
host and the NDAs and keeps the remaining banks exclusively for host-only
tasks.  Unlike prior bank-partitioning schemes, this one is compatible with
huge pages and with XOR-hashed interleaving because it operates *after* the
hardware mapping function:

1. The OS carves the physical address space into a bottom *host-only* region
   (``(B - N) / B`` of capacity, where ``B`` is banks per rank and ``N`` the
   reserved count) and a top *shared* region (``N / B`` of capacity) that it
   never hands out to ordinary allocations.
2. Host-only addresses go through the normal (hashed) mapping.  If the result
   lands in a reserved bank, the bank bits are swapped with the most
   significant row bits; because the host-only region never has those MSBs
   set to a reserved-bank value, the final bank is always a host bank and no
   aliasing can occur.
3. Shared-region addresses are mapped by a simple NDA-locality-friendly
   layout that places them exactly in the reserved banks, interleaving ranks
   at DRAM-row granularity so NDA operands stay rank-aligned (Figure 3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import DramOrgConfig
from repro.addressing.mapping import AddressMapping, XorFieldMapping, partition_friendly_mapping
from repro.dram.commands import DramAddress


class BankPartitionMapping(AddressMapping):
    """Address mapping with host-reserved and shared bank partitions."""

    def __init__(self, org: DramOrgConfig, reserved_banks_per_rank: int = 1,
                 base: Optional[XorFieldMapping] = None) -> None:
        super().__init__(org)
        if not 0 < reserved_banks_per_rank < org.banks_per_rank:
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
        self.reserved_banks_per_rank = reserved_banks_per_rank
        self.bank_total_bits = bank_total_bits
        self.banks_per_rank = org.banks_per_rank
        #: Flat bank indices (bank_group * banks_per_group + bank) reserved
        #: for the shared region, taken from the top of the bank space.
        self.reserved_banks: Tuple[int, ...] = tuple(
            range(org.banks_per_rank - reserved_banks_per_rank, org.banks_per_rank)
        )
        bank_fraction = reserved_banks_per_rank / org.banks_per_rank
        self.shared_capacity_bytes = int(org.total_bytes * bank_fraction)
        self.host_capacity_bytes = org.total_bytes - self.shared_capacity_bytes
        # Geometry of the shared-region layout (row-granular rank interleave).
        self._shared_rows_per_bank = org.rows_per_bank
        self._row_bytes = org.row_bytes

    # ------------------------------------------------------------------ #
    # Region predicates
    # ------------------------------------------------------------------ #

    def is_reserved_bank(self, bank_group: int, bank: int) -> bool:
        flat = bank_group * self.org.banks_per_group + bank
        return flat in self.reserved_banks

    def shared_base(self) -> int:
        """Physical base address of the shared region."""
        return self.host_capacity_bytes

    # ------------------------------------------------------------------ #
    # Mapping
    # ------------------------------------------------------------------ #

    def to_dram(self, phys: int) -> DramAddress:
        self.check_range(phys)
        if phys >= self.host_capacity_bytes:
            return self._shared_to_dram(phys - self.host_capacity_bytes)
        return self._host_to_dram(phys)

    def from_dram(self, addr: DramAddress) -> int:
        if self.is_reserved_bank(addr.bank_group, addr.bank):
            return self._shared_from_dram(addr) + self.host_capacity_bytes
        return self._host_from_dram(addr)

    # -- host-only region -------------------------------------------------- #

    def _host_to_dram(self, phys: int) -> DramAddress:
        addr = self.base.to_dram(phys)
        flat = addr.bank_group * self.org.banks_per_group + addr.bank
        if flat not in self.reserved_banks:
            return addr
        # Swap the bank bits with the most significant row bits.
        row_shift = self.row_bits - self.bank_total_bits
        row_msb = addr.row >> row_shift
        row_rest = addr.row & ((1 << row_shift) - 1)
        new_flat = row_msb
        new_row = (flat << row_shift) | row_rest
        return self.stamp_indices(
            addr.channel,
            addr.rank,
            new_flat // self.org.banks_per_group,
            new_flat % self.org.banks_per_group,
            new_row,
            addr.column,
        )

    def _host_from_dram(self, addr: DramAddress) -> int:
        row_shift = self.row_bits - self.bank_total_bits
        row_msb = addr.row >> row_shift
        if row_msb in self.reserved_banks:
            # This location was produced by a swap; undo it.
            flat = addr.bank_group * self.org.banks_per_group + addr.bank
            orig_flat = row_msb
            orig_row = (flat << row_shift) | (addr.row & ((1 << row_shift) - 1))
            addr = DramAddress(
                channel=addr.channel,
                rank=addr.rank,
                bank_group=orig_flat // self.org.banks_per_group,
                bank=orig_flat % self.org.banks_per_group,
                row=orig_row,
                column=addr.column,
            )
        return self.base.from_dram(addr)

    # -- shared region ------------------------------------------------------ #
    #
    # Shared offsets are laid out, from LSB to MSB, as:
    #   [cache-line offset | column | channel | rank | reserved-bank index | row]
    # so one DRAM row (8 KiB) is contiguous, consecutive rows rotate across
    # channels and ranks, and NDA operands allocated at system-row-aligned
    # offsets remain rank-aligned.

    def _shared_to_dram(self, offset: int) -> DramAddress:
        cl = offset >> self.offset_bits
        column = cl & (self.org.columns_per_row - 1)
        cl >>= self.column_bits
        channel = cl & (self.org.channels - 1)
        cl >>= self.channel_bits
        rank = cl & (self.org.ranks_per_channel - 1)
        cl >>= self.rank_bits
        bank_index = cl % self.reserved_banks_per_rank
        row = cl // self.reserved_banks_per_rank
        flat = self.reserved_banks[bank_index]
        return self.stamp_indices(
            channel,
            rank,
            flat // self.org.banks_per_group,
            flat % self.org.banks_per_group,
            row,
            column,
        )

    def _shared_from_dram(self, addr: DramAddress) -> int:
        flat = addr.bank_group * self.org.banks_per_group + addr.bank
        bank_index = self.reserved_banks.index(flat)
        cl = addr.row * self.reserved_banks_per_rank + bank_index
        cl = (cl << self.rank_bits) | addr.rank
        cl = (cl << self.channel_bits) | addr.channel
        cl = (cl << self.column_bits) | addr.column
        return cl << self.offset_bits

    # ------------------------------------------------------------------ #
    # Properties of the partition
    # ------------------------------------------------------------------ #

    def host_banks(self) -> List[int]:
        """Flat bank indices available to host-only traffic."""
        return [b for b in range(self.org.banks_per_rank)
                if b not in self.reserved_banks]

    def shared_stride_bytes(self) -> int:
        """Bytes of shared space per (channel, rank) rotation period."""
        return self._row_bytes * self.org.channels * self.org.ranks_per_channel
