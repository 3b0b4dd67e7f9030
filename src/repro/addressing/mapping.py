"""Physical address to DRAM address mappings.

Memory controllers translate OS physical addresses into DRAM coordinates
(channel, rank, bank group, bank, row, column).  High-performance hosts use
XOR-hash functions that mix row bits into the channel/rank/bank selection so
that strided access patterns spread over banks (paper Section II, "Address
Mapping"; the concrete baseline is the Intel Skylake mapping reverse
engineered by Pessl et al.).

The mappings here are *linear over GF(2)*: every DRAM field bit is the XOR of
a fixed set of physical-address bits.  Linearity is what makes the Chopim
page-coloring layout work — the rank/channel of an address decomposes into a
frame-dependent part (the color) and an offset-dependent part, so two
operands placed in frames of equal color are rank-aligned at equal offsets
(Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DramOrgConfig
from repro.dram.commands import DramAddress


def _bits_needed(count: int) -> int:
    """Number of bits needed to index ``count`` items (count power of two)."""
    if count <= 0 or count & (count - 1):
        raise ValueError(f"count must be a positive power of two, got {count}")
    return count.bit_length() - 1


try:  # int.bit_count needs Python >= 3.10; CI still exercises 3.9.
    _POPCOUNT = int.bit_count
except AttributeError:  # pragma: no cover - exercised only on old Pythons
    def _POPCOUNT(value: int) -> int:
        return bin(value).count("1")


#: Row bits (by row-relative index) XORed into each field bit: the
#: Skylake-style hash of Figure 4a.
_SKYLAKE_PARTNERS: Dict[str, List[Tuple[int, ...]]] = {
    "channel": [(0, 2, 4, 6, 8)],
    "bank_group": [(1, 5), (3, 7)],
    "bank": [(2, 6), (4, 8)],
    "rank": [(0, 3, 6, 9)],
}


@dataclass(frozen=True)
class FieldSpec:
    """One DRAM-address field of an XOR-hashed mapping.

    Each output bit ``i`` of the field is computed as::

        out[i] = phys[home_lsb + i]  XOR  (XOR of phys[b] for b in partners[i])

    The *home* bits are where the field lives in the physical address; the
    *partners* are additional physical bits (typically row bits) XORed in to
    permute the field.  Because partners are always row bits (which map to the
    row field untouched), distinct cache lines decode to distinct coordinates.

    Since the mapping is linear over GF(2), each output bit is the parity of
    ``phys`` under a fixed mask; the masks are precomputed at construction so
    :meth:`extract` is a handful of ``popcount & 1`` parities instead of
    nested bit loops.
    """

    name: str
    width: int
    home_lsb: int
    partners: Tuple[Tuple[int, ...], ...] = ()
    #: Per output bit: mask of all contributing physical bits (home XOR
    #: partners).  Derived, not part of identity.
    bit_masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bit_masks = []
        for i in range(self.width):
            mask = 1 << (self.home_lsb + i)
            if i < len(self.partners):
                for p in self.partners[i]:
                    mask ^= 1 << p
            bit_masks.append(mask)
        object.__setattr__(self, "bit_masks", tuple(bit_masks))

    def extract(self, phys: int) -> int:
        value = 0
        for i, mask in enumerate(self.bit_masks):
            if _POPCOUNT(phys & mask) & 1:
                value |= 1 << i
        return value


class AddressMapping:
    """Geometry shared by the physical-to-DRAM mappings.

    ``host_capacity_bytes`` bounds the physical addresses host traffic may
    use and ``reserved_banks`` lists the flat bank indices kept from it; a
    mapping without bank partitioning hands the host everything.
    """

    def __init__(self, org: DramOrgConfig) -> None:
        self.org = org
        self.offset_bits = _bits_needed(org.cacheline_bytes)
        self.column_bits = _bits_needed(org.columns_per_row)
        self.channel_bits = _bits_needed(org.channels)
        self.rank_bits = _bits_needed(org.ranks_per_channel)
        self.bank_group_bits = _bits_needed(org.bank_groups)
        self.bank_bits = _bits_needed(org.banks_per_group)
        self.row_bits = _bits_needed(org.rows_per_bank)
        self.capacity_bytes = org.total_bytes
        self.host_capacity_bytes = org.total_bytes
        self.reserved_banks: Tuple[int, ...] = ()
        # Geometry for stamping dense rank/bank indices on decoded addresses
        # (the flat-array keys of the DRAM timing engine and device).
        self._ranks_per_channel = org.ranks_per_channel
        self._banks_per_group = org.banks_per_group
        self._banks_per_rank = org.banks_per_rank

    def stamp_indices(self, channel: int, rank: int, bank_group: int, bank: int,
                      row: int, column: int) -> DramAddress:
        """Build a :class:`DramAddress` with dense indices pre-stamped."""
        rank_index = channel * self._ranks_per_channel + rank
        bank_index = (rank_index * self._banks_per_rank
                      + bank_group * self._banks_per_group + bank)
        return DramAddress(channel, rank, bank_group, bank, row, column,
                           rank_index, bank_index)

    def check_range(self, phys: int) -> None:
        if not 0 <= phys < self.host_capacity_bytes:
            raise ValueError(
                f"physical address {phys:#x} outside host capacity "
                f"{self.host_capacity_bytes:#x}"
            )


class XorFieldMapping(AddressMapping):
    """A mapping assembled from :class:`FieldSpec` entries.

    The physical address is carved, from LSB to MSB, into: cache-line offset,
    the two low column bits, channel, high column bits, bank group, bank,
    rank, row (the Skylake arrangement of Figure 4a).  Channel, bank group,
    bank and rank may be hashed with row bits: ``partners`` maps a field name
    to, per field bit, the row bits (row-relative indices) XORed into it.
    """

    def __init__(self, org: DramOrgConfig,
                 partners: Optional[Dict[str, Sequence[Sequence[int]]]] = None
                 ) -> None:
        super().__init__(org)
        self.column_split = min(2, self.column_bits)
        partners = partners or {}

        cursor = self.offset_bits
        self._col_lo_lsb = cursor
        cursor += self.column_split
        channel_lsb = cursor
        cursor += self.channel_bits
        self._col_hi_lsb = cursor
        cursor += self.column_bits - self.column_split
        bg_lsb = cursor
        cursor += self.bank_group_bits
        bank_lsb = cursor
        cursor += self.bank_bits
        rank_lsb = cursor
        cursor += self.rank_bits
        self.row_lsb = cursor

        def spec(name: str, width: int, lsb: int) -> FieldSpec:
            raw = partners.get(name, ())
            return FieldSpec(name, width, lsb, tuple(
                tuple(self.row_lsb + rb for rb in (raw[i] if i < len(raw) else ()))
                for i in range(width)))

        self.fields: Dict[str, FieldSpec] = {
            "channel": spec("channel", self.channel_bits, channel_lsb),
            "bank_group": spec("bank_group", self.bank_group_bits, bg_lsb),
            "bank": spec("bank", self.bank_bits, bank_lsb),
            "rank": spec("rank", self.rank_bits, rank_lsb),
        }

    def to_dram(self, phys: int) -> DramAddress:
        self.check_range(phys)
        col_lo = (phys >> self._col_lo_lsb) & ((1 << self.column_split) - 1)
        col_hi_width = self.column_bits - self.column_split
        col_hi = (phys >> self._col_hi_lsb) & ((1 << col_hi_width) - 1)
        column = (col_hi << self.column_split) | col_lo
        row = (phys >> self.row_lsb) & ((1 << self.row_bits) - 1)
        fields = self.fields
        return self.stamp_indices(
            fields["channel"].extract(phys),
            fields["rank"].extract(phys),
            fields["bank_group"].extract(phys),
            fields["bank"].extract(phys),
            row,
            column,
        )

    def uses_top_row_bits_in_hash(self, top_bits: int) -> bool:
        """Whether any hash partner falls in the top ``top_bits`` row bits."""
        threshold = self.row_lsb + self.row_bits - top_bits
        return any(p >= threshold for spec in self.fields.values()
                   for partners in spec.partners for p in partners)


def skylake_mapping(org: DramOrgConfig) -> XorFieldMapping:
    """The baseline host mapping of Figure 4a (Skylake-style XOR hashing)."""
    return XorFieldMapping(org, _SKYLAKE_PARTNERS)


def partition_friendly_mapping(org: DramOrgConfig) -> XorFieldMapping:
    """The proposed host mapping of Figure 4b.

    Identical hashing philosophy to the Skylake mapping, but the hash
    partners avoid the top ``log2(banks_per_rank)`` row bits so the most
    significant physical address bits only determine the DRAM row — the
    property the bank-partition remap requires (Section III-C).
    """
    limit = _bits_needed(org.rows_per_bank) - _bits_needed(org.banks_per_rank)
    return XorFieldMapping(org, {
        name: [tuple(b for b in group if b < limit) for group in groups]
        for name, groups in _SKYLAKE_PARTNERS.items()
    })
