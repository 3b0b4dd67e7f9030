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


def _bit(value: int, position: int) -> int:
    return (value >> position) & 1


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


@dataclass(frozen=True)
class FieldSpec:
    """One DRAM-address field of an XOR-hashed mapping.

    Each output bit ``i`` of the field is computed as::

        out[i] = phys[home_lsb + i]  XOR  (XOR of phys[b] for b in partners[i])

    The *home* bits are where the field lives in the physical address; the
    *partners* are additional physical bits (typically row bits) XORed in to
    permute the field.  Because partners are always row bits (which map to the
    row field untouched), the mapping is invertible.

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
    #: partners), and partners only.  Derived, not part of identity.
    bit_masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    hash_masks: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        bit_masks = []
        hash_masks = []
        for i in range(self.width):
            hash_mask = 0
            if i < len(self.partners):
                for p in self.partners[i]:
                    hash_mask ^= 1 << p
            hash_masks.append(hash_mask)
            bit_masks.append(hash_mask ^ (1 << (self.home_lsb + i)))
        object.__setattr__(self, "bit_masks", tuple(bit_masks))
        object.__setattr__(self, "hash_masks", tuple(hash_masks))

    def extract(self, phys: int) -> int:
        value = 0
        for i, mask in enumerate(self.bit_masks):
            if _POPCOUNT(phys & mask) & 1:
                value |= 1 << i
        return value

    def hash_part(self, phys: int) -> int:
        """Only the partner-XOR contribution (no home bits)."""
        value = 0
        for i, mask in enumerate(self.hash_masks):
            if _POPCOUNT(phys & mask) & 1:
                value |= 1 << i
        return value


class AddressMapping:
    """Base class for physical-to-DRAM address mappings."""

    def __init__(self, org: DramOrgConfig) -> None:
        self.org = org
        self.offset_bits = _bits_needed(org.cacheline_bytes)
        self.column_bits = _bits_needed(org.columns_per_row)
        self.channel_bits = _bits_needed(org.channels)
        self.rank_bits = _bits_needed(org.ranks_per_channel)
        self.bank_group_bits = _bits_needed(org.bank_groups)
        self.bank_bits = _bits_needed(org.banks_per_group)
        self.row_bits = _bits_needed(org.rows_per_bank)
        self.total_bits = (self.offset_bits + self.column_bits + self.channel_bits
                           + self.rank_bits + self.bank_group_bits + self.bank_bits
                           + self.row_bits)
        # Geometry for stamping dense rank/bank indices on decoded addresses
        # (the flat-array keys of the DRAM timing engine and device).
        self._ranks_per_channel = org.ranks_per_channel
        self._banks_per_group = org.banks_per_group
        self._banks_per_rank = org.banks_per_rank
        # Memoization: mappings are immutable after construction, so frame
        # colors (derived purely from to_dram) can be cached per frame base.
        self._frame_color_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def stamp_indices(self, channel: int, rank: int, bank_group: int, bank: int,
                      row: int, column: int) -> DramAddress:
        """Build a :class:`DramAddress` with dense indices pre-stamped."""
        rank_index = channel * self._ranks_per_channel + rank
        bank_index = (rank_index * self._banks_per_rank
                      + bank_group * self._banks_per_group + bank)
        return DramAddress(channel, rank, bank_group, bank, row, column,
                           rank_index, bank_index)

    # -- interface ------------------------------------------------------- #

    def to_dram(self, phys: int) -> DramAddress:
        raise NotImplementedError

    def from_dram(self, addr: DramAddress) -> int:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------- #

    @property
    def capacity_bytes(self) -> int:
        return self.org.total_bytes

    def check_range(self, phys: int) -> None:
        if not 0 <= phys < self.capacity_bytes:
            raise ValueError(
                f"physical address {phys:#x} outside capacity {self.capacity_bytes:#x}"
            )

    def frame_color(self, phys_or_pfn: int, page_bits: int = 21,
                    is_pfn: bool = False) -> Tuple[int, int]:
        """(channel, rank) contribution of the frame bits of an address.

        ``page_bits`` is the page size in bits (21 for 2 MiB huge pages).  Two
        frames with equal color place equal in-frame offsets in the same
        channel and rank — the property OS page coloring relies on
        (Section III-A).
        """
        phys = (phys_or_pfn << page_bits) if is_pfn else phys_or_pfn
        masked = (phys & ~((1 << page_bits) - 1)) % self.capacity_bytes
        cached = self._frame_color_cache.get((masked, page_bits))
        if cached is not None:
            return cached
        base = self.to_dram(masked)
        color = (base.channel, base.rank)
        self._frame_color_cache[(masked, page_bits)] = color
        return color

    def round_trip_ok(self, phys: int) -> bool:
        """Whether the mapping inverts at cache-line granularity.

        DRAM addresses identify cache lines; the byte offset within a line is
        not part of the DRAM coordinate, so the round trip compares the
        line-aligned address.
        """
        aligned = phys & ~(self.org.cacheline_bytes - 1)
        return self.from_dram(self.to_dram(phys)) == aligned


class XorFieldMapping(AddressMapping):
    """A mapping assembled from :class:`FieldSpec` entries.

    The physical address is carved, from LSB to MSB, into: cache-line offset,
    low column bits, channel, high column bits, bank group, bank, rank, row
    (the Skylake arrangement of Figure 4a).  Channel, bank group, bank and
    rank may be hashed with row bits.
    """

    def __init__(self, org: DramOrgConfig,
                 hash_partners: Optional[Dict[str, Sequence[Sequence[int]]]] = None,
                 column_split: int = 2) -> None:
        super().__init__(org)
        self.column_split = min(column_split, self.column_bits)
        hash_partners = hash_partners or {}

        cursor = 0
        self._offset_lsb = cursor
        cursor += self.offset_bits
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
        cursor += self.row_bits
        assert cursor == self.total_bits

        def partners_for(name: str, width: int) -> Tuple[Tuple[int, ...], ...]:
            raw = hash_partners.get(name, ())
            resolved: List[Tuple[int, ...]] = []
            for i in range(width):
                row_bit_indices = raw[i] if i < len(raw) else ()
                resolved.append(tuple(self.row_lsb + rb for rb in row_bit_indices))
            return tuple(resolved)

        self.fields: Dict[str, FieldSpec] = {
            "channel": FieldSpec("channel", self.channel_bits, channel_lsb,
                                 partners_for("channel", self.channel_bits)),
            "bank_group": FieldSpec("bank_group", self.bank_group_bits, bg_lsb,
                                    partners_for("bank_group", self.bank_group_bits)),
            "bank": FieldSpec("bank", self.bank_bits, bank_lsb,
                              partners_for("bank", self.bank_bits)),
            "rank": FieldSpec("rank", self.rank_bits, rank_lsb,
                              partners_for("rank", self.rank_bits)),
        }

    # -- mapping ---------------------------------------------------------- #

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

    def from_dram(self, addr: DramAddress) -> int:
        phys = addr.row << self.row_lsb
        # Row bits are placed first so hash contributions can be undone.
        col_lo = addr.column & ((1 << self.column_split) - 1)
        col_hi = addr.column >> self.column_split
        phys |= col_lo << self._col_lo_lsb
        phys |= col_hi << self._col_hi_lsb
        for name, value in (("channel", addr.channel), ("rank", addr.rank),
                            ("bank_group", addr.bank_group), ("bank", addr.bank)):
            spec = self.fields[name]
            home = value ^ spec.hash_part(phys)
            phys |= (home & ((1 << spec.width) - 1)) << spec.home_lsb
        return phys

    # -- hash visibility for partition/coloring logic ---------------------- #

    def uses_top_row_bits_in_hash(self, top_bits: int) -> bool:
        """Whether any hash partner falls in the top ``top_bits`` row bits."""
        threshold = self.row_lsb + self.row_bits - top_bits
        for spec in self.fields.values():
            for partners in spec.partners:
                if any(p >= threshold for p in partners):
                    return True
        return False


class SkylakeMapping(XorFieldMapping):
    """The baseline host mapping of Figure 4a (Skylake-style XOR hashing)."""

    def __init__(self, org: DramOrgConfig) -> None:
        super().__init__(
            org,
            hash_partners={
                # Row bits (by row-relative index) XORed into each field bit.
                "channel": [(0, 2, 4, 6, 8)],
                "bank_group": [(1, 5), (3, 7)],
                "bank": [(2, 6), (4, 8)],
                "rank": [(0, 3, 6, 9)][: max(1, org.ranks_per_channel.bit_length() - 1)],
            },
        )


class LinearMapping(XorFieldMapping):
    """A simple non-hashed mapping (row:rank:bank:column:channel:offset)."""

    def __init__(self, org: DramOrgConfig) -> None:
        super().__init__(org, hash_partners={})


def skylake_mapping(org: DramOrgConfig) -> SkylakeMapping:
    """Factory for the baseline Skylake-style mapping."""
    return SkylakeMapping(org)


def linear_mapping(org: DramOrgConfig) -> LinearMapping:
    """Factory for the non-hashed linear mapping."""
    return LinearMapping(org)


def partition_friendly_mapping(org: DramOrgConfig) -> XorFieldMapping:
    """The proposed host mapping of Figure 4b.

    Identical hashing philosophy to the Skylake mapping, but the hash
    partners avoid the top ``log2(banks_per_rank)`` row bits so the most
    significant physical address bits only determine the DRAM row — the
    property the bank-partition remap requires (Section III-C).
    """
    protect = _bits_needed(org.bank_groups * org.banks_per_group)
    limit = _bits_needed(org.rows_per_bank) - protect

    def clamp(groups: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
        return [tuple(b for b in grp if b < limit) for grp in groups]

    return XorFieldMapping(
        org,
        hash_partners={
            "channel": clamp([(0, 2, 4, 6, 8)]),
            "bank_group": clamp([(1, 5), (3, 7)]),
            "bank": clamp([(2, 6), (4, 8)]),
            "rank": clamp([(0, 3, 6, 9)][: max(1, org.ranks_per_channel.bit_length() - 1)]),
        },
    )
