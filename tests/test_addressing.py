"""Tests for address mapping and bank partitioning."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.addressing.bank_partition import BankPartitionMapping
from repro.addressing.mapping import (
    XorFieldMapping,
    partition_friendly_mapping,
    skylake_mapping,
)
from repro.config import DramOrgConfig

ORG = DramOrgConfig()
SMALL = DramOrgConfig(rows_per_bank=256)
#: Small enough to decode every cache line in about a second, with 1024
#: rows so every Skylake hash partner (row bits 0-9) is a real address bit.
TINY = DramOrgConfig(rows_per_bank=1024, chips_per_rank=1, row_bytes_per_chip=128)


def _page_color(mapping, pfn, page_bits=21):
    """(channel, rank) of a frame's first line: its OS page color."""
    base = mapping.to_dram(pfn << page_bits)
    return base.channel, base.rank


def _page_colors(mapping, page_bits=21, max_frames=4096):
    """The distinct frame colors over the first ``max_frames`` frames."""
    frames = min(mapping.capacity_bytes >> page_bits, max_frames)
    return {_page_color(mapping, pfn, page_bits) for pfn in range(frames)}


@functools.lru_cache(maxsize=1)
def _decoded_lines(factory):
    """Every cache line a mapping of TINY accepts, decoded in order."""
    mapping = factory(TINY)
    line = TINY.cacheline_bytes
    return mapping, [mapping.to_dram(phys)
                     for phys in range(0, mapping.host_capacity_bytes, line)]


class TestSkylakeMapping:
    def test_covers_all_fields_within_bounds(self):
        m = skylake_mapping(SMALL)
        for phys in range(0, SMALL.total_bytes, SMALL.total_bytes // 257):
            a = m.to_dram(phys)
            assert 0 <= a.channel < SMALL.channels
            assert 0 <= a.rank < SMALL.ranks_per_channel
            assert 0 <= a.bank_group < SMALL.bank_groups
            assert 0 <= a.bank < SMALL.banks_per_group
            assert 0 <= a.row < SMALL.rows_per_bank
            assert 0 <= a.column < SMALL.columns_per_row

    def test_out_of_range_rejected(self):
        m = skylake_mapping(SMALL)
        with pytest.raises(ValueError):
            m.to_dram(SMALL.total_bytes)
        with pytest.raises(ValueError):
            m.to_dram(-1)

    def test_consecutive_cachelines_interleave_channels(self):
        """Fine-grain channel interleaving is the point of the hashed mapping."""
        m = skylake_mapping(ORG)
        channels = {m.to_dram(i * 256).channel for i in range(8)}
        assert len(channels) == ORG.channels

    def test_hashing_spreads_banks_for_row_strides(self):
        """Accesses with a row-sized stride must not all hit the same bank."""
        m = skylake_mapping(ORG)
        stride = 1 << m.row_lsb
        banks = {(m.to_dram(i * stride).bank_group, m.to_dram(i * stride).bank)
                 for i in range(16)}
        assert len(banks) > 1

    def test_tiny_geometry_keeps_every_partner_bit(self):
        """The exhaustive checks below see every partner bit of the hash."""
        m = skylake_mapping(TINY)
        top = m.row_lsb + m.row_bits
        partners = [p for spec in m.fields.values()
                    for group in spec.partners for p in group]
        assert partners and all(p < top for p in partners)
        assert max(partners) == m.row_lsb + 9

    def test_injective_on_cachelines(self):
        """Every cache line decodes to its own DRAM coordinate."""
        m, lines = _decoded_lines(skylake_mapping)
        assert len(lines) == TINY.total_bytes // TINY.cacheline_bytes
        assert len(set(lines)) == len(lines)

    def test_num_colors_bounded_by_channel_rank_product(self):
        m = skylake_mapping(ORG)
        assert 1 <= len(_page_colors(m)) <= ORG.channels * ORG.ranks_per_channel

    def test_partition_friendly_avoids_top_row_bits(self):
        m = partition_friendly_mapping(ORG)
        assert not m.uses_top_row_bits_in_hash(4)
        sky = skylake_mapping(ORG)
        assert sky.uses_top_row_bits_in_hash(16)  # hashes use some row bits


class TestColoringProperty:
    """The Section III-A property: same color + same offset => same rank."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=(1 << 21) - 4))
    def test_same_color_frames_align(self, pfn_a, pfn_b, offset):
        m = skylake_mapping(ORG)
        page_bits = 21
        if _page_color(m, pfn_a, page_bits) != _page_color(m, pfn_b, page_bits):
            return
        a = m.to_dram((pfn_a << page_bits) + offset)
        b = m.to_dram((pfn_b << page_bits) + offset)
        assert (a.channel, a.rank) == (b.channel, b.rank)


class TestBankPartitionMapping:
    def test_requires_partition_friendly_base(self):
        # A mapping that hashes the top row bits into the bank selection
        # violates the Figure 4b requirement and must be rejected.
        hostile = XorFieldMapping(ORG, partners={"bank": [(15,), (14,)]})
        with pytest.raises(ValueError):
            BankPartitionMapping(ORG, 1, base=hostile)

    def test_reserved_bank_count_bounds(self):
        with pytest.raises(ValueError):
            BankPartitionMapping(ORG, 0)
        with pytest.raises(ValueError):
            BankPartitionMapping(ORG, 16)

    def test_capacity_split(self):
        m = BankPartitionMapping(ORG, reserved_banks_per_rank=2)
        assert m.reserved_banks == (14, 15)
        assert m.host_capacity_bytes == ORG.total_bytes * 14 // 16
        assert m.capacity_bytes == ORG.total_bytes

    def test_first_shared_address_rejected(self):
        m = BankPartitionMapping(ORG, reserved_banks_per_rank=1)
        m.to_dram(m.host_capacity_bytes - ORG.cacheline_bytes)
        with pytest.raises(ValueError):
            m.to_dram(m.host_capacity_bytes)
        with pytest.raises(ValueError):
            m.to_dram(-1)

    def test_host_addresses_never_land_in_reserved_banks(self):
        m, lines = _decoded_lines(BankPartitionMapping)
        flat = {a.bank_group * TINY.banks_per_group + a.bank for a in lines}
        assert flat == set(range(TINY.banks_per_rank)) - set(m.reserved_banks)

    def test_no_aliasing_between_host_and_shared(self):
        """The bank-bit swap never folds two host lines onto one coordinate
        (and, with the test above, none onto an NDA operand's bank)."""
        m, lines = _decoded_lines(BankPartitionMapping)
        assert len(lines) == m.host_capacity_bytes // TINY.cacheline_bytes
        assert len(set(lines)) == len(lines)


def _misaligned(mapping, bases, num_elements, sample_stride, elem_bytes=4):
    """Sampled element indices whose operands do not share one (channel, rank)."""
    def rank_of(base, index):
        addr = mapping.to_dram(base + index * elem_bytes)
        return addr.channel, addr.rank
    return [index for index in range(0, num_elements, sample_stride)
            if len({rank_of(base, index) for base in bases}) > 1]


class TestOperandLayout:
    def test_naive_layout_misaligns_under_hashing(self):
        """With the hashed host mapping and arbitrary bases, operands shuffle
        differently across ranks (the left side of Figure 3)."""
        m = skylake_mapping(ORG)
        base_a = 0
        base_b = 3 * (1 << 20) + 4096  # not system-row aligned, different color
        assert _misaligned(m, [base_a, base_b], num_elements=4096,
                           sample_stride=13) != []


# --------------------------------------------------------------------------- #
# Mask-based decode equivalence (PR 2 hot-path rework)
# --------------------------------------------------------------------------- #

def _bit(value, position):
    return (value >> position) & 1


def _oracle_extract(spec, phys):
    """The pre-mask bit-loop implementation of FieldSpec.extract, kept as a
    reference oracle: out[i] = phys[home_lsb+i] XOR (XOR of partners[i])."""
    value = 0
    for i in range(spec.width):
        bit = _bit(phys, spec.home_lsb + i)
        if i < len(spec.partners):
            for p in spec.partners[i]:
                bit ^= _bit(phys, p)
        value |= bit << i
    return value


def _oracle_to_dram(mapping, phys):
    """Legacy decode: field extraction via the bit-loop oracle."""
    mapping.check_range(phys)
    col_lo = (phys >> mapping._col_lo_lsb) & ((1 << mapping.column_split) - 1)
    col_hi_width = mapping.column_bits - mapping.column_split
    col_hi = (phys >> mapping._col_hi_lsb) & ((1 << col_hi_width) - 1)
    column = (col_hi << mapping.column_split) | col_lo
    row = (phys >> mapping.row_lsb) & ((1 << mapping.row_bits) - 1)
    return (
        _oracle_extract(mapping.fields["channel"], phys),
        _oracle_extract(mapping.fields["rank"], phys),
        _oracle_extract(mapping.fields["bank_group"], phys),
        _oracle_extract(mapping.fields["bank"], phys),
        row,
        column,
    )


_MAPPING_FACTORIES = [skylake_mapping, partition_friendly_mapping]


class TestMaskDecodeEquivalence:
    """The mask/popcount decode must match the legacy bit-loop decode."""

    @pytest.mark.parametrize("factory", _MAPPING_FACTORIES)
    @given(fraction=st.integers(min_value=0, max_value=(1 << 48) - 1))
    @settings(max_examples=200, deadline=None)
    def test_to_dram_matches_bitloop_oracle(self, factory, fraction):
        m = factory(ORG)
        phys = fraction % m.capacity_bytes
        a = m.to_dram(phys)
        assert (a.channel, a.rank, a.bank_group, a.bank, a.row, a.column) \
            == _oracle_to_dram(m, phys)

    def test_decode_stamps_dense_indices(self):
        m = skylake_mapping(ORG)
        for phys in range(0, ORG.total_bytes, ORG.total_bytes // 129):
            a = m.to_dram(phys)
            assert a.rank_index == a.channel * ORG.ranks_per_channel + a.rank
            assert a.bank_index == (a.rank_index * ORG.banks_per_rank
                                    + a.bank_group * ORG.banks_per_group + a.bank)

    def test_stamped_and_unstamped_addresses_compare_equal(self):
        m = skylake_mapping(ORG)
        a = m.to_dram(1 << 20)
        from repro.dram.commands import DramAddress
        bare = DramAddress(a.channel, a.rank, a.bank_group, a.bank, a.row, a.column)
        assert a == bare and hash(a) == hash(bare)
        assert bare.rank_index == -1 and bare.bank_index == -1

    def test_replace_of_bank_coordinate_clears_stamps(self):
        m = skylake_mapping(ORG)
        a = m.to_dram(1 << 21)
        moved = a._replace(rank=(a.rank + 1) % ORG.ranks_per_channel)
        assert moved.rank_index == -1 and moved.bank_index == -1
        # Row/column changes keep the (still valid) stamps.
        assert a.with_column(3).bank_index == a.bank_index
        assert a.with_row(5).rank_index == a.rank_index
