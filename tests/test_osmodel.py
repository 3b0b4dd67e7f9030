"""Tests for the OS model: frame coloring and virtual memory."""

import pytest

from repro.addressing.mapping import skylake_mapping
from repro.config import DramOrgConfig
from repro.osmodel.coloring import ColoredFrameAllocator, OutOfMemoryError
from repro.osmodel.vm import PageTable, TranslationError, VirtualMemory

MIB = 1 << 20


class TestColoredFrameAllocator:
    @pytest.fixture
    def allocator(self):
        org = DramOrgConfig()
        mapping = skylake_mapping(org)
        return ColoredFrameAllocator(mapping, 0, 256 * MIB, frame_bytes=2 * MIB)

    def test_colors_partition_all_frames(self, allocator):
        total = sum(allocator.free_frames(c) for c in allocator.colors())
        assert total == 128  # 256 MiB / 2 MiB

    def test_allocate_same_color(self, allocator):
        frames = allocator.allocate_frames(4)
        colors = {allocator.color_of(f) for f in frames}
        assert len(colors) == 1
        assert allocator.verify_color_invariant()

    def test_allocate_specific_color(self, allocator):
        color = allocator.colors()[0]
        frames = allocator.allocate_frames(2, color)
        assert all(allocator.color_of(f) == color for f in frames)

    def test_allocate_bytes_rounds_up(self, allocator):
        frames = allocator.allocate_bytes(3 * MIB)
        assert len(frames) == 2

    def test_exhausting_one_color(self, allocator):
        color = allocator.colors()[0]
        available = allocator.free_frames(color)
        allocator.allocate_frames(available, color)
        with pytest.raises(OutOfMemoryError):
            allocator.allocate_frames(1, color)

    def test_free_frame_returns_to_pool(self, allocator):
        color = allocator.colors()[0]
        before = allocator.free_frames(color)
        frame = allocator.allocate_frames(1, color)[0]
        assert allocator.free_frames(color) == before - 1
        allocator.free_frame(frame)
        assert allocator.free_frames(color) == before

    def test_invalid_construction(self):
        org = DramOrgConfig()
        mapping = skylake_mapping(org)
        with pytest.raises(ValueError):
            ColoredFrameAllocator(mapping, 0, 3 * MIB, frame_bytes=2 * MIB)
        with pytest.raises(ValueError):
            ColoredFrameAllocator(mapping, 0, 4 * MIB, frame_bytes=3 * MIB)


class TestVirtualMemory:
    def test_map_and_translate(self):
        pt = PageTable(4096)
        pt.map(0x10000, 0x400000, 8192)
        assert pt.translate(0x10000) == 0x400000
        assert pt.translate(0x11FFF) == 0x401FFF
        with pytest.raises(TranslationError):
            pt.translate(0x12000)

    def test_overlapping_mapping_rejected(self):
        pt = PageTable(4096)
        pt.map(0x10000, 0x400000, 8192)
        with pytest.raises(ValueError):
            pt.map(0x11000, 0x800000, 4096)

    def test_unaligned_mapping_rejected(self):
        pt = PageTable(4096)
        with pytest.raises(ValueError):
            pt.map(0x100, 0x400000, 4096)

    def test_translate_range_across_mappings(self):
        pt = PageTable(4096)
        pt.map(0x10000, 0x400000, 4096)
        pt.map(0x11000, 0x800000, 4096)
        extents = pt.translate_range(0x10800, 4096)
        assert extents == [(0x400800, 2048), (0x800000, 2048)]

    def test_translate_range_detects_hole(self):
        pt = PageTable(4096)
        pt.map(0x10000, 0x400000, 4096)
        with pytest.raises(TranslationError):
            pt.translate_range(0x10800, 8192)

    def test_unmap(self):
        pt = PageTable(4096)
        pt.map(0x10000, 0x400000, 4096)
        pt.unmap(0x10000)
        with pytest.raises(TranslationError):
            pt.translate(0x10000)
        with pytest.raises(ValueError):
            pt.unmap(0x999000)

    def test_virtual_memory_contiguity_check(self):
        scattered = VirtualMemory()
        base = scattered.map_frames([0x400000, 0x800000], frame_bytes=2 * MIB)
        assert not scattered.is_physically_contiguous(base, 4 * MIB)
        adjacent = VirtualMemory()
        base2 = adjacent.map_frames([0x400000, 0x400000 + 2 * MIB], frame_bytes=2 * MIB)
        assert adjacent.is_physically_contiguous(base2, 4 * MIB)

    def test_map_frames_sequential_virtual_layout(self):
        vm = VirtualMemory()
        base_a = vm.map_frames([0x0], frame_bytes=2 * MIB)
        base_b = vm.map_frames([0x200000], frame_bytes=2 * MIB)
        assert base_b == base_a + 2 * MIB
        assert vm.translate(base_b) == 0x200000
