"""Tests for the Chopim runtime: allocation, the array API and async streams."""

import numpy as np
import pytest

from repro.addressing.bank_partition import BankPartitionMapping
from repro.addressing.mapping import skylake_mapping
from repro.config import DramOrgConfig
from repro.core.modes import AccessMode
from repro.runtime.allocator import RuntimeAllocator
from repro.runtime.api import ChopimRuntime, ColorMismatchError
from repro.runtime.stream import MacroOperation

ORG = DramOrgConfig()
FRAME = ORG.system_row_bytes


@pytest.fixture(scope="module")
def runtime():
    """A shared runtime on a low-intensity mix (module-scoped: building the
    system is the expensive part, and API calls are independent)."""
    return ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")


class TestRuntimeAllocator:
    def test_heap_in_shared_region_with_bank_partitioning(self):
        mapping = BankPartitionMapping(ORG, 1)
        allocator = RuntimeAllocator.for_mapping(mapping, FRAME)
        region = allocator.create_region(4 * FRAME)
        for frame in region.frames:
            assert mapping.is_shared_address(frame)

    def test_heap_at_top_of_memory_without_partitioning(self):
        mapping = skylake_mapping(ORG)
        allocator = RuntimeAllocator.for_mapping(mapping, FRAME)
        region = allocator.create_region(2 * FRAME)
        assert all(f >= mapping.capacity_bytes * 0.5 for f in region.frames)

    def test_regions_have_one_color(self):
        mapping = skylake_mapping(ORG)
        allocator = RuntimeAllocator.for_mapping(mapping, FRAME)
        region = allocator.create_region(8 * FRAME)
        colors = {allocator.frame_allocator.color_of(f) for f in region.frames}
        assert len(colors) == 1
        assert region.color in colors

    def test_region_reserve_alignment_and_exhaustion(self):
        mapping = skylake_mapping(ORG)
        allocator = RuntimeAllocator.for_mapping(mapping, FRAME)
        region = allocator.create_region(2 * FRAME)
        a = region.reserve(100, alignment=FRAME)
        b = region.reserve(100, alignment=FRAME)
        assert (b - a) % FRAME == 0
        with pytest.raises(MemoryError):
            region.reserve(8 * FRAME, alignment=FRAME)

    def test_translation_round_trip(self):
        mapping = skylake_mapping(ORG)
        allocator = RuntimeAllocator.for_mapping(mapping, FRAME)
        region = allocator.create_region(2 * FRAME)
        phys = allocator.translate(region.virtual_base)
        assert phys == region.frames[0]
        extents = allocator.physical_extents(region.virtual_base, 2 * FRAME)
        assert sum(length for _, length in extents) == 2 * FRAME

    def test_same_color_check(self):
        mapping = skylake_mapping(ORG)
        allocator = RuntimeAllocator.for_mapping(mapping, FRAME)
        color = allocator.available_colors()[0]
        r1 = allocator.create_region(FRAME, color)
        r2 = allocator.create_region(FRAME, color)
        assert allocator.same_color([r1, r2])


class TestNdaArrayApi:
    def test_vector_and_matrix_allocation(self, runtime):
        v = runtime.vector(1024)
        m = runtime.matrix(16, 64)
        assert v.length == 1024
        assert (m.rows, m.cols) == (16, 64)
        assert v.nbytes == 4096
        assert v.region is not None
        assert v.color == m.color  # one runtime's arrays share a color

    def test_private_vector_has_no_region(self, runtime):
        p = runtime.vector(64, private=True)
        assert p.private and p.region is None

    def test_copy_and_scal(self, runtime):
        x = runtime.vector(512, init=np.arange(512))
        y = runtime.vector(512)
        runtime.copy(y, x)
        assert np.allclose(y.numpy(), x.numpy())
        runtime.scal(x, 2.0)
        assert np.allclose(x.numpy(), 2.0 * np.arange(512, dtype=np.float32))

    def test_axpy_family(self, runtime):
        x = runtime.vector(256, init=np.ones(256))
        y = runtime.vector(256, init=np.full(256, 2.0))
        z = runtime.vector(256)
        w = runtime.vector(256)
        runtime.axpy(y, 3.0, x)
        assert np.allclose(y.numpy(), 5.0)
        runtime.axpby(z, 2.0, x, 1.0, y)
        assert np.allclose(z.numpy(), 7.0)
        runtime.axpbypcz(w, 1.0, x, 1.0, y, 1.0, z)
        assert np.allclose(w.numpy(), 13.0)

    def test_reductions_and_xmy(self, runtime):
        x = runtime.vector(128, init=np.full(128, 2.0))
        y = runtime.vector(128, init=np.full(128, 3.0))
        z = runtime.vector(128)
        assert runtime.dot(x, y) == pytest.approx(128 * 6.0)
        assert runtime.nrm2(x) == pytest.approx(np.sqrt(128 * 4.0))
        runtime.xmy(z, x, y)
        assert np.allclose(z.numpy(), 6.0)

    def test_gemv(self, runtime):
        a = runtime.matrix(8, 32, init=np.ones((8, 32)))
        x = runtime.vector(32, init=np.arange(32))
        y = runtime.vector(8)
        runtime.gemv(y, a, x)
        assert np.allclose(y.numpy(), np.arange(32).sum())

    def test_host_helpers(self, runtime):
        src = runtime.vector(16, init=np.zeros(16))
        dst = runtime.vector(16)
        runtime.host_sigmoid(dst, src)
        assert np.allclose(dst.numpy(), 0.5)
        private = runtime.vector(16, private=True, init=np.ones(16))
        runtime.host_reduce(dst, private)
        assert np.allclose(dst.numpy(), 1.0)

    def test_operations_advance_the_simulator(self, runtime):
        before = runtime.system.now
        x = runtime.vector(2048, init=np.ones(2048))
        y = runtime.vector(2048)
        runtime.copy(y, x)
        assert runtime.system.now > before
        assert runtime.system.dram.counts.nda_columns > 0

    def test_color_mismatch_inserts_copy(self):
        rt = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")
        colors = rt.allocator.available_colors()
        if len(colors) < 2:
            pytest.skip("geometry exposes a single color")
        r1 = rt.shared_region(2 * FRAME, colors[0])
        r2 = rt.shared_region(2 * FRAME, colors[1])
        x = rt.vector(128, region=r1)
        y = rt.vector(128, region=r2)
        rt.copy(y, x)
        assert rt.copies_inserted >= 1

    def test_color_mismatch_raises_when_auto_copy_disabled(self):
        rt = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8",
                           auto_copy_on_color_mismatch=False)
        colors = rt.allocator.available_colors()
        if len(colors) < 2:
            pytest.skip("geometry exposes a single color")
        x = rt.vector(128, region=rt.shared_region(2 * FRAME, colors[0]))
        y = rt.vector(128, region=rt.shared_region(2 * FRAME, colors[1]))
        with pytest.raises(ColorMismatchError):
            rt.copy(y, x)

    def test_run_until_timeout(self, runtime):
        with pytest.raises(TimeoutError):
            runtime.run_until(lambda: False, max_cycles=50)


class TestAsyncAndMacro:
    def test_macro_operation_barrier(self):
        rt = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")
        y = rt.vector(256, private=True)
        macro = rt.macro("avg_gradient")
        rows = np.ones((4, 256), dtype=np.float32)
        for i in range(4):
            rt.axpy_macro(macro, y, 0.5, rows[i])
        assert macro.launched == 4
        rt.macro_wait(macro)
        assert macro.done
        assert macro.completion_cycle() is not None
        assert np.allclose(y.numpy(), 2.0)

    def test_stream_synchronize(self):
        rt = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")
        stream = rt.stream("s0")
        x = rt.vector(512, init=np.ones(512))
        y = rt.vector(512)
        stream.append(rt.copy(y, x, blocking=False, async_launch=True))
        stream.append(rt.scal(x, 2.0, blocking=False, async_launch=True))
        assert stream.pending >= 0
        stream.synchronize()
        assert stream.done
        stream.clear_completed()
        assert stream.pending == 0

    def test_macro_empty_is_done(self):
        macro = MacroOperation("empty")
        assert macro.done
        assert macro.completion_cycle() is None
