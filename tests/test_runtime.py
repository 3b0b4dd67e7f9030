"""Tests for the Chopim runtime: the Table I array API and macro operations."""

import numpy as np
import pytest

from repro.core.modes import AccessMode
from repro.runtime import ChopimRuntime, MacroOperation


@pytest.fixture(scope="module")
def runtime():
    """A shared runtime on a low-intensity mix (module-scoped: building the
    system is the expensive part, and API calls are independent)."""
    return ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")


class TestRuntimeAllocator:
    """Where the runtime's operands live.  There is no allocator of physical
    frames: the NDA host places operands itself, in DRAM coordinates."""

    def test_heap_in_shared_region_with_bank_partitioning(self, runtime):
        system = runtime.system
        commands = []
        system.dram.observer = commands.append
        x = runtime.vector(4096, init=np.ones(4096))
        y = runtime.vector(4096)
        runtime.copy(y, x)
        runtime.axpy(y, 2.0, x)
        reserved = set(system.mapping.reserved_banks)
        touched = {c.bank_group * system.config.org.banks_per_group + c.bank
                   for c in commands if c.source == "nda"}
        assert touched and touched <= reserved


class TestNdaArrayApi:
    def test_vector_init_is_a_copy_in_runtime_dtype(self, runtime):
        init = np.arange(8, dtype=np.float64)
        v = runtime.vector(8, init=init)
        assert v.dtype == runtime.dtype
        v[0] = 42.0
        assert init[0] == 0.0

    def test_matrix_init_is_reshaped_row_major(self, runtime):
        m = runtime.matrix(2, 3, init=np.arange(6))
        assert m.shape == (2, 3) and m.dtype == runtime.dtype
        assert np.array_equal(m[1], [3.0, 4.0, 5.0])

    def test_runtime_dtype_sets_operand_precision(self, runtime):
        rt = ChopimRuntime(system=runtime.system, dtype=np.float64)
        x = rt.vector(64, init=np.full(64, 1.0 / 3.0))
        rt.scal(x, 3.0)
        assert x.dtype == np.float64
        assert np.array_equal(x, np.full(64, np.float64(1.0 / 3.0) * 3.0))

    def test_vector_and_matrix_allocation(self, runtime):
        v = runtime.vector(1024)
        m = runtime.matrix(16, 64)
        assert isinstance(v, np.ndarray) and v.dtype == runtime.dtype
        assert v.shape == (1024,)
        assert m.shape == (16, 64)
        assert v.nbytes == 4096

    def test_copy_and_scal(self, runtime):
        x = runtime.vector(512, init=np.arange(512))
        y = runtime.vector(512)
        runtime.copy(y, x)
        assert np.allclose(y, x)
        runtime.scal(x, 2.0)
        assert np.allclose(x, 2.0 * np.arange(512, dtype=np.float32))

    def test_axpy_family(self, runtime):
        x = runtime.vector(256, init=np.ones(256))
        y = runtime.vector(256, init=np.full(256, 2.0))
        z = runtime.vector(256)
        w = runtime.vector(256)
        runtime.axpy(y, 3.0, x)
        assert np.allclose(y, 5.0)
        runtime.axpby(z, 2.0, x, 1.0, y)
        assert np.allclose(z, 7.0)
        runtime.axpbypcz(w, 1.0, x, 1.0, y, 1.0, z)
        assert np.allclose(w, 13.0)

    def test_reductions_and_xmy(self, runtime):
        x = runtime.vector(128, init=np.full(128, 2.0))
        y = runtime.vector(128, init=np.full(128, 3.0))
        z = runtime.vector(128)
        assert runtime.dot(x, y) == pytest.approx(128 * 6.0)
        assert runtime.nrm2(x) == pytest.approx(np.sqrt(128 * 4.0))
        runtime.xmy(z, x, y)
        assert np.allclose(z, 6.0)

    def test_gemv(self, runtime):
        a = runtime.matrix(8, 32, init=np.ones((8, 32)))
        x = runtime.vector(32, init=np.arange(32))
        y = runtime.vector(8)
        runtime.gemv(y, a, x)
        assert np.allclose(y, np.arange(32).sum())

    def test_host_helpers(self, runtime):
        src = runtime.vector(16, init=np.zeros(16))
        dst = runtime.vector(16)
        runtime.host_sigmoid(dst, src)
        assert np.allclose(dst, 0.5)
        runtime.host_reduce(dst, runtime.vector(16, init=np.ones(16)))
        assert np.allclose(dst, 1.0)

    def test_operations_advance_the_simulator(self, runtime):
        before = runtime.system.now
        x = runtime.vector(2048, init=np.ones(2048))
        y = runtime.vector(2048)
        runtime.copy(y, x)
        assert runtime.system.now > before
        assert runtime.system.dram.counts.nda_columns > 0

    def test_run_until_timeout(self, runtime):
        with pytest.raises(TimeoutError):
            runtime.run_until(lambda: False, max_cycles=50)

    def test_run_until_returns_elapsed_cycles(self, runtime):
        target = runtime.system.now + 10
        assert runtime.run_until(lambda: runtime.system.now >= target) == 10

    def test_async_launch_returns_before_completion(self, runtime):
        x = runtime.vector(1024, init=np.ones(1024))
        y = runtime.vector(1024)
        before = runtime.system.now
        operation = runtime.copy(y, x, async_launch=True)
        assert runtime.system.now == before
        assert operation.completed_cycle is None
        assert np.allclose(y, 1.0)  # the numpy result is immediate
        assert runtime.run_until(lambda: operation.completed_cycle is not None) > 0

    def test_nonblocking_runtime_drives_the_given_system(self, runtime):
        rt = ChopimRuntime(system=runtime.system, blocking=False)
        assert rt.system is runtime.system
        x = rt.vector(1024, init=np.ones(1024))
        before = rt.system.now
        operation = rt.scal(x, 3.0)
        assert rt.system.now == before
        assert np.allclose(x, 3.0)
        rt.run_until(lambda: operation.completed_cycle is not None)
        assert rt.system.now > before


N = 256


def _table_i_call(rt, name):
    """Launch the Table I operation ``name`` on fresh ``N``-element operands."""
    x = rt.vector(N, init=np.ones(N))
    y = rt.vector(N, init=np.full(N, 2.0))
    z = rt.vector(N)
    calls = {
        "copy": lambda: rt.copy(z, x),
        "scal": lambda: rt.scal(z, 2.0),
        "axpy": lambda: rt.axpy(z, 2.0, x),
        "axpby": lambda: rt.axpby(z, 1.0, x, 1.0, y),
        "axpbypcz": lambda: rt.axpbypcz(z, 1.0, x, 1.0, y, 1.0, x),
        "xmy": lambda: rt.xmy(z, x, y),
        "dot": lambda: rt.dot(x, y),
        "nrm2": lambda: rt.nrm2(x),
        "gemv": lambda: rt.gemv(rt.vector(8), rt.matrix(8, N), x),
    }
    return calls[name]()


class TestTableIOperations:
    @pytest.mark.parametrize("name", ["copy", "scal", "axpy", "axpby", "axpbypcz",
                                      "xmy", "dot", "nrm2", "gemv"])
    def test_blocking_call_launches_one_operation_and_waits(self, runtime, name):
        host = runtime.system.nda_host
        submitted = runtime.operations_submitted
        completed = host.operations_completed
        _table_i_call(runtime, name)
        assert runtime.operations_submitted == submitted + 1
        assert host.operations_completed == completed + 1
        assert host.idle


class TestAsyncAndMacro:
    def test_macro_operation_barrier(self):
        rt = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")
        y = rt.vector(256)
        macro = rt.macro("avg_gradient")
        rows = np.ones((4, 256), dtype=np.float32)
        for i in range(4):
            rt.axpy_macro(macro, y, 0.5, rows[i])
        assert macro.launched == 4
        rt.macro_wait(macro)
        assert macro.done
        assert macro.completion_cycle() is not None
        assert np.allclose(y, 2.0)

    def test_axpy_macro_defers_completion_to_the_barrier(self, runtime):
        y = runtime.vector(256)
        macro = runtime.macro("deferred")
        before = runtime.system.now
        operation = runtime.axpy_macro(macro, y, 2.0, np.ones(256))
        assert runtime.system.now == before
        assert operation.completed_cycle is None
        assert not macro.done and macro.completion_cycle() is None
        runtime.macro_wait(macro)
        assert macro.completion_cycle() == operation.completed_cycle
        assert np.allclose(y, 2.0)

    def test_stream_synchronize(self):
        # Asynchronous launches of different operations grouped under one
        # barrier: the macro operation is the runtime's only async group.
        rt = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")
        group = rt.macro("s0")
        x = rt.vector(512, init=np.ones(512))
        y = rt.vector(512)
        group.add(rt.copy(y, x, blocking=False, async_launch=True))
        group.add(rt.scal(x, 2.0, blocking=False, async_launch=True))
        assert group.launched == 2 and not group.done
        assert rt.macro_wait(group) > 0
        assert group.done
        assert group.completion_cycle() == max(
            op.completed_cycle for op in group.operations)
        assert np.allclose(y, 1.0) and np.allclose(x, 2.0)

    def test_macro_empty_is_done(self):
        macro = MacroOperation("empty")
        assert macro.done
        assert macro.completion_cycle() is None
