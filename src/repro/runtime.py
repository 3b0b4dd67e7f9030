"""The NDA runtime API of the paper's Figure 8 (Section V, Table I).

:class:`ChopimRuntime` runs the Table I operations on plain numpy arrays of
the runtime's dtype.  Each call

1. computes the functional result with numpy (the golden model beside the
   simulated hardware),
2. submits the corresponding NDA operation to the simulated host-side NDA
   controller, which places the operands itself in DRAM coordinates (see
   :mod:`repro.nda.launch`), and
3. advances the simulator until the operation completes (blocking launch)
   or returns immediately (asynchronous launch).

Short NDA operations (the per-sample AXPY of Figure 8) suffer load
imbalance when launched blocking: every rank must finish before the next
launch.  The runtime therefore launches them asynchronously, grouped into a
:class:`MacroOperation` (OpenMP ``parallel for`` with ``nowait``) that
synchronizes once at the end of the group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.config import SystemConfig
from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.nda.isa import NdaOpcode
from repro.nda.launch import NdaOperation


@dataclass
class MacroOperation:
    """A group of asynchronously launched NDA operations with one barrier."""

    name: str
    operations: List[NdaOperation] = field(default_factory=list)

    def add(self, operation: NdaOperation) -> None:
        self.operations.append(operation)

    @property
    def launched(self) -> int:
        return len(self.operations)

    @property
    def done(self) -> bool:
        return all(op.completed_cycle is not None for op in self.operations)

    def completion_cycle(self) -> Optional[int]:
        if not self.done or not self.operations:
            return None
        return max(op.completed_cycle or 0 for op in self.operations)


class ChopimRuntime:
    """NDA operation launch over numpy operands for one application."""

    def __init__(self, system: Optional[ChopimSystem] = None,
                 config: Optional[SystemConfig] = None,
                 mode: AccessMode = AccessMode.BANK_PARTITIONED,
                 mix: Optional[str] = "mix1",
                 blocking: bool = True,
                 dtype: np.dtype = np.float32) -> None:
        if system is None:
            system = ChopimSystem(config=config, mode=mode, mix=mix)
        self.system = system
        self.blocking = blocking
        self.dtype = np.dtype(dtype)
        self.operations_submitted = 0

    def vector(self, length: int, init: Optional[np.ndarray] = None) -> np.ndarray:
        """A vector of ``length`` elements (zeros, or a copy of ``init``)."""
        if init is None:
            return np.zeros(length, dtype=self.dtype)
        return np.asarray(init, dtype=self.dtype).copy()

    def matrix(self, rows: int, cols: int,
               init: Optional[np.ndarray] = None) -> np.ndarray:
        """A row-major ``rows`` x ``cols`` matrix (zeros, or a copy of ``init``)."""
        if init is None:
            return np.zeros((rows, cols), dtype=self.dtype)
        return np.asarray(init, dtype=self.dtype).reshape(rows, cols).copy()

    # ------------------------------------------------------------------ #
    # Launch plumbing
    # ------------------------------------------------------------------ #

    def _submit(self, opcode: NdaOpcode, total_elements: int,
                blocking: Optional[bool] = None, async_launch: bool = False,
                matrix_columns: int = 0, cache_blocks: Optional[int] = None,
                ) -> NdaOperation:
        operation = self.system.nda_host.submit_kernel(
            opcode,
            total_elements=max(1, int(total_elements)),
            cache_blocks=cache_blocks,
            async_launch=async_launch,
            matrix_columns=matrix_columns,
        )
        self.operations_submitted += 1
        should_block = self.blocking if blocking is None else blocking
        if should_block and not async_launch:
            self.run_until(lambda: operation.completed_cycle is not None)
        return operation

    def run_until(self, predicate: Callable[[], bool],
                  max_cycles: int = 2_000_000) -> int:
        """Advance the simulator until ``predicate()`` holds; returns cycles."""
        start = self.system.now
        while not predicate():
            if self.system.now - start >= max_cycles:
                raise TimeoutError(
                    f"condition not reached within {max_cycles} cycles"
                )
            self.system.step()
        return self.system.now - start

    # ------------------------------------------------------------------ #
    # Table I operations
    # ------------------------------------------------------------------ #

    def copy(self, dst: np.ndarray, src: np.ndarray, **launch) -> NdaOperation:
        """dst = src."""
        dst[:] = src
        return self._submit(NdaOpcode.COPY, len(src), **launch)

    def scal(self, x: np.ndarray, alpha: float, **launch) -> NdaOperation:
        """x = alpha * x."""
        x *= self.dtype.type(alpha)
        return self._submit(NdaOpcode.SCAL, len(x), **launch)

    def axpy(self, y: np.ndarray, alpha: float, x: np.ndarray,
             **launch) -> NdaOperation:
        """y = alpha * x + y (Table I writes it as y = a*y + x; same traffic)."""
        y += self.dtype.type(alpha) * np.asarray(x, dtype=self.dtype)
        return self._submit(NdaOpcode.AXPY, len(y), **launch)

    def axpby(self, z: np.ndarray, alpha: float, x: np.ndarray, beta: float,
              y: np.ndarray, **launch) -> NdaOperation:
        """z = alpha * x + beta * y."""
        z[:] = self.dtype.type(alpha) * x + self.dtype.type(beta) * y
        return self._submit(NdaOpcode.AXPBY, len(z), **launch)

    def axpbypcz(self, w: np.ndarray, alpha: float, x: np.ndarray, beta: float,
                 y: np.ndarray, gamma: float, z: np.ndarray,
                 **launch) -> NdaOperation:
        """w = alpha * x + beta * y + gamma * z."""
        w[:] = (self.dtype.type(alpha) * x
                + self.dtype.type(beta) * y
                + self.dtype.type(gamma) * z)
        return self._submit(NdaOpcode.AXPBYPCZ, len(w), **launch)

    def xmy(self, z: np.ndarray, x: np.ndarray, y: np.ndarray,
            **launch) -> NdaOperation:
        """z = x (element-wise multiply) y."""
        z[:] = x * y
        return self._submit(NdaOpcode.XMY, len(x), **launch)

    def dot(self, x: np.ndarray, y: np.ndarray, **launch) -> float:
        """Return x . y (scalar reductions are returned through the host)."""
        self._submit(NdaOpcode.DOT, len(x), **launch)
        return float(np.dot(x.astype(np.float64), y.astype(np.float64)))

    def nrm2(self, x: np.ndarray, **launch) -> float:
        """Return ||x||_2."""
        self._submit(NdaOpcode.NRM2, len(x), **launch)
        return float(np.linalg.norm(x.astype(np.float64)))

    def gemv(self, y: np.ndarray, a: np.ndarray, x: np.ndarray,
             **launch) -> NdaOperation:
        """y = A x."""
        y[:] = (a.astype(np.float64) @ x.astype(np.float64)).astype(self.dtype)
        rows, cols = a.shape
        return self._submit(NdaOpcode.GEMV, rows, matrix_columns=cols, **launch)

    # ------------------------------------------------------------------ #
    # Host-side helpers used by the case-study code (Figure 8)
    # ------------------------------------------------------------------ #

    @staticmethod
    def host_sigmoid(dst: np.ndarray, src: np.ndarray) -> None:
        """dst = sigmoid(src), computed on the host."""
        dst[:] = 1.0 / (1.0 + np.exp(-src.astype(np.float64)))

    @staticmethod
    def host_reduce(dst: np.ndarray, private: np.ndarray) -> None:
        """Global reduction of PE-private copies into a shared vector."""
        dst[:] = private

    # ------------------------------------------------------------------ #
    # Macro operations (parallel_for of Figure 8)
    # ------------------------------------------------------------------ #

    def macro(self, name: str = "macro") -> MacroOperation:
        return MacroOperation(name)

    def axpy_macro(self, macro: MacroOperation, y: np.ndarray, alpha: float,
                   x_row: np.ndarray) -> NdaOperation:
        """One asynchronous AXPY inside a macro operation (Figure 8's loop)."""
        y += self.dtype.type(alpha) * np.asarray(x_row, dtype=self.dtype)
        operation = self._submit(NdaOpcode.AXPY, len(y), blocking=False,
                                 async_launch=True)
        macro.add(operation)
        return operation

    def macro_wait(self, macro: MacroOperation, max_cycles: int = 2_000_000) -> int:
        """Barrier at the end of a macro operation."""
        return self.run_until(lambda: macro.done, max_cycles=max_cycles)
