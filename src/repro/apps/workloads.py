"""Kernel sequences that describe application NDA workloads to the simulator.

Figure 14 compares Chopim against rank partitioning on DOT, COPY and three
applications (SVRG's average gradient, conjugate gradient, streamcluster).
For the simulator, an application is characterized by the repeating sequence
of Table I operations it launches; these sequences are transcribed from the
NDA work of one iteration of each application, not traced from a solver.
"""

from __future__ import annotations

from typing import List

from repro.core.system import NdaKernelSpec
from repro.nda.isa import NdaOpcode


def svrg_kernel_sequence(elements_per_rank: int = 1 << 14,
                         matrix_columns: int = 256) -> List[NdaKernelSpec]:
    """The average-gradient summarization of Figure 8 as a kernel sequence.

    GEMV over the input matrix, two element-wise multiplies around the host's
    sigmoid, a scaling, a long run of asynchronous AXPYs (the ``parallel_for``
    macro operation), and the final regularization AXPY.
    """
    e = elements_per_rank
    return [
        NdaKernelSpec(NdaOpcode.GEMV, e // 8, matrix_columns=matrix_columns),
        NdaKernelSpec(NdaOpcode.XMY, e),
        NdaKernelSpec(NdaOpcode.XMY, e),
        NdaKernelSpec(NdaOpcode.SCAL, e),
        NdaKernelSpec(NdaOpcode.AXPY, e, async_launch=True),
        NdaKernelSpec(NdaOpcode.AXPY, e, async_launch=True),
        NdaKernelSpec(NdaOpcode.AXPY, e, async_launch=True),
        NdaKernelSpec(NdaOpcode.AXPY, e),
    ]


def cg_kernel_sequence(elements_per_rank: int = 1 << 14,
                       matrix_columns: int = 512) -> List[NdaKernelSpec]:
    """One conjugate-gradient iteration: SpMV-like GEMV, two DOTs, three AXPYs."""
    e = elements_per_rank
    return [
        NdaKernelSpec(NdaOpcode.GEMV, e // 8, matrix_columns=matrix_columns),
        NdaKernelSpec(NdaOpcode.DOT, e),
        NdaKernelSpec(NdaOpcode.AXPY, e),
        NdaKernelSpec(NdaOpcode.AXPY, e),
        NdaKernelSpec(NdaOpcode.DOT, e),
        NdaKernelSpec(NdaOpcode.AXPBY, e),
    ]


def streamcluster_kernel_sequence(elements_per_rank: int = 1 << 14) -> List[NdaKernelSpec]:
    """Streamcluster's dominant work: distance evaluations (DOT/NRM2 heavy)
    with occasional center updates (COPY/SCAL)."""
    e = elements_per_rank
    return [
        NdaKernelSpec(NdaOpcode.DOT, e),
        NdaKernelSpec(NdaOpcode.DOT, e),
        NdaKernelSpec(NdaOpcode.NRM2, e),
        NdaKernelSpec(NdaOpcode.DOT, e),
        NdaKernelSpec(NdaOpcode.SCAL, e // 4),
        NdaKernelSpec(NdaOpcode.COPY, e // 4),
    ]


_SEQUENCES = {
    "svrg": svrg_kernel_sequence,
    "cg": cg_kernel_sequence,
    "sc": streamcluster_kernel_sequence,
    "streamcluster": streamcluster_kernel_sequence,
}


def application_kernel_sequence(name: str,
                                elements_per_rank: int = 1 << 14) -> List[NdaKernelSpec]:
    """Kernel sequence for an application by name (``svrg``, ``cg``, ``sc``)."""
    key = name.lower()
    if key not in _SEQUENCES:
        raise KeyError(f"unknown application workload {name!r}")
    return _SEQUENCES[key](elements_per_rank)
