"""Conjugate gradient (CG) — one of the paper's additional NDA workloads.

Table II lists CG on a 16K x 16K operator as an NDA kernel whose behaviour
falls between the read-intensive DOT and write-intensive COPY extremes
(Figure 14).  This module provides a functional CG solver expressed in the
Table I operation vocabulary (so each solver iteration maps 1:1 onto NDA
launches) plus the kernel sequence used to drive the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.apps import require_numpy
from repro.apps.workloads import cg_kernel_sequence  # re-exported

np = require_numpy()

__all__ = ["ConjugateGradientSolver", "CgIterationStats", "cg_kernel_sequence"]


@dataclass
class CgIterationStats:
    """Per-iteration record of residual norm and NDA operation counts."""

    iteration: int
    residual_norm: float
    operations: Dict[str, int] = field(default_factory=dict)


class ConjugateGradientSolver:
    """Solves ``A x = b`` for symmetric positive-definite ``A``.

    Every iteration performs one GEMV, two DOTs and three AXPY-family
    updates — exactly the per-iteration NDA operation mix reported to the
    simulator by :func:`cg_kernel_sequence`.
    """

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray,
                 tolerance: float = 1e-8, max_iterations: int = 500) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        rhs = np.asarray(rhs, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if rhs.shape != (matrix.shape[0],):
            raise ValueError("rhs shape must match the matrix")
        if not np.allclose(matrix, matrix.T, atol=1e-8):
            raise ValueError("matrix must be symmetric")
        self.matrix = matrix
        self.rhs = rhs
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.history: List[CgIterationStats] = []
        self.operation_counts: Dict[str, int] = {
            "gemv": 0, "dot": 0, "axpy": 0, "axpby": 0,
        }

    # ------------------------------------------------------------------ #

    @classmethod
    def random_spd(cls, size: int = 256, seed: int = 3,
                   **kwargs) -> "ConjugateGradientSolver":
        """A random well-conditioned SPD system (test/benchmark helper)."""
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((size, size))
        spd = m @ m.T / size + np.eye(size)
        rhs = rng.standard_normal(size)
        return cls(spd, rhs, **kwargs)

    def _gemv(self, x: np.ndarray) -> np.ndarray:
        self.operation_counts["gemv"] += 1
        return self.matrix @ x

    def _dot(self, x: np.ndarray, y: np.ndarray) -> float:
        self.operation_counts["dot"] += 1
        return float(np.dot(x, y))

    def _axpy(self, y: np.ndarray, alpha: float, x: np.ndarray) -> np.ndarray:
        self.operation_counts["axpy"] += 1
        return y + alpha * x

    def _axpby(self, alpha: float, x: np.ndarray, beta: float,
               y: np.ndarray) -> np.ndarray:
        self.operation_counts["axpby"] += 1
        return alpha * x + beta * y

    # ------------------------------------------------------------------ #

    def solve(self, x0: Optional[np.ndarray] = None) -> Tuple[np.ndarray, bool]:
        """Run CG; returns (solution, converged)."""
        x = np.zeros_like(self.rhs) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        r = self.rhs - self._gemv(x)
        p = r.copy()
        rs_old = self._dot(r, r)
        self.history = [CgIterationStats(0, float(np.sqrt(rs_old)),
                                         dict(self.operation_counts))]
        converged = np.sqrt(rs_old) <= self.tolerance
        for iteration in range(1, self.max_iterations + 1):
            if converged:
                break
            ap = self._gemv(p)
            alpha = rs_old / max(self._dot(p, ap), 1e-300)
            x = self._axpy(x, alpha, p)
            r = self._axpy(r, -alpha, ap)
            rs_new = self._dot(r, r)
            residual = float(np.sqrt(rs_new))
            self.history.append(CgIterationStats(iteration, residual,
                                                 dict(self.operation_counts)))
            if residual <= self.tolerance:
                converged = True
                break
            p = self._axpby(1.0, r, rs_new / rs_old, p)
            rs_old = rs_new
        return x, converged

    # ------------------------------------------------------------------ #

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.rhs - self.matrix @ x))

    def write_intensity(self) -> float:
        """Fraction of DRAM traffic that is writes for one CG iteration.

        GEMV and DOT only read; the AXPY-family updates read two vectors and
        write one.  Used to sanity-check that CG sits between DOT and COPY in
        the Figure 14 spectrum.
        """
        reads = 0
        writes = 0
        n = self.matrix.shape[0]
        reads += n * n + n          # gemv
        reads += 2 * 2 * n          # two dots
        reads += 3 * 2 * n          # three axpy-family reads
        writes += 3 * n             # three axpy-family writes
        return writes / (reads + writes)
