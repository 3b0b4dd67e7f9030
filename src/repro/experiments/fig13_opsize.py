"""Figure 13: impact of NDA operation type and operand size.

Every Table I operation is run as the NDA workload against the most
memory-intensive mix (mix1) with next-rank prediction, for three operand
sizes — small (8 KiB/rank), medium (128 KiB/rank), large (8 MiB/rank) — plus
small with asynchronous launches.  The paper's takeaways: performance is
inversely related to write intensity; short operations suffer launch overhead
and load imbalance; asynchronous launch recovers most of that loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.modes import AccessMode
from repro.experiments.common import (
    DEFAULT_CYCLES,
    DEFAULT_WARMUP,
    build_system,
    format_table,
    run_experiment_cli,
)
from repro.experiments.sweeprunner import SweepOptions, run_sweep
from repro.nda.isa import NdaOpcode, OPCODE_TRAITS

#: Operand sizes in bytes per rank, as named in the paper.
SIZE_CLASSES: Dict[str, int] = {
    "small": 8 * 1024,
    "medium": 128 * 1024,
    "large": 8 * 1024 * 1024,
}

ALL_OPERATIONS: Tuple[NdaOpcode, ...] = (
    NdaOpcode.AXPBY, NdaOpcode.AXPBYPCZ, NdaOpcode.AXPY, NdaOpcode.COPY,
    NdaOpcode.DOT, NdaOpcode.GEMV, NdaOpcode.NRM2, NdaOpcode.SCAL,
)

QUICK_OPERATIONS: Tuple[NdaOpcode, ...] = (
    NdaOpcode.COPY, NdaOpcode.DOT, NdaOpcode.AXPY, NdaOpcode.GEMV,
)

QUICK_SIZES: Tuple[str, ...] = ("small", "medium")


def _point(operation: str, size_name: str, async_launch: bool, mix: str,
           cycles: int, warmup: int, gemv_rows: int,
           large_cap_bytes: int) -> Dict[str, object]:
    element_bytes = 4
    opcode = NdaOpcode(operation)
    size_bytes = min(SIZE_CLASSES[size_name], large_cap_bytes) \
        if size_name == "large" else SIZE_CLASSES[size_name]
    if opcode is NdaOpcode.GEMV:
        # GEMV: the number of columns equals the vector size and the
        # number of rows is fixed at 128 (Section VII).
        matrix_columns = max(1, size_bytes // element_bytes)
        elements_per_rank = gemv_rows
    else:
        matrix_columns = 0
        elements_per_rank = max(1, size_bytes // element_bytes)
    system = build_system(AccessMode.BANK_PARTITIONED, mix,
                          throttle="next_rank")
    system.set_nda_workload(
        opcode,
        elements_per_rank=elements_per_rank,
        async_launch=async_launch,
        matrix_columns=matrix_columns,
    )
    result = system.run(cycles=cycles, warmup=warmup)
    label = f"{size_name}+async" if async_launch else size_name
    return {
        "operation": opcode.value,
        "size": label,
        "write_intensity": OPCODE_TRAITS[opcode].write_intensity,
        "host_ipc": result.host_ipc,
        "nda_bw_utilization": result.nda_bw_utilization,
        "idealized_bw_utilization": result.idealized_bw_utilization,
        "nda_instructions": result.nda_instructions_completed,
    }


def run_operation_size_sweep(operations: Sequence[NdaOpcode] = QUICK_OPERATIONS,
                             sizes: Sequence[str] = QUICK_SIZES,
                             include_async_small: bool = True,
                             mix: str = "mix1",
                             cycles: int = DEFAULT_CYCLES,
                             warmup: int = DEFAULT_WARMUP,
                             gemv_rows: int = 128,
                             large_cap_bytes: int = 1 << 20,
                             processes: Optional[int] = None,
                             cache_dir: Optional[str] = None,
                             options: Optional[SweepOptions] = None,
                             ) -> List[Dict[str, object]]:
    """One row per (operation, size class [, async]).

    ``large_cap_bytes`` caps the "large" class so a full sweep finishes in
    reasonable wall-clock time; pass ``8 * 1024 * 1024`` to match the paper's
    size exactly.
    """
    cases: List[Tuple[str, bool]] = [(size, False) for size in sizes]
    if include_async_small:
        cases.append(("small", True))
    params = [
        {"operation": opcode.value, "size_name": size_name,
         "async_launch": async_launch, "mix": mix, "cycles": cycles,
         "warmup": warmup, "gemv_rows": gemv_rows,
         "large_cap_bytes": large_cap_bytes}
        for opcode in operations
        for size_name, async_launch in cases
    ]
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def write_intensity_correlation(rows: Sequence[Dict[str, object]],
                                size: str = "medium") -> float:
    """Spearman-style sign check: does NDA utilization fall as write intensity rises?

    Returns the fraction of operation pairs ordered consistently with the
    paper's takeaway ("performance is inversely related to write intensity").
    """
    points = [(float(r["write_intensity"]), float(r["nda_bw_utilization"]))
              for r in rows if r["size"] == size]
    if len(points) < 2:
        return 1.0
    consistent = 0
    total = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            wi, ui = points[i]
            wj, uj = points[j]
            if wi == wj:
                continue
            total += 1
            if (wi < wj and ui >= uj) or (wi > wj and ui <= uj):
                consistent += 1
    return consistent / total if total else 1.0


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_operation_size_sweep()
    print(format_table(rows))


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
