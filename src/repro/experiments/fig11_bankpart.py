"""Figure 11: concurrent access to different memory regions (bank partitioning).

Host IPC and NDA bandwidth utilization for every mix under four
configurations: shared banks vs. bank-partitioned, each accelerating the
read-intensive DOT or the write-intensive COPY, plus the idealized NDA
bandwidth bound (all idle rank bandwidth).  The paper's takeaways: bank
partitioning substantially improves NDA performance (1.5-2x) by restoring
row-buffer locality, and write-intensive NDA work degrades host performance
via read/write turnarounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.modes import AccessMode
from repro.experiments.common import (
    DEFAULT_CYCLES,
    DEFAULT_ELEMENTS_PER_RANK,
    DEFAULT_WARMUP,
    QUICK_MIXES,
    build_system,
    format_table,
    run_experiment_cli,
)
from repro.experiments.sweeprunner import SweepOptions, run_sweep
from repro.nda.isa import NdaOpcode

CONFIGURATIONS = (
    ("shared", AccessMode.SHARED),
    ("partitioned", AccessMode.BANK_PARTITIONED),
)
OPERATIONS = (NdaOpcode.DOT, NdaOpcode.COPY)


def _point(mix: str, configuration: str, mode: str, operation: str,
           throttle: str, cycles: int, warmup: int,
           elements_per_rank: int) -> Dict[str, object]:
    system = build_system(AccessMode(mode), mix, throttle=throttle)
    system.set_nda_workload(NdaOpcode(operation),
                            elements_per_rank=elements_per_rank)
    result = system.run(cycles=cycles, warmup=warmup)
    return {
        "mix": mix,
        "configuration": configuration,
        "operation": operation,
        "host_ipc": result.host_ipc,
        "nda_bw_utilization": result.nda_bw_utilization,
        "idealized_bw_utilization": result.idealized_bw_utilization,
        "nda_row_hit_rate": result.row_hit_rate_nda,
        "host_row_hit_rate": result.row_hit_rate_host,
    }


def run_bank_partitioning(mixes: Optional[Sequence[str]] = None,
                          cycles: int = DEFAULT_CYCLES,
                          warmup: int = DEFAULT_WARMUP,
                          throttle: str = "issue_if_idle",
                          elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                          processes: Optional[int] = None,
                          cache_dir: Optional[str] = None,
                          options: Optional[SweepOptions] = None,
                          ) -> List[Dict[str, object]]:
    """One row per (mix, configuration, operation).

    ``throttle`` defaults to the aggressive issue-if-idle policy so the
    figure isolates the bank-partitioning effect (write throttling is the
    subject of Figure 12).
    """
    mixes = list(mixes) if mixes is not None else QUICK_MIXES
    params = [
        {"mix": mix, "configuration": config_name, "mode": mode.value,
         "operation": opcode.value, "throttle": throttle, "cycles": cycles,
         "warmup": warmup, "elements_per_rank": elements_per_rank}
        for mix in mixes
        for config_name, mode in CONFIGURATIONS
        for opcode in OPERATIONS
    ]
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def partitioning_speedup(rows: Sequence[Dict[str, object]],
                         operation: str = "dot") -> Dict[str, float]:
    """Per-mix NDA-utilization gain of partitioned over shared for one op."""
    shared: Dict[str, float] = {}
    partitioned: Dict[str, float] = {}
    for row in rows:
        if row["operation"] != operation:
            continue
        target = shared if row["configuration"] == "shared" else partitioned
        target[str(row["mix"])] = float(row["nda_bw_utilization"])
    return {
        mix: partitioned[mix] / max(1e-9, shared[mix])
        for mix in shared if mix in partitioned
    }


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_bank_partitioning()
    print(format_table(rows))
    print()
    for mix, gain in partitioning_speedup(rows).items():
        print(f"{mix}: bank partitioning NDA gain {gain:.2f}x (DOT)")


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
