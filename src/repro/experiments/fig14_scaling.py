"""Figure 14: scalability of Chopim vs. rank partitioning.

For the baseline 2-channel x 2-rank system and a doubled 2 x 4 system, the
host IPC and NDA bandwidth achieved by Chopim (shared ranks, bank
partitioning, next-rank prediction) and by rank partitioning (half the ranks
dedicated to NDAs), for the DOT and COPY extremes and the three application
workloads (SVRG average gradient, CG, streamcluster).  The paper's takeaways:
Chopim outperforms rank partitioning at equal rank count and scales better,
because brief idle periods grow with rank count and Chopim can exploit them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.workloads import application_kernel_sequence
from repro.core.modes import AccessMode
from repro.experiments.common import (
    DEFAULT_CYCLES,
    DEFAULT_ELEMENTS_PER_RANK,
    DEFAULT_WARMUP,
    build_system,
    format_table,
    run_experiment_cli,
)
from repro.experiments.sweeprunner import SweepOptions, run_sweep
from repro.nda.isa import NdaOpcode

FULL_RANK_CONFIGS: Tuple[Tuple[int, int], ...] = ((2, 2), (2, 4))
FULL_WORKLOADS: Tuple[str, ...] = ("dot", "copy", "svrg", "cg", "sc")
QUICK_WORKLOADS: Tuple[str, ...] = ("dot", "copy", "svrg")

SCHEMES: Tuple[Tuple[str, AccessMode], ...] = (
    ("chopim", AccessMode.BANK_PARTITIONED),
    ("rank_partitioning", AccessMode.RANK_PARTITIONED),
)


def _configure_workload(system, workload: str, elements_per_rank: int) -> None:
    if workload in ("dot", "copy"):
        system.set_nda_workload(NdaOpcode(workload),
                                elements_per_rank=elements_per_rank)
    else:
        system.set_nda_workload_sequence(
            application_kernel_sequence(workload, elements_per_rank)
        )


def _point(channels: int, ranks: int, scheme: str, mode: str, workload: str,
           mix: str, cycles: int, warmup: int, elements_per_rank: int,
           engine: str = "event") -> Dict[str, object]:
    system = build_system(AccessMode(mode), mix, channels=channels,
                          ranks_per_channel=ranks, throttle="next_rank",
                          engine=engine)
    _configure_workload(system, workload, elements_per_rank)
    result = system.run(cycles=cycles, warmup=warmup)
    return {
        "channels": channels,
        "ranks_per_channel": ranks,
        "scheme": scheme,
        "workload": workload,
        "host_ipc": result.host_ipc,
        "nda_bandwidth_gbs": result.nda_bandwidth_gbs,
        "nda_bw_utilization": result.nda_bw_utilization,
    }


def sweep_params(rank_configs: Sequence[Tuple[int, int]] = FULL_RANK_CONFIGS,
                 workloads: Sequence[str] = QUICK_WORKLOADS,
                 mix: str = "mix1",
                 cycles: int = DEFAULT_CYCLES,
                 warmup: int = DEFAULT_WARMUP,
                 elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                 engine: str = "event") -> List[Dict[str, object]]:
    """The parameter sets of the figure sweep (shared with the benchmark)."""
    return [
        {"channels": channels, "ranks": ranks, "scheme": scheme_name,
         "mode": mode.value, "workload": workload, "mix": mix,
         "cycles": cycles, "warmup": warmup,
         "elements_per_rank": elements_per_rank, "engine": engine}
        for channels, ranks in rank_configs
        for scheme_name, mode in SCHEMES
        for workload in workloads
    ]


def run_scalability_comparison(rank_configs: Sequence[Tuple[int, int]] = FULL_RANK_CONFIGS,
                               workloads: Sequence[str] = QUICK_WORKLOADS,
                               mix: str = "mix1",
                               cycles: int = DEFAULT_CYCLES,
                               warmup: int = DEFAULT_WARMUP,
                               elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                               processes: Optional[int] = None,
                               cache_dir: Optional[str] = None,
                               options: Optional[SweepOptions] = None,
                               ) -> List[Dict[str, object]]:
    """One row per (rank config, scheme, workload)."""
    params = sweep_params(rank_configs, workloads, mix, cycles, warmup,
                          elements_per_rank)
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def chopim_advantage(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """NDA bandwidth of Chopim relative to rank partitioning, per (config, workload)."""
    table: Dict[Tuple[str, str], Dict[str, float]] = {}
    for row in rows:
        key = (f"{row['channels']}x{row['ranks_per_channel']}", str(row["workload"]))
        table.setdefault(key, {})[str(row["scheme"])] = float(row["nda_bandwidth_gbs"])
    return {
        f"{cfg}:{wl}": values["chopim"] / max(1e-9, values["rank_partitioning"])
        for (cfg, wl), values in table.items()
        if "chopim" in values and "rank_partitioning" in values
    }


def scaling_factor(rows: Sequence[Dict[str, object]], scheme: str,
                   workload: str = "dot") -> Optional[float]:
    """NDA bandwidth ratio of the doubled-rank config over the baseline config."""
    by_config: Dict[str, float] = {}
    for row in rows:
        if row["scheme"] != scheme or row["workload"] != workload:
            continue
        key = f"{row['channels']}x{row['ranks_per_channel']}"
        by_config[key] = float(row["nda_bandwidth_gbs"])
    if "2x2" in by_config and "2x4" in by_config and by_config["2x2"] > 0:
        return by_config["2x4"] / by_config["2x2"]
    return None


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_scalability_comparison()
    print(format_table(rows))
    print()
    for key, ratio in chopim_advantage(rows).items():
        print(f"{key}: Chopim / rank-partitioning NDA bandwidth = {ratio:.2f}x")


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
