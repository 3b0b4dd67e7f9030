"""Figure 10: impact of coarse-grain NDA operations.

Host IPC and NDA bandwidth utilization as the number of cache blocks
processed per NDA instruction grows from 1 (fine-grain, one launch packet per
cache line) to 4096, for increasing rank counts.  The paper's takeaway:
coarse-grain operations are crucial because launch-packet traffic on the host
channel throttles both sides, and the effect worsens with more ranks.

Methodology notes (Section VII): bank partitioning is enabled, the operation
is NRM2 (granularity is precisely controllable), launches are asynchronous
and the host runs the most memory-intensive mix (mix1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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

#: The paper sweeps powers of four from 1 to 4096 cache blocks.
FULL_GRANULARITIES = (1, 4, 16, 64, 256, 1024, 4096)
#: Subset used by the quick benchmark regeneration.
QUICK_GRANULARITIES = (1, 16, 256, 4096)

FULL_RANK_CONFIGS = ((2, 2), (2, 4), (2, 8))
QUICK_RANK_CONFIGS = ((2, 2),)


def _point(channels: int, ranks: int, cache_blocks: int, mix: str,
           cycles: int, warmup: int,
           elements_per_rank: int) -> Dict[str, object]:
    system = build_system(AccessMode.BANK_PARTITIONED, mix,
                          channels=channels, ranks_per_channel=ranks)
    system.set_nda_workload(
        NdaOpcode.NRM2,
        elements_per_rank=elements_per_rank,
        cache_blocks=cache_blocks,
        async_launch=True,
    )
    result = system.run(cycles=cycles, warmup=warmup)
    return {
        "channels": channels,
        "ranks_per_channel": ranks,
        "cache_blocks": cache_blocks,
        "host_ipc": result.host_ipc,
        "nda_bw_utilization": result.nda_bw_utilization,
        "idealized_bw_utilization": result.idealized_bw_utilization,
        "launch_packets": result.extra.get("packets", 0.0),
    }


def run_coarse_grain_sweep(granularities: Sequence[int] = QUICK_GRANULARITIES,
                           rank_configs: Sequence[Tuple[int, int]] = QUICK_RANK_CONFIGS,
                           mix: str = "mix1",
                           cycles: int = DEFAULT_CYCLES,
                           warmup: int = DEFAULT_WARMUP,
                           elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                           processes: Optional[int] = None,
                           cache_dir: Optional[str] = None,
                           options: Optional[SweepOptions] = None,
                           ) -> List[Dict[str, object]]:
    """One row per (rank config, cache blocks per instruction)."""
    params = [
        {"channels": channels, "ranks": ranks, "cache_blocks": cache_blocks,
         "mix": mix, "cycles": cycles, "warmup": warmup,
         "elements_per_rank": elements_per_rank}
        for channels, ranks in rank_configs
        for cache_blocks in granularities
    ]
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def coarse_vs_fine_summary(rows: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Summarize the coarse-grain benefit: coarse/fine ratios per metric."""
    if not rows:
        return {}
    by_cfg: Dict[Tuple[int, int], List[Dict[str, object]]] = {}
    for row in rows:
        by_cfg.setdefault((row["channels"], row["ranks_per_channel"]), []).append(row)
    summary: Dict[str, float] = {}
    for cfg, cfg_rows in by_cfg.items():
        cfg_rows = sorted(cfg_rows, key=lambda r: r["cache_blocks"])
        fine, coarse = cfg_rows[0], cfg_rows[-1]
        key = f"{cfg[0]}x{cfg[1]}"
        summary[f"{key}_nda_util_gain"] = (
            float(coarse["nda_bw_utilization"]) / max(1e-9, float(fine["nda_bw_utilization"]))
        )
        summary[f"{key}_host_ipc_gain"] = (
            float(coarse["host_ipc"]) / max(1e-9, float(fine["host_ipc"]))
        )
    return summary


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_coarse_grain_sweep()
    print(format_table(rows))
    print()
    for key, value in coarse_vs_fine_summary(rows).items():
        print(f"{key}: {value:.2f}x")


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
