"""Cross-platform scalability: the Figure 14 sweep × memory platform.

The paper evaluates Chopim on one platform (DDR4-2400).  This experiment
re-runs the fig14-style comparison — Chopim (shared ranks, bank
partitioning, next-rank prediction) vs. rank partitioning, DOT and COPY
extremes, baseline and doubled rank counts — on every registered platform
preset, so the concurrency argument can be read as a function of memory
technology: platforms with more internal bandwidth per rank (HBM-class)
amplify the NDA side, platforms with slower analog cores (LPDDR-class)
stretch the idle windows Chopim exploits.

Bandwidth columns are reported both absolutely (GB/s) and normalized to the
platform's peak rank-internal bandwidth, which is the cross-platform
comparable number.
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
from repro.experiments.fig14_scaling import SCHEMES
from repro.experiments.sweeprunner import SweepOptions, run_sweep
from repro.nda.isa import NdaOpcode
from repro.platform import platform_names

#: Rank configurations swept per platform (fig14's baseline and doubled
#: points).  Platforms whose preset has a different native shape are still
#: swept at these counts — the comparison is per (channels, ranks) point.
RANK_CONFIGS: Tuple[Tuple[int, int], ...] = ((2, 2), (2, 4))

#: The microbenchmark extremes (read-dominated and write-dominated).
WORKLOADS: Tuple[str, ...] = ("dot", "copy")


def _point(platform: str, channels: int, ranks: int, scheme: str, mode: str,
           workload: str, mix: str, cycles: int, warmup: int,
           elements_per_rank: int, engine: str = "event") -> Dict[str, object]:
    system = build_system(AccessMode(mode), mix, channels=channels,
                          ranks_per_channel=ranks, throttle="next_rank",
                          engine=engine, platform=platform)
    system.set_nda_workload(NdaOpcode(workload),
                            elements_per_rank=elements_per_rank)
    result = system.run(cycles=cycles, warmup=warmup)
    peak_rank = system.config.org.peak_rank_internal_bandwidth_gbs
    total_ranks = system.config.org.total_ranks
    return {
        "platform": platform,
        "channels": channels,
        "ranks_per_channel": ranks,
        "scheme": scheme,
        "workload": workload,
        "host_ipc": result.host_ipc,
        "nda_bandwidth_gbs": result.nda_bandwidth_gbs,
        "nda_bw_utilization": result.nda_bw_utilization,
        "nda_bw_of_peak": (result.nda_bandwidth_gbs
                           / max(peak_rank * total_ranks, 1e-9)),
    }


def sweep_params(platforms: Optional[Sequence[str]] = None,
                 rank_configs: Sequence[Tuple[int, int]] = RANK_CONFIGS,
                 workloads: Sequence[str] = WORKLOADS,
                 mix: str = "mix1",
                 cycles: int = DEFAULT_CYCLES,
                 warmup: int = DEFAULT_WARMUP,
                 elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                 engine: str = "event") -> List[Dict[str, object]]:
    """Parameter sets of the cross-platform sweep (shared with benchmarks)."""
    names = list(platforms) if platforms is not None else platform_names()
    return [
        {"platform": name, "channels": channels, "ranks": ranks,
         "scheme": scheme_name, "mode": mode.value, "workload": workload,
         "mix": mix, "cycles": cycles, "warmup": warmup,
         "elements_per_rank": elements_per_rank, "engine": engine}
        for name in names
        for channels, ranks in rank_configs
        for scheme_name, mode in SCHEMES
        for workload in workloads
        if _supports(name, mode, ranks)
    ]


def _supports(platform: str, mode: AccessMode, ranks: int) -> bool:
    """Whether the (platform, scheme, rank) point is constructible.

    Rank partitioning needs at least two ranks per channel to split; the
    sweep rescales every platform to the requested rank count, so only the
    single-rank request is excluded.
    """
    if mode is AccessMode.RANK_PARTITIONED and ranks < 2:
        return False
    return True


def run_platform_comparison(platforms: Optional[Sequence[str]] = None,
                            rank_configs: Sequence[Tuple[int, int]] = RANK_CONFIGS,
                            workloads: Sequence[str] = WORKLOADS,
                            mix: str = "mix1",
                            cycles: int = DEFAULT_CYCLES,
                            warmup: int = DEFAULT_WARMUP,
                            elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                            processes: Optional[int] = None,
                            cache_dir: Optional[str] = None,
                            options: Optional[SweepOptions] = None,
                            ) -> List[Dict[str, object]]:
    """One row per (platform, rank config, scheme, workload)."""
    params = sweep_params(platforms, rank_configs, workloads, mix, cycles,
                          warmup, elements_per_rank)
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def chopim_advantage_by_platform(rows: Sequence[Dict[str, object]],
                                 ) -> Dict[str, float]:
    """Chopim's NDA bandwidth over rank partitioning, per platform/workload."""
    table: Dict[Tuple[str, str, str], Dict[str, float]] = {}
    for row in rows:
        key = (str(row["platform"]),
               f"{row['channels']}x{row['ranks_per_channel']}",
               str(row["workload"]))
        table.setdefault(key, {})[str(row["scheme"])] = float(
            row["nda_bandwidth_gbs"])
    return {
        f"{platform}:{cfg}:{wl}": (values["chopim"]
                                   / max(1e-9, values["rank_partitioning"]))
        for (platform, cfg, wl), values in table.items()
        if "chopim" in values and "rank_partitioning" in values
    }


def platform_scaling_factors(rows: Sequence[Dict[str, object]],
                             scheme: str = "chopim",
                             workload: str = "dot") -> Dict[str, float]:
    """Doubled-rank over baseline-rank NDA bandwidth, per platform."""
    by_platform: Dict[str, Dict[str, float]] = {}
    for row in rows:
        if row["scheme"] != scheme or row["workload"] != workload:
            continue
        cfg = f"{row['channels']}x{row['ranks_per_channel']}"
        by_platform.setdefault(str(row["platform"]), {})[cfg] = float(
            row["nda_bandwidth_gbs"])
    return {
        platform: values["2x4"] / values["2x2"]
        for platform, values in by_platform.items()
        if values.get("2x2") and "2x4" in values
    }


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_platform_comparison()
    print(format_table(rows))
    print()
    for key, ratio in sorted(chopim_advantage_by_platform(rows).items()):
        print(f"{key}: Chopim / rank-partitioning NDA bandwidth = {ratio:.2f}x")
    print()
    for platform, factor in platform_scaling_factors(rows).items():
        print(f"{platform}: 2x4 over 2x2 NDA bandwidth = {factor:.2f}x")


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
