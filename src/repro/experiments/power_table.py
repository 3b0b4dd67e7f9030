"""Section VII "Memory Power": power dissipation under concurrent access.

The paper reports: a theoretical maximum of 8 W for host-only access, an
average of 3.6 W for the most memory-intensive mixes, a maximum NDA power of
3.7 W (average-gradient computation with heavy scratchpad use), and a total
of up to 7.3 W under concurrent access — i.e. concurrent operation stays
below the host-only theoretical maximum.  This experiment reproduces those
four numbers from the energy model and simulator event counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.workloads import svrg_kernel_sequence
from repro.core.energy import EnergyModel
from repro.core.modes import AccessMode
from repro.experiments.common import (
    DEFAULT_CYCLES,
    DEFAULT_WARMUP,
    build_system,
    format_table,
    resolve_config,
    run_experiment_cli,
)
from repro.experiments.sweeprunner import SweepOptions, run_sweep


def _point(scenario: str, mix: str, cycles: int,
           warmup: int, platform: Optional[str] = None) -> Dict[str, object]:
    if scenario == "theoretical_max":
        # Closed-form bound: no simulator needed, just the configuration.
        cfg = resolve_config(platform)
        energy_model = EnergyModel(cfg.org, cfg.energy, timing=cfg.timing)
        maximum = energy_model.theoretical_max_host_power_w()
        return {
            "scenario": "theoretical_max_host_only",
            "host_power_w": maximum,
            "nda_power_w": 0.0,
            "total_power_w": maximum,
        }
    if scenario == "host_only":
        system = build_system(AccessMode.HOST_ONLY, mix, platform=platform)
        result = system.run(cycles=cycles, warmup=warmup)
        label = f"host_only_{mix}"
    else:
        system = build_system(AccessMode.BANK_PARTITIONED, mix,
                              platform=platform)
        system.set_nda_workload_sequence(svrg_kernel_sequence())
        result = system.run(cycles=cycles, warmup=warmup)
        label = f"concurrent_{mix}_avg_gradient"
    return {
        "scenario": label,
        "host_power_w": result.energy.get("host_power_w", 0.0),
        "nda_power_w": result.energy.get("nda_power_w", 0.0),
        "total_power_w": result.energy.get("total_power_w", 0.0),
    }


def run_power_analysis(mix: str = "mix1",
                       cycles: int = DEFAULT_CYCLES,
                       warmup: int = DEFAULT_WARMUP,
                       processes: Optional[int] = None,
                       cache_dir: Optional[str] = None,
                       platform: Optional[str] = None,
                       options: Optional[SweepOptions] = None
                       ) -> List[Dict[str, object]]:
    """Rows: theoretical max, host-only measured, concurrent measured."""
    params = [
        {"scenario": scenario, "mix": mix, "cycles": cycles, "warmup": warmup,
         "platform": platform}
        for scenario in ("theoretical_max", "host_only", "concurrent")
    ]
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir,
                     options=options)


def concurrent_below_host_max(rows: List[Dict[str, object]]) -> bool:
    """The paper's takeaway: concurrent power stays below the host-only max."""
    maximum = next(r for r in rows if r["scenario"] == "theoretical_max_host_only")
    concurrent = [r for r in rows if str(r["scenario"]).startswith("concurrent")]
    return all(float(r["total_power_w"]) <= float(maximum["total_power_w"]) * 1.05
               for r in concurrent)


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_power_analysis()
    print(format_table(rows))
    print()
    print("concurrent below host-only theoretical max:",
          concurrent_below_host_max(rows))


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
