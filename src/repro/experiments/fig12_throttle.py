"""Figure 12: stochastic issue and next-rank prediction impact.

Host IPC and NDA bandwidth utilization while the NDAs run the most
write-intensive operation (COPY) under four write-throttling policies:
issue-if-idle (no throttling), stochastic issue with probabilities 1/4 and
1/16, and next-rank prediction.  The paper's takeaways: throttling NDA writes
protects the host from read/write-turnaround interference; next-rank
prediction is robust without tuning, stochastic issue extends the trade-off
range without extra signaling.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.experiments.sweep import SweepOptions, run_sweep
from repro.nda.isa import NdaOpcode
from repro.nda.throttle import DEFAULT_STOCHASTIC_PROBABILITY

#: (label, throttle policy name, stochastic probability)
POLICIES: Tuple[Tuple[str, str, float], ...] = (
    ("stochastic_1_16", "stochastic", 1.0 / 16.0),
    ("stochastic_1_4", "stochastic", 1.0 / 4.0),
    ("predict_next_rank", "next_rank", 0.0),
    ("issue_if_idle", "issue_if_idle", 0.0),
)


def _point(mix: str, label: str, policy: str, probability: float,
           operation: str, cycles: int, warmup: int,
           elements_per_rank: int) -> Dict[str, object]:
    cores = 8 if mix == "mix0" else None
    system = build_system(AccessMode.BANK_PARTITIONED, mix,
                          throttle=policy,
                          stochastic_probability=(probability
                                                  or DEFAULT_STOCHASTIC_PROBABILITY),
                          cores=cores)
    system.set_nda_workload(NdaOpcode(operation),
                            elements_per_rank=elements_per_rank)
    result = system.run(cycles=cycles, warmup=warmup)
    return {
        "mix": mix,
        "policy": label,
        "host_ipc": result.host_ipc,
        "nda_bw_utilization": result.nda_bw_utilization,
        "idealized_bw_utilization": result.idealized_bw_utilization,
    }


def run_write_throttling(mixes: Optional[Sequence[str]] = None,
                         cycles: int = DEFAULT_CYCLES,
                         warmup: int = DEFAULT_WARMUP,
                         elements_per_rank: int = DEFAULT_ELEMENTS_PER_RANK,
                         opcode: NdaOpcode = NdaOpcode.COPY,
                         processes: Optional[int] = None,
                         cache_dir: Optional[str] = None,
                         options: Optional[SweepOptions] = None,
                         ) -> List[Dict[str, object]]:
    """One row per (mix, throttling policy)."""
    mixes = list(mixes) if mixes is not None else QUICK_MIXES
    params = [
        {"mix": mix, "label": label, "policy": policy,
         "probability": probability, "operation": opcode.value,
         "cycles": cycles, "warmup": warmup,
         "elements_per_rank": elements_per_rank}
        for mix in mixes
        for label, policy, probability in POLICIES
    ]
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def tradeoff_summary(rows: Sequence[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Average host IPC and NDA utilization per policy over all mixes."""
    grouped: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        grouped.setdefault(str(row["policy"]), []).append(row)
    summary: Dict[str, Dict[str, float]] = {}
    for policy, policy_rows in grouped.items():
        n = len(policy_rows)
        summary[policy] = {
            "host_ipc": sum(float(r["host_ipc"]) for r in policy_rows) / n,
            "nda_bw_utilization": sum(float(r["nda_bw_utilization"])
                                      for r in policy_rows) / n,
        }
    return summary


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_write_throttling()
    print(format_table(rows))
    print()
    for policy, values in tradeoff_summary(rows).items():
        print(f"{policy:20s} host_ipc={values['host_ipc']:.2f} "
              f"nda_util={values['nda_bw_utilization']:.3f}")


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
