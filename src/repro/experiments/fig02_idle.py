"""Figure 2: rank idle-time breakdown vs. idleness granularity.

For each application mix running host-only, the fraction of each rank's time
spent busy serving the host versus idle, with idle periods bucketed by
duration (1-10, 10-100, 100-250, 250-500, 500-1000, 1000+ cycles).  The
paper's takeaway — most idle periods are shorter than 250 cycles, so
fine-grain access interleaving is required — is what the reproduction checks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.modes import AccessMode
from repro.experiments.common import (
    DEFAULT_CYCLES,
    DEFAULT_WARMUP,
    build_system,
    format_table,
    run_experiment_cli,
)
from repro.experiments.sweeprunner import SweepOptions, run_sweep
from repro.host.mixes import mix_names
from repro.utils.histogram import IDLE_BUCKET_LABELS


def _point(mix: str, cycles: int, warmup: int) -> Dict[str, object]:
    """One sweep point: a host-only run of one mix, reduced to its figure row."""
    system = build_system(AccessMode.HOST_ONLY, mix)
    result = system.run(cycles=cycles, warmup=warmup)
    # Average the per-rank breakdowns (the paper plots one bar per mix).
    buckets = {"Busy": 0.0, **{label: 0.0 for label in IDLE_BUCKET_LABELS}}
    per_rank = result.rank_idle_breakdown
    for breakdown in per_rank.values():
        for key in buckets:
            buckets[key] += breakdown.get(key, 0.0)
    count = max(1, len(per_rank))
    row: Dict[str, object] = {"mix": mix}
    row.update({key: value / count for key, value in buckets.items()})
    row["short_idle_fraction"] = short_idle_fraction(row)
    return row


def run_idle_histogram(mixes: Optional[Sequence[str]] = None,
                       cycles: int = DEFAULT_CYCLES,
                       warmup: int = DEFAULT_WARMUP,
                       processes: Optional[int] = None,
                       cache_dir: Optional[str] = None,
                       options: Optional[SweepOptions] = None,
                       ) -> List[Dict[str, object]]:
    """One row per mix: busy fraction plus per-bucket idle fractions."""
    mixes = list(mixes) if mixes is not None else mix_names()
    params = [{"mix": mix, "cycles": cycles, "warmup": warmup} for mix in mixes]
    return run_sweep(_point, params, processes=processes, cache_dir=cache_dir, options=options)


def short_idle_fraction(row: Dict[str, object], threshold_label: str = "100-250") -> float:
    """Fraction of *idle* time in periods shorter than 250 cycles.

    This is the quantity behind the paper's claim that "the majority of idle
    periods are shorter than 100 cycles with the vast majority under 250".
    """
    idle_labels = list(IDLE_BUCKET_LABELS)
    idle_total = sum(float(row[label]) for label in idle_labels)
    if idle_total <= 0:
        return 0.0
    cutoff = idle_labels.index(threshold_label) + 1
    short = sum(float(row[label]) for label in idle_labels[:cutoff])
    return short / idle_total


def main() -> None:  # pragma: no cover - CLI convenience
    rows = run_idle_histogram()
    print(format_table(rows))


if __name__ == "__main__":  # pragma: no cover
    run_experiment_cli(main)
