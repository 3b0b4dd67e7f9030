"""Simulation statistics: host IPC, NDA bandwidth utilization, rank idleness.

The metrics mirror the paper's evaluation:

* **Host IPC** — aggregate instructions per CPU cycle over all cores
  (Figures 10-14 report this on the left axis).
* **NDA bandwidth utilization** — NDA bytes moved divided by the peak
  rank-internal bandwidth of all NDA-capable ranks over the run (right axis
  of the same figures), plus the *idealized* utilization: the fraction of
  rank-cycles the host left idle, which is the upper bound the paper
  compares against.
* **Rank idle-period histogram** — idle-gap durations bucketed as in
  Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.utils.histogram import BucketHistogram, IDLE_BUCKET_LABELS
from repro.utils.stats import Counter


class RankIdleTracker:
    """Tracks busy/idle periods of one rank from the host's perspective."""

    STATE = ()
    COUNTERS = ("histogram", "busy_cycles", "idle_cycles", "_idle_run")

    def __init__(self) -> None:
        self.histogram = BucketHistogram()
        self.busy_cycles = 0
        self.idle_cycles = 0
        self._idle_run = 0

    def observe(self, host_busy: bool) -> None:
        if host_busy:
            self.busy_cycles += 1
            if self._idle_run:
                self.histogram.add(self._idle_run)
                self._idle_run = 0
        else:
            self.idle_cycles += 1
            self._idle_run += 1

    def observe_run(self, host_busy: bool, cycles: int) -> None:
        """Observe ``cycles`` consecutive cycles with the same busy state.

        Bit-identical to calling :meth:`observe` ``cycles`` times; the event
        engine uses it to account for fast-forwarded windows in one step.
        """
        if cycles <= 0:
            return
        if host_busy:
            self.busy_cycles += cycles
            if self._idle_run:
                self.histogram.add(self._idle_run)
                self._idle_run = 0
        else:
            self.idle_cycles += cycles
            self._idle_run += cycles

    def finalize(self) -> None:
        if self._idle_run:
            self.histogram.add(self._idle_run)
            self._idle_run = 0

    def breakdown(self) -> Dict[str, float]:
        """Fractions of time busy / idle-by-bucket (the Figure 2 stack)."""
        self.finalize()
        total = self.busy_cycles + self.idle_cycles
        if total == 0:
            return {"Busy": 0.0, **{label: 0.0 for label in IDLE_BUCKET_LABELS}}
        result = {"Busy": self.busy_cycles / total}
        for label, weight in zip(self.histogram.labels, self.histogram.weights):
            result[label] = weight / total
        return result


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    cycles: int
    mode: str
    mix: Optional[str]
    host_ipc: float
    per_core_ipc: List[float]
    nda_bandwidth_gbs: float
    nda_bw_utilization: float
    idealized_bw_utilization: float
    nda_bytes: int
    host_reads: int
    host_writes: int
    nda_instructions_completed: int
    nda_operations_completed: int
    rank_idle_breakdown: Dict[str, Dict[str, float]]
    row_hit_rate_host: float
    row_hit_rate_nda: float
    avg_read_latency: float
    energy: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable one-run summary (used by the examples)."""
        lines = [
            f"mode={self.mode} mix={self.mix} cycles={self.cycles}",
            f"  host IPC (aggregate)      : {self.host_ipc:.3f}",
            f"  NDA bandwidth             : {self.nda_bandwidth_gbs:.2f} GB/s",
            f"  NDA BW utilization        : {self.nda_bw_utilization:.3f}"
            f" (idealized bound {self.idealized_bw_utilization:.3f})",
            f"  host row-hit rate         : {self.row_hit_rate_host:.3f}",
            f"  avg host read latency     : {self.avg_read_latency:.1f} cycles",
            f"  NDA instructions complete : {self.nda_instructions_completed}",
        ]
        if self.energy:
            lines.append(f"  memory power              : {self.energy.get('total_power_w', 0.0):.2f} W")
        return "\n".join(lines)


class SimulationStats:
    """Accumulates per-cycle observations during a run."""

    STATE = ("rank_trackers",)
    COUNTERS = ("counters", "cycles_observed")
    DERIVED = ("config", "nda_rank_keys")

    def __init__(self, config: SystemConfig, nda_rank_keys: List[Tuple[int, int]]) -> None:
        self.config = config
        self.counters = Counter()
        self.rank_trackers: Dict[Tuple[int, int], RankIdleTracker] = {}
        for ch in range(config.org.channels):
            for rk in range(config.org.ranks_per_channel):
                self.rank_trackers[(ch, rk)] = RankIdleTracker()
        self.nda_rank_keys = nda_rank_keys
        self.cycles_observed = 0

    def observe_cycle(self, rank_busy: Dict[Tuple[int, int], bool]) -> None:
        self.cycles_observed += 1
        for key, tracker in self.rank_trackers.items():
            tracker.observe(rank_busy.get(key, False))

    # ------------------------------------------------------------------ #

    def idle_fraction(self, keys: Optional[List[Tuple[int, int]]] = None) -> float:
        keys = keys if keys is not None else list(self.rank_trackers)
        total_busy = 0
        total = 0
        for key in keys:
            tracker = self.rank_trackers[key]
            total_busy += tracker.busy_cycles
            total += tracker.busy_cycles + tracker.idle_cycles
        if total == 0:
            return 1.0
        return 1.0 - total_busy / total

    def rank_breakdowns(self) -> Dict[str, Dict[str, float]]:
        return {f"ch{ch}_rk{rk}": tracker.breakdown()
                for (ch, rk), tracker in self.rank_trackers.items()}

    def peak_rank_bytes_per_cycle(self) -> float:
        """Peak internal data-bus bytes per cycle of one rank."""
        org = self.config.org
        return org.cacheline_bytes / self.config.timing.tCCDS

    def nda_bw_utilization(self, nda_bytes: int) -> float:
        """NDA bytes relative to the peak bandwidth of the NDA-capable ranks."""
        if self.cycles_observed == 0 or not self.nda_rank_keys:
            return 0.0
        peak = (self.peak_rank_bytes_per_cycle() * len(self.nda_rank_keys)
                * self.cycles_observed)
        return nda_bytes / peak if peak > 0 else 0.0

    def idealized_bw_utilization(self) -> float:
        """Upper bound: the fraction of NDA-rank cycles the host left idle."""
        if not self.nda_rank_keys:
            return 0.0
        return self.idle_fraction(self.nda_rank_keys)

    def nda_bandwidth_gbs(self, nda_bytes: int) -> float:
        if self.cycles_observed == 0:
            return 0.0
        seconds = self.cycles_observed / (self.config.org.dram_clock_ghz * 1e9)
        return nda_bytes / seconds / 1e9 if seconds > 0 else 0.0
