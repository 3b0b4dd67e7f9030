"""Sweep outcomes: completed rows plus a structured failure report.

Graceful degradation is the default contract of the sweep service: a point
that exhausts its retries does not abort the sweep — the completed rows
come back together with one :class:`TaskFailure` per dead point, and the
caller (or strict mode) decides whether that is fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


@dataclass
class TaskFailure:
    """One point that exhausted its retries (or was deemed unrunnable)."""

    key: str
    params: Dict[str, Any]
    attempts: int
    kind: str  # crash | timeout | error | corrupt-row
    error_type: str = ""
    message: str = ""


@dataclass
class SweepStats:
    """Service-level counters for one ``run_sweep`` call."""

    total_points: int = 0
    completed: int = 0
    failed_points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0          # leases taken by this driver incarnation
    retries: int = 0           # executions beyond each point's first
    timeouts: int = 0
    crashes: int = 0
    corrupt_rows: int = 0
    worker_respawns: int = 0
    resumed: bool = False      # the ledger held prior state at open
    duration_seconds: float = 0.0


@dataclass
class SweepOutcome:
    """Everything one sweep produced: rows, failures, stats, journal."""

    rows: List[Dict[str, Any]] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)
    ledger_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def failure_report(self) -> str:
        """The structured failure report, rendered for terminal/CI logs."""
        stats = self.stats
        lines = [
            f"sweep degraded: {len(self.failures)} of {stats.total_points} "
            f"point(s) failed after exhausting retries "
            f"({stats.completed} completed, {stats.retries} retries, "
            f"{stats.crashes} crashes, {stats.timeouts} timeouts, "
            f"{stats.corrupt_rows} corrupt rows)",
        ]
        for failure in self.failures:
            params = ", ".join(f"{k}={v!r}" for k, v in
                               sorted(failure.params.items()))
            detail = failure.error_type or failure.kind
            if failure.message:
                detail += f": {failure.message}"
            lines.append(f"  [{failure.kind}] {failure.key[:12]} "
                         f"({params}) x{failure.attempts} attempts — {detail}")
        if self.ledger_path is not None:
            lines.append(f"  ledger: {self.ledger_path}")
        return "\n".join(lines)


class SweepPointsFailed(RuntimeError):
    """Strict mode: raised when any point exhausted its retries.

    Carries the full :class:`SweepOutcome` — the completed rows are not
    thrown away, and the failure report is the exception message.
    """

    def __init__(self, outcome: SweepOutcome) -> None:
        super().__init__(outcome.failure_report())
        self.outcome = outcome


__all__ = ["SweepOutcome", "SweepPointsFailed", "SweepStats", "TaskFailure"]
