"""Per-bank row-buffer state."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class BankState(enum.Enum):
    """Row-buffer state of a single bank."""

    CLOSED = "closed"
    OPEN = "open"


@dataclass
class Bank:
    """State and access statistics of one DRAM bank.

    The bank records which row (if any) is latched in its row buffer, and
    classifies column accesses into row hits, row misses (bank was closed)
    and row conflicts (a different row was open and had to be closed first).
    Conflicts are the quantity that bank partitioning (Section III-C) is
    designed to reduce.
    """

    STATE = ("state", "open_row")
    COUNTERS = ("row_hits", "row_misses", "row_conflicts", "activates",
                "precharges", "reads", "writes", "nda_reads", "nda_writes")
    DERIVED = ("channel", "rank", "bank_group", "bank")

    channel: int
    rank: int
    bank_group: int
    bank: int

    state: BankState = BankState.CLOSED
    open_row: Optional[int] = None

    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    nda_reads: int = 0
    nda_writes: int = 0

    def is_open(self, row: Optional[int] = None) -> bool:
        """Whether the bank is open (optionally: open to a specific row)."""
        if self.state is not BankState.OPEN:
            return False
        if row is None:
            return True
        return self.open_row == row

    def classify_access(self, row: int) -> str:
        """Classify a pending column access as ``hit``/``miss``/``conflict``."""
        if self.state is BankState.CLOSED:
            return "miss"
        if self.open_row == row:
            return "hit"
        return "conflict"

    def activate(self, row: int) -> None:
        if self.state is BankState.OPEN:
            raise ValueError(
                f"activate to open bank ch{self.channel} rk{self.rank} "
                f"bg{self.bank_group} bk{self.bank} (row {self.open_row} open)"
            )
        self.state = BankState.OPEN
        self.open_row = row
        self.activates += 1

    def precharge(self) -> None:
        self.state = BankState.CLOSED
        self.open_row = None
        self.precharges += 1

    def record_column(self, row: int, is_write: bool, is_nda: bool,
                      outcome: str) -> None:
        """Record a column access (read or write) and its locality outcome."""
        if outcome == "hit":
            self.row_hits += 1
        elif outcome == "miss":
            self.row_misses += 1
        elif outcome == "conflict":
            self.row_conflicts += 1
        else:
            raise ValueError(f"unknown access outcome {outcome!r}")
        if is_write:
            if is_nda:
                self.nda_writes += 1
            else:
                self.writes += 1
        else:
            if is_nda:
                self.nda_reads += 1
            else:
                self.reads += 1

    @property
    def total_accesses(self) -> int:
        return self.reads + self.writes + self.nda_reads + self.nda_writes

    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0
