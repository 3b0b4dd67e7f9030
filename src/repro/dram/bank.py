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
