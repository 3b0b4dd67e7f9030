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
    """Row-buffer state of one DRAM bank: which row (if any) is latched.

    Access outcomes (row hits and conflicts, the quantity bank partitioning
    in Section III-C is designed to improve) are counted per request source
    in :class:`~repro.dram.device.DramEventCounts`.
    """

    STATE = ("state", "open_row")
    DERIVED = ("channel", "rank", "bank_group", "bank")

    channel: int
    rank: int
    bank_group: int
    bank: int

    state: BankState = BankState.CLOSED
    open_row: Optional[int] = None

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

    def precharge(self) -> None:
        self.state = BankState.CLOSED
        self.open_row = None
