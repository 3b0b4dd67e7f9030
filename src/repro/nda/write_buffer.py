"""NDA write buffer.

Result cache lines produced by a PE are staged in a per-rank write buffer
(128 entries in Table II) and drained to DRAM opportunistically.  Draining is
what produces the read/write-turnaround interference with host reads that the
throttling mechanisms of Section III-B manage, so buffer occupancy and drain
phases are modelled explicitly and mirrored by the replicated FSM
(Section III-D).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.dram.commands import DramAddress


class NdaWriteBuffer:
    """Bounded FIFO of pending NDA write transactions for one rank."""

    def __init__(self, capacity: int = 128,
                 drain_high_watermark: float = 0.5,
                 drain_low_watermark: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= drain_low_watermark <= drain_high_watermark <= 1.0:
            raise ValueError("watermarks must satisfy 0 <= low <= high <= 1")
        self.capacity = capacity
        self.drain_high_watermark = drain_high_watermark
        self.drain_low_watermark = drain_low_watermark
        #: The watermarks as integer occupancies — the smallest length at
        #: which a push enters the drain phase and the largest at which a
        #: pop leaves it — found with the float comparisons :meth:`push` and
        #: :meth:`pop` make, so burst plans predict both flips bit-exactly.
        self.drain_high_len = next(
            (k for k in range(capacity + 1)
             if k / capacity >= drain_high_watermark), capacity + 1)
        self.drain_low_len = max(
            (k for k in range(capacity + 1)
             if k / capacity <= drain_low_watermark), default=0)
        self._entries: Deque[DramAddress] = deque()
        self._draining = False
        self.total_enqueued = 0
        self.total_drained = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> float:
        return len(self._entries) / self.capacity

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    @property
    def draining(self) -> bool:
        """Whether the buffer is currently in its drain (write) phase."""
        return self._draining

    # ------------------------------------------------------------------ #

    def push(self, addr: DramAddress) -> bool:
        """Stage a write; returns False when the buffer is full (PE stalls)."""
        if self.full:
            self.stall_cycles += 1
            return False
        self._entries.append(addr)
        self.total_enqueued += 1
        if self.occupancy >= self.drain_high_watermark:
            self._draining = True
        return True

    def peek(self) -> Optional[DramAddress]:
        return self._entries[0] if self._entries else None

    def pop(self) -> DramAddress:
        if not self._entries:
            raise IndexError("write buffer is empty")
        addr = self._entries.popleft()
        self.total_drained += 1
        if self.occupancy <= self.drain_low_watermark:
            self._draining = False
        return addr

    def pop_bulk(self, count: int) -> None:
        """Drain ``count`` entries in one step (burst-issue settlement).

        State-identical to ``count`` :meth:`pop` calls; the caller has
        already consumed the popped addresses via :meth:`peek`/iteration
        (burst plans snapshot the address run up front).  The low-watermark
        check runs once on the final occupancy — intermediate occupancies
        are strictly higher, so no drain-phase exit is skipped.
        """
        if count <= 0:
            return
        if count > len(self._entries):
            raise IndexError("pop_bulk beyond buffer occupancy")
        for _ in range(count):
            self._entries.popleft()
        self.total_drained += count
        if self.occupancy <= self.drain_low_watermark:
            self._draining = False

    def force_drain(self) -> None:
        """Enter the drain phase regardless of occupancy (end of instruction)."""
        if self._entries:
            self._draining = True

    def state_tuple(self) -> Tuple[int, bool]:
        """(occupancy, draining) — the state mirrored by the replicated FSM."""
        return (len(self._entries), self._draining)
