"""NDA write buffer.

Result cache lines produced by a PE are staged in a per-rank write buffer
(128 entries in Table II) and drained to DRAM opportunistically.  Draining is
what produces the read/write-turnaround interference with host reads that the
throttling mechanisms of Section III-B manage, so buffer occupancy and drain
phases are modelled explicitly and mirrored by the replicated FSM
(Section III-D).

The buffer always holds a contiguous, in-order run of the active
instruction's result writes — those staged but not yet drained — so it is
kept as that index window's length: the entries' addresses follow from the
owner's drain cursor (``NdaRankController`` derives the head address).
"""

from __future__ import annotations


class NdaWriteBuffer:
    """Occupancy and drain phase of one rank's FIFO of pending NDA writes."""

    STATE = ("length", "_draining")
    DERIVED = ("capacity", "drain_high_watermark", "drain_low_watermark",
               "drain_high_len", "drain_low_len")

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
        #: pop leaves it — found with float ``length / capacity``
        #: comparisons, so bulk pushes/pops and burst plans flip the phase
        #: bit-exactly.
        self.drain_high_len = next(
            (k for k in range(capacity + 1)
             if k / capacity >= drain_high_watermark), capacity + 1)
        self.drain_low_len = max(
            (k for k in range(capacity + 1)
             if k / capacity <= drain_low_watermark), default=0)
        self.length = 0
        self._draining = False

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.length

    @property
    def empty(self) -> bool:
        return not self.length

    @property
    def draining(self) -> bool:
        """Whether the buffer is currently in its drain (write) phase."""
        return self._draining

    # ------------------------------------------------------------------ #

    def push(self, count: int = 1) -> None:
        """Stage ``count`` writes (the PE stalls rather than overfill).

        Lengths only grow while pushing, so the drain-phase entry is checked
        once, on the final length: state-identical to ``count`` single
        pushes.
        """
        length = self.length + count
        if length > self.capacity:
            raise IndexError("push beyond buffer capacity")
        self.length = length
        if length >= self.drain_high_len:
            self._draining = True

    def pop(self, count: int = 1) -> None:
        """Drain ``count`` writes (one subtraction, however many).

        Lengths only shrink while popping, so the drain-phase exit is
        checked once, on the final length: state-identical to ``count``
        single pops.
        """
        length = self.length - count
        if length < 0:
            raise IndexError("pop beyond buffer occupancy")
        self.length = length
        if length <= self.drain_low_len:
            self._draining = False

    def force_drain(self) -> None:
        """Enter the drain phase regardless of occupancy (end of instruction)."""
        if self.length:
            self._draining = True
