"""Replicated NDA finite-state machines (paper Section III-D).

When the host directly controls the DRAM devices (a non-packetized DDR4
interface), both the host memory controller and the per-rank NDA memory
controllers must agree on bank and timing state.  Chopim achieves this
without any NDA-to-host signaling by replicating the NDA controller FSM on
the host side: because every NDA access is a deterministic function of the
launched NDA operation and of the host's own traffic, the two copies evolve
identically once synchronized at launch.

The :class:`ReplicatedFsm` here holds two :class:`NdaFsmState` copies — the
"device side" and the "host side" — applies every event to both through the
same transition function, and can verify they never diverge (the property the
paper relies on, checked by our tests every cycle in debug mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class NdaFsmState:
    """The architectural state mirrored between the NDA and host controllers.

    The paper reports this as a 40-byte microcode store plus 20 bytes of
    state registers per rank; the fields here correspond to those registers.
    """

    current_instruction: Optional[int] = None   # instruction id, None when idle
    reads_remaining: int = 0
    writes_remaining: int = 0
    write_buffer_occupancy: int = 0
    draining: bool = False
    instructions_completed: int = 0

    @property
    def idle(self) -> bool:
        return self.current_instruction is None

    def as_tuple(self) -> Tuple:
        return (self.current_instruction, self.reads_remaining,
                self.writes_remaining, self.write_buffer_occupancy,
                self.draining, self.instructions_completed)


class _FsmCopy:
    """One mutable FSM replica (device side or host side).

    Transitions mutate in place: the transition runs once per NDA command on
    *both* copies, and constructing a (frozen-dataclass) state object per
    event dominated the FSM cost on the hot path.  The immutable
    :class:`NdaFsmState` view is materialized on demand only.
    """

    __slots__ = ("current_instruction", "reads_remaining", "writes_remaining",
                 "write_buffer_occupancy", "draining", "instructions_completed")
    STATE = __slots__

    def __init__(self) -> None:
        self.current_instruction: Optional[int] = None
        self.reads_remaining = 0
        self.writes_remaining = 0
        self.write_buffer_occupancy = 0
        self.draining = False
        self.instructions_completed = 0

    def snapshot(self) -> NdaFsmState:
        return NdaFsmState(self.current_instruction, self.reads_remaining,
                           self.writes_remaining, self.write_buffer_occupancy,
                           self.draining, self.instructions_completed)


def _apply_to(copy: _FsmCopy, event: str, instruction_id: Optional[int],
              reads: int, writes: int) -> None:
    """The deterministic FSM transition function (shared by both copies)."""
    if event == "read_issued":
        if copy.reads_remaining > 0:
            copy.reads_remaining -= 1
    elif event == "write_drained":
        occ = copy.write_buffer_occupancy
        copy.write_buffer_occupancy = occ = occ - 1 if occ > 0 else 0
        if copy.writes_remaining > 0:
            copy.writes_remaining -= 1
        copy.draining = copy.draining and occ > 0
    elif event == "write_buffered":
        copy.write_buffer_occupancy += 1
    elif event == "launch":
        copy.current_instruction = instruction_id
        copy.reads_remaining = reads
        copy.writes_remaining = writes
        copy.draining = False
    elif event == "drain_start":
        copy.draining = True
    elif event == "drain_end":
        copy.draining = False
    elif event == "complete":
        copy.current_instruction = None
        copy.reads_remaining = 0
        copy.writes_remaining = 0
        copy.draining = False
        copy.instructions_completed += 1
    else:
        raise ValueError(f"unknown FSM event {event!r}")


class FsmDivergenceError(Exception):
    """Raised when the host-side and NDA-side FSM copies disagree."""


class ReplicatedFsm:
    """Two synchronized copies of one rank's NDA controller FSM."""

    STATE = ("_device", "_host", "events_applied")
    DERIVED = ("channel", "rank", "check_every_event")

    def __init__(self, channel: int, rank: int, check_every_event: bool = True) -> None:
        self.channel = channel
        self.rank = rank
        self.check_every_event = check_every_event
        self._device = _FsmCopy()
        self._host = _FsmCopy()
        self.events_applied = 0

    # ------------------------------------------------------------------ #

    def apply(self, event: str, instruction_id: Optional[int] = None,
              reads: int = 0, writes: int = 0) -> None:
        """Apply an event to both copies (as the hardware would) and verify."""
        _apply_to(self._device, event, instruction_id, reads, writes)
        _apply_to(self._host, event, instruction_id, reads, writes)
        self.events_applied += 1
        if self.check_every_event:
            self.verify()

    def apply_bulk(self, event: str, count: int) -> None:
        """Apply ``count`` repetitions of a streaming event in closed form.

        Only the per-command streaming events (``read_issued``,
        ``write_drained``, ``write_buffered``) are bulk-applicable: their
        transition functions are monotone counter updates, so ``count``
        single applications and one closed-form application reach the same
        state on both copies.  The burst-issue fast path uses this to settle
        a whole command burst without one transition call per command.
        """
        if count <= 0:
            return
        if count == 1:
            self.apply(event)
            return
        for copy in (self._device, self._host):
            if event == "read_issued":
                copy.reads_remaining = max(0, copy.reads_remaining - count)
            elif event == "write_drained":
                occ = max(0, copy.write_buffer_occupancy - count)
                copy.write_buffer_occupancy = occ
                copy.writes_remaining = max(0, copy.writes_remaining - count)
                copy.draining = copy.draining and occ > 0
            elif event == "write_buffered":
                copy.write_buffer_occupancy += count
            else:
                raise ValueError(f"event {event!r} is not bulk-applicable")
        self.events_applied += count
        if self.check_every_event:
            self.verify()

    def apply_device_only(self, event: str, instruction_id: Optional[int] = None,
                          reads: int = 0, writes: int = 0) -> None:
        """Apply an event to the device copy only (used to *test* divergence
        detection; real hardware never does this)."""
        _apply_to(self._device, event, instruction_id, reads, writes)
        self.events_applied += 1

    def verify(self) -> None:
        """Raise :class:`FsmDivergenceError` if the two copies differ."""
        device, host = self._device, self._host
        # Field-by-field comparison (no snapshot allocations): this runs
        # after every FSM event.
        if (device.current_instruction != host.current_instruction
                or device.reads_remaining != host.reads_remaining
                or device.writes_remaining != host.writes_remaining
                or device.write_buffer_occupancy != host.write_buffer_occupancy
                or device.draining != host.draining
                or device.instructions_completed != host.instructions_completed):
            raise FsmDivergenceError(
                f"FSM divergence on ch{self.channel} rk{self.rank}: "
                f"device={device.snapshot()} host={host.snapshot()}"
            )

    @property
    def in_sync(self) -> bool:
        return self._device.snapshot() == self._host.snapshot()

    @property
    def state(self) -> NdaFsmState:
        """The (verified) shared state."""
        return self._device.snapshot()

    @staticmethod
    def storage_overhead_bytes() -> Tuple[int, int]:
        """(microcode store, state registers) bytes per rank, from the paper."""
        return (40, 20)
