"""Limited-outstanding-miss out-of-order core model.

The model captures the two first-order ways an OoO core interacts with main
memory:

* **Memory-level parallelism** — up to ``profile.mlp`` misses may be in
  flight; the core keeps retiring instructions underneath them.
* **ROB-limited tolerance** — once the oldest outstanding miss is more than
  ``rob_entries`` instructions old, the reorder buffer has filled and
  retirement stalls until that miss returns.

Instruction throughput when not memory-bound is ``fetch_width``-limited and
scaled by the profile's ``base_cpi``.  The miss stream itself comes from an
:class:`~repro.host.traffic.AddressStreamGenerator`.  IPC (the paper's host
metric) is retired instructions per CPU cycle.

All internal accounting uses fixed-point integers (``_FP_ONE`` units per
instruction / CPU cycle) so that advancing the core by ``n`` DRAM cycles in
one batched call is **bit-identical** to ``n`` single-cycle calls.  This is
the contract the event-driven simulation engine relies on when it
fast-forwards over idle regions: cores are caught up lazily in closed form
without any floating-point drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import HostConfig
from repro.host.profiles import BenchmarkProfile
from repro.host.traffic import AddressStreamGenerator
from repro.utils.rng import DeterministicRng

#: Fixed-point scale for instruction and CPU-cycle accounting.
_FP_ONE = 1 << 32


@dataclass
class _OutstandingMiss:
    STATE = ("phys", "issued_at_instruction_fp")

    phys: int
    issued_at_instruction_fp: int


class CoreModel:
    """One host core running one benchmark profile."""

    STATE = ("traffic", "rng", "_budget_fp", "_gap_fp", "_outstanding",
             "_pending_requests", "event_count")
    COUNTERS = ("_retired_fp", "_cpu_cycles_fp")
    DERIVED = ("core_id", "profile", "host_config", "_cpd_fp",
               "_rob_limit_fp", "_max_ipc_fp")

    def __init__(self, core_id: int, profile: BenchmarkProfile,
                 traffic: AddressStreamGenerator, host_config: HostConfig,
                 rng: DeterministicRng) -> None:
        self.core_id = core_id
        self.profile = profile
        self.traffic = traffic
        self.host_config = host_config
        self.rng = rng

        self._retired_fp = 0
        self._cpu_cycles_fp = 0
        self._budget_fp = 0
        self._cpd_fp = int(round(host_config.cycles_per_dram_cycle * _FP_ONE))
        self._rob_limit_fp = host_config.rob_entries * _FP_ONE
        max_ipc = min(float(host_config.fetch_width),
                      1.0 / max(profile.base_cpi, 1e-6))
        self._max_ipc_fp = max(1, int(round(max_ipc * _FP_ONE)))
        self._gap_fp: Optional[int] = self._draw_miss_gap_fp()
        self._outstanding: List[_OutstandingMiss] = []
        self._pending_requests: List[Tuple[int, bool]] = []
        #: Bumped whenever the core's event-relevant state changes (miss
        #: issued, completion delivered, measurement reset).  Between bumps
        #: the core evolves deterministically, so a cached absolute
        #: next-request cycle stays valid.  (Completion deliveries reach the
        #: engine through the host unit's completion calendar, not through a
        #: per-core listener — see HostComponent.)
        self.event_count = 0

    # ------------------------------------------------------------------ #
    # Miss-stream plumbing
    # ------------------------------------------------------------------ #

    def _draw_miss_gap_fp(self) -> Optional[int]:
        """Instructions until the next LLC miss (exponential around 1000/MPKI)."""
        mean = self.profile.instructions_per_miss()
        if mean == float("inf"):
            return None
        gap = self.rng.expovariate(1.0 / mean)
        return max(_FP_ONE, int(round(gap * _FP_ONE)))

    def _issue_miss(self) -> None:
        self.event_count += 1
        phys, is_write = self.traffic.next_access()
        self._pending_requests.append((phys, is_write))
        # Posted writebacks do not occupy the core's miss window.
        if not is_write:
            self._outstanding.append(
                _OutstandingMiss(phys, self._retired_fp)
            )
        self._gap_fp = self._draw_miss_gap_fp()

    def notify_completion(self, phys: int) -> None:
        """Called by the system when a demand read for this core returns."""
        for i, miss in enumerate(self._outstanding):
            if miss.phys == phys:
                del self._outstanding[i]
                self.event_count += 1
                return
        # Completion for a request we no longer track (e.g. after reset).

    # ------------------------------------------------------------------ #
    # Stall conditions
    # ------------------------------------------------------------------ #

    def _rob_blocked(self) -> bool:
        if not self._outstanding:
            return False
        oldest = self._outstanding[0]
        age = self._retired_fp - oldest.issued_at_instruction_fp
        return age >= self._rob_limit_fp

    def _mlp_blocked(self) -> bool:
        return len(self._outstanding) >= self.profile.mlp

    # ------------------------------------------------------------------ #
    # Cycle advance
    # ------------------------------------------------------------------ #

    def tick_dram(self, dram_cycles: int) -> List[Tuple[int, bool]]:
        """Advance the core by ``dram_cycles`` DRAM command-clock cycles.

        Returns the (physical address, is_write) memory transactions the core
        generated during this interval; the caller is responsible for sending
        them to the memory controllers.

        ``tick_dram(a); tick_dram(b)`` is bit-identical to ``tick_dram(a+b)``
        as long as no completion is delivered in between; the simulation
        engines rely on this to batch idle stretches.
        """
        increment_fp = dram_cycles * self._cpd_fp
        self._cpu_cycles_fp += increment_fp
        self._budget_fp += increment_fp
        self._consume()
        issued = self._pending_requests
        self._pending_requests = []
        return issued

    def _consume(self) -> None:
        """Process whole CPU cycles from the budget.

        Equivalent to a cycle-by-cycle loop; runs of identical cycles
        (plain retirement, stall) are advanced in closed form with integer
        arithmetic, which keeps the batched result exact.
        """
        budget = self._budget_fp
        while budget >= _FP_ONE:
            if self._rob_blocked():
                # The oldest miss can only return between ticks, so every
                # remaining whole cycle in this batch stalls.
                budget %= _FP_ONE
                break
            retire = self._max_ipc_fp
            mlp = self._mlp_blocked()
            if mlp:
                # The core can still retire underneath outstanding misses but
                # cannot expose new ones; model the issue-bandwidth loss.
                retire //= 2
            gap = self._gap_fp
            if gap is not None and gap <= retire and not mlp:
                # Stop retirement at the miss point and expose the miss.
                budget -= _FP_ONE
                self._retired_fp += gap
                self._issue_miss()
                continue
            # Plain retirement: jump over the cycles before the next
            # boundary (budget exhaustion, ROB fill, or miss point).
            n = budget // _FP_ONE
            if self._outstanding:
                age = self._retired_fp - self._outstanding[0].issued_at_instruction_fp
                to_block = -(-(self._rob_limit_fp - age) // retire)
                if to_block < n:
                    n = to_block
            if gap is not None and not mlp:
                to_miss = -(-gap // retire) - 1
                if to_miss < n:
                    n = to_miss
            if n <= 0:
                n = 1
            budget -= n * _FP_ONE
            self._retired_fp += n * retire
            if gap is not None:
                self._gap_fp = gap - n * retire
        self._budget_fp = budget

    def next_request_dram_cycles(self) -> Optional[int]:
        """DRAM cycles until ``tick_dram`` would generate a memory request.

        Returns ``None`` when no request can appear without an external
        completion first (ROB/MLP blocked, or a miss-free profile).  The
        value ``d`` means: the request is generated during the ``d``-th
        DRAM-cycle tick from now, so ticking strictly fewer than ``d`` cycles
        is guaranteed request-free.  Used by the event engine to bound
        fast-forwarding.
        """
        gap = self._gap_fp
        if gap is None or self._rob_blocked() or self._mlp_blocked():
            return None
        retire = self._max_ipc_fp
        to_miss = max(1, -(-gap // retire))
        if self._outstanding:
            age = self._retired_fp - self._outstanding[0].issued_at_instruction_fp
            to_block = -(-(self._rob_limit_fp - age) // retire)
            if to_miss > to_block:
                return None  # the ROB fills before the miss point is reached
        need_fp = to_miss * _FP_ONE - self._budget_fp
        return max(1, -(-need_fp // self._cpd_fp))

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def on_measurement_reset(self, now: int) -> None:
        """After the counters are zeroed: re-anchor outstanding-miss ages so
        ROB accounting stays consistent with the zeroed retirement counter,
        and mark the core's event-relevant state as changed."""
        self.event_count += 1
        for miss in self._outstanding:
            miss.issued_at_instruction_fp = 0

    def save_refs(self, refs) -> Dict[str, object]:
        return {"_outstanding": [refs.capture(m) for m in self._outstanding]}

    def load_refs(self, saved: Dict[str, object], refs) -> None:
        self._outstanding = [refs.rebuild(_OutstandingMiss, m)
                             for m in saved.pop("_outstanding")]

    @property
    def ipc(self) -> float:
        if self._cpu_cycles_fp <= 0:
            return 0.0
        return self._retired_fp / self._cpu_cycles_fp
