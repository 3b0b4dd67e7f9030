"""Deterministic fault injection for the sweep service.

Faults are decided by a pure hash of ``(seed, task key, attempt)``, so the
same plan injects the same faults at the same points in every process that
evaluates it — the driver, a forked worker, a spawned worker, or a resumed
driver after a crash all agree.  Retried attempts hash differently, so a
point that crashed on attempt 1 normally runs clean on attempt 2 (unless
the rate says otherwise), which is exactly the transient-fault model the
recovery paths are built for.

A plan reaches a sweep only as ``SweepOptions.fault_plan`` (None, the
default, injects nothing); no environment variable turns faults on, so a
figure regeneration never runs with an injected schedule.  The sweep
proofs under ``tests/sweep_proofs/`` pass their plans explicitly, and hand
them to their child drivers on the command line.

Fault kinds (:data:`FAULT_OUTCOMES` maps each to the failure it ends in;
the supervised worker and the inline executor both act on that table):

* ``crash`` — the worker process dies with ``os._exit(137)`` (an OOM-kill
  lookalike).
* ``hang`` — the worker spins forever (in chunks, so an orphaned worker
  still notices its driver died); the supervisor's wall-clock timeout
  kills and replaces it.
* ``corrupt`` — the row is replaced with a poisoned payload that row
  validation must catch before it reaches the store.
* ``die`` — the worker dies *mid-point*, right after its first durable
  checkpoint save (see :mod:`.checkpoint`), exercising the
  resume-from-checkpoint path; a point that never checkpoints dies at
  completion instead, degenerating to a plain crash.

The inline executor runs points in the driver process, which no injected
fault may kill or hang: it reports the crash or timeout the worker would
have produced without running the point.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Each fault kind and the failure kind it ends in.  The order is the
#: default schedule's (:meth:`FaultPlan.decide` indexes into it).
FAULT_OUTCOMES: Dict[str, str] = {
    "crash": "crash", "hang": "timeout", "corrupt": "corrupt-row",
    "die": "crash",
}

FAULT_KINDS: Tuple[str, ...] = tuple(FAULT_OUTCOMES)

#: Marker key planted by corrupt-row faults; row validation rejects any row
#: carrying it, proving the validation path rather than trusting it.
CORRUPT_MARKER = "__repro_sweep_corrupt__"

#: Exit code used by injected crashes (the Linux OOM-killer's SIGKILL code).
CRASH_EXIT_CODE = 137

#: Timeout applied when hangs are being injected but the caller set none —
#: an untimed hang would otherwise stall the sweep forever.
DEFAULT_HANG_TIMEOUT = 30.0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault schedule over (task key, attempt) pairs."""

    rate: float = 0.0
    seed: int = 0
    kinds: Tuple[str, ...] = FAULT_KINDS

    @property
    def active(self) -> bool:
        return self.rate > 0.0 and bool(self.kinds)

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault kind for this execution, or None for a clean run."""
        if not self.active:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("ascii")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        if draw >= self.rate:
            return None
        return self.kinds[int.from_bytes(digest[8:12], "big") % len(self.kinds)]


def corrupt_row(row: Any) -> Dict[str, Any]:
    """The poisoned payload a corrupt-row fault substitutes for the row."""
    return {CORRUPT_MARKER: True, "original_type": type(row).__name__}


def hang_forever(parent_pid: int, poll_seconds: float = 0.2) -> None:
    """Spin until killed — but self-exit if the driver itself is gone.

    A hang exists to exercise the supervisor's timeout/kill path; if the
    driver was ``kill -9``'d first there is nobody left to kill us, and
    exiting on re-parent keeps the fault-injection tests leak-free.
    """
    while os.getppid() == parent_pid:
        time.sleep(poll_seconds)
    os._exit(0)


__all__ = [
    "CORRUPT_MARKER", "CRASH_EXIT_CODE", "DEFAULT_HANG_TIMEOUT",
    "FAULT_KINDS", "FAULT_OUTCOMES", "FaultPlan", "corrupt_row",
    "hang_forever",
]
