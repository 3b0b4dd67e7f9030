"""Deterministic fault injection for the sweep service.

Faults are decided by a pure hash of ``(seed, task key, attempt)``, so the
same plan injects the same faults at the same points in every process that
evaluates it — the driver, a forked worker, a spawned worker, or a resumed
driver after a crash all agree.  Retried attempts hash differently, so a
point that crashed on attempt 1 normally runs clean on attempt 2 (unless
the rate says otherwise), which is exactly the transient-fault model the
recovery paths are built for.

Environment knobs (all optional; no faults when the rate is unset/zero)::

    REPRO_SWEEP_FAULT_RATE    probability per execution, e.g. "0.05"
    REPRO_SWEEP_FAULT_SEED    integer seed (default 0)
    REPRO_SWEEP_FAULT_KINDS   csv subset of "crash,hang,corrupt,die"

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

Cluster fault kinds (see :mod:`.cluster`) are host-level rather than
worker-level, are **not** part of the default schedule (naming them in
``REPRO_SWEEP_FAULT_KINDS`` or ``FaultPlan(kinds=...)`` opts in), and are
no-ops on single-host sweeps:

* ``netsplit`` — the executing host freezes its heartbeats for the
  duration of the point while it keeps computing; peers declare it dead,
  steal the lease, and the fencing check discards the split host's late
  writes.
* ``steal-race`` — hosts that observe an expired lease skip the usual
  deterministic steal stagger, so every candidate rushes the
  ``O_CREAT|O_EXCL`` claim at once and exactly one wins.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

FAULT_RATE_ENV = "REPRO_SWEEP_FAULT_RATE"
FAULT_SEED_ENV = "REPRO_SWEEP_FAULT_SEED"
FAULT_KINDS_ENV = "REPRO_SWEEP_FAULT_KINDS"

#: Each worker-level fault kind and the failure kind it ends in.  The order
#: is the default schedule's (:meth:`FaultPlan.decide` indexes into it).
FAULT_OUTCOMES: Dict[str, str] = {
    "crash": "crash", "hang": "timeout", "corrupt": "corrupt-row",
    "die": "crash",
}

FAULT_KINDS: Tuple[str, ...] = tuple(FAULT_OUTCOMES)

#: Host-level fault kinds understood by the shard coordinator.  Kept out of
#: :data:`FAULT_KINDS` (the default schedule) so existing single-host fault
#: schedules — and the CI proof runs pinned against them — are unchanged;
#: plans opt in by naming them explicitly.
CLUSTER_FAULT_KINDS: Tuple[str, ...] = ("netsplit", "steal-race")

ALL_FAULT_KINDS: Tuple[str, ...] = FAULT_KINDS + CLUSTER_FAULT_KINDS

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

    def to_env(self) -> Dict[str, str]:
        """The environment variables reproducing this plan in a subprocess."""
        return {
            FAULT_RATE_ENV: repr(self.rate),
            FAULT_SEED_ENV: str(self.seed),
            FAULT_KINDS_ENV: ",".join(self.kinds),
        }

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None
                 ) -> Optional["FaultPlan"]:
        environ = os.environ if environ is None else environ
        raw = environ.get(FAULT_RATE_ENV)
        if not raw:
            return None
        try:
            rate = float(raw)
        except ValueError:
            return None
        if rate <= 0.0:
            return None
        try:
            seed = int(environ.get(FAULT_SEED_ENV) or 0)
        except ValueError:
            seed = 0
        kinds_raw = environ.get(FAULT_KINDS_ENV) or ""
        kinds = tuple(k.strip() for k in kinds_raw.split(",")
                      if k.strip() in ALL_FAULT_KINDS) or FAULT_KINDS
        return cls(rate=min(rate, 1.0), seed=seed, kinds=kinds)


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
    "ALL_FAULT_KINDS", "CLUSTER_FAULT_KINDS", "CORRUPT_MARKER",
    "CRASH_EXIT_CODE", "DEFAULT_HANG_TIMEOUT",
    "FAULT_KINDS", "FAULT_KINDS_ENV", "FAULT_OUTCOMES", "FAULT_RATE_ENV",
    "FAULT_SEED_ENV", "FaultPlan", "corrupt_row",
    "hang_forever",
]
