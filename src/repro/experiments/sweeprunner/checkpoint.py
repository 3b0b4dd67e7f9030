"""Preemptible sweep points: worker-side checkpoint slots.

Long simulation points are the sweep service's blind spot: a crash ten
minutes into a point costs ten minutes, every retry starts from cycle
zero, and the journal can only say "it was leased".  This module closes
that gap with per-key checkpoint files (``<checkpoint_dir>/<key>.ckpt``,
written through :mod:`repro.snapshot`'s atomic, digest-checked envelope):

* the driver arms a :class:`CheckpointSlot` around each point execution
  (supervised workers and the inline executor alike);
* a point function opts in by running its system through
  :func:`run_with_checkpoint` instead of calling ``system.run`` directly —
  with ``REPRO_CHECKPOINT_EVERY`` set, the measured window then snapshots
  every N cycles and a retried attempt resumes **bit-exactly** from the
  last durable checkpoint instead of recomputing the prefix;
* the ledger's ``leased`` records carry the provenance
  (``checkpoint="fresh"`` / ``"resume"``), and the checkpoint file is
  deleted when the row lands in the store.

Checkpointing changes when work happens, never what it computes: the
resumed row is bit-identical to an uninterrupted run (the equivalence is
pinned by tests/test_snapshot.py and ``selftest ckpt-proof``).

The ``die`` fault kind (see :mod:`.faults`) integrates here: an armed
slot kills the worker with the standard crash exit code right after its
first durable checkpoint save — the exact "crashed mid-point with a valid
resume file" scenario the recovery path exists for.

:mod:`repro.snapshot` (and with it the simulator) is imported inside the
functions that read, write or restore a checkpoint: the sweep service
itself loads without it.  A checkpointing sweep loads it through
:func:`preload_snapshot_layer` before its first point, in the driver (which
forked workers inherit) and in each spawned worker, so no point pays the
import inside its run.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Union

from repro.experiments.sweeprunner.faults import CRASH_EXIT_CODE

#: Cycles between checkpoints of a preemptible point; unset/0 disables.
CHECKPOINT_EVERY_ENV = "REPRO_CHECKPOINT_EVERY"


def checkpoint_every(environ: Optional[Mapping[str, str]] = None) -> int:
    """The checkpoint interval from the environment (0 = disabled)."""
    raw = (os.environ if environ is None else environ).get(
        CHECKPOINT_EVERY_ENV, "")
    try:
        value = int(raw)
    except (TypeError, ValueError):
        return 0
    return max(0, value)


def preload_snapshot_layer() -> None:
    """Import :mod:`repro.snapshot` if this process's points may save.

    Only a point that runs a simulator can snapshot it, so a process that
    has not loaded ``repro.core.system`` (the analytic fig15 sweep) loads
    nothing here, even with an interval set.
    """
    if checkpoint_every() and "repro.core.system" in sys.modules:
        import repro.snapshot  # noqa: F401


def checkpoint_file(directory: Union[str, Path], key: str) -> Path:
    """The checkpoint path for one task key (attempt-independent: a retry
    resumes whatever the previous attempt last saved)."""
    return Path(directory) / f"{key}.ckpt"


def peek_fraction(path: Union[str, Path]) -> float:
    """How much of its run a checkpoint has already simulated, in [0, 1].

    Progress/ETA accounting credits a resumed point for the cycles its
    checkpoint carries (a resumed point only *computes* the remainder, so
    counting it as a full row of work would skew the measured rate and the
    ETA).  Reads the snapshot's ``now``/``run_end``/``run_cycles`` fields;
    anything unreadable or incompatible is worth zero credit — the point
    then just counts as fresh, which is always a safe estimate.
    """
    from repro.snapshot import SnapshotError, read_snapshot

    try:
        payload = read_snapshot(Path(path))
    except (OSError, SnapshotError):
        return 0.0
    if not isinstance(payload, dict):
        return 0.0
    now = payload.get("now")
    run_end = payload.get("run_end")
    run_cycles = payload.get("run_cycles")
    if not all(isinstance(v, int) for v in (now, run_end, run_cycles)) \
            or run_cycles <= 0:
        return 0.0
    remaining = max(run_end - now, 0)
    return min(max(1.0 - remaining / run_cycles, 0.0), 1.0)


class CheckpointSlot:
    """One point execution's handle on its checkpoint file."""

    def __init__(self, directory: Union[str, Path], key: str,
                 attempt: int) -> None:
        self.directory = Path(directory)
        self.key = key
        self.attempt = attempt
        self.saves = 0
        self._die_armed = False

    def path(self) -> Path:
        return checkpoint_file(self.directory, self.key)

    def arm_die(self) -> None:
        """Injected die-mid-point: exit after the first durable save."""
        self._die_armed = True

    def load(self) -> Optional[Any]:
        """The last saved payload, or None (missing, corrupt, wrong schema —
        all of which mean "start fresh", never "fail the point")."""
        from repro.snapshot import SnapshotError, read_snapshot

        path = self.path()
        if not path.exists():
            return None
        try:
            return read_snapshot(path)
        except (OSError, SnapshotError):
            return None

    def save(self, payload: Any) -> None:
        from repro.snapshot import write_snapshot

        write_snapshot(self.path(), payload)
        self.saves += 1
        if self._die_armed:
            # The checkpoint is durable; now die the way an OOM-kill would,
            # leaving the resume file for the next attempt to prove itself on.
            os._exit(CRASH_EXIT_CODE)

    def save_system(self, system: Any) -> None:
        """``checkpoint_hook`` form: snapshot a running system into the slot."""
        from repro.snapshot import snapshot_system

        self.save(snapshot_system(system))


#: The slot armed for the currently executing point, if any.  Worker
#: processes and the inline executor set this around each ``fn(**params)``
#: call; :func:`run_with_checkpoint` picks it up without the point
#: function having to thread sweep plumbing through its signature.
_active: Optional[CheckpointSlot] = None


def activate(slot: CheckpointSlot) -> None:
    global _active
    _active = slot


def deactivate() -> None:
    global _active
    _active = None


def active_slot() -> Optional[CheckpointSlot]:
    return _active


def run_with_checkpoint(build: Callable[[], Any], cycles: int,
                        warmup: int = 0) -> Any:
    """Run a simulation point preemptibly; returns its SimulationResult.

    ``build`` constructs the fully configured ChopimSystem (mode, workload,
    engine — everything but the ``run`` call).  Without an armed slot or a
    checkpoint interval this is exactly ``build().run(cycles, warmup)``;
    with both, the run checkpoints every interval and resumes bit-exactly
    from the slot's last good save when one exists.
    """
    slot = active_slot()
    every = checkpoint_every()
    if slot is None or every <= 0:
        return build().run(cycles, warmup=warmup)
    payload = slot.load()
    if payload is not None:
        from repro.snapshot import SnapshotError, restore_system

        try:
            system = restore_system(payload)
        except SnapshotError:
            # Incompatible or stale checkpoint (e.g. a burst-config flip
            # between attempts): recompute from scratch rather than fail.
            system = None
        if system is not None:
            return system.finish_run(checkpoint_hook=slot.save_system,
                                     checkpoint_every=every)
    return build().run(cycles, warmup=warmup,
                       checkpoint_hook=slot.save_system,
                       checkpoint_every=every)


__all__ = [
    "CHECKPOINT_EVERY_ENV", "CheckpointSlot", "activate", "active_slot",
    "checkpoint_every", "checkpoint_file", "deactivate", "peek_fraction",
    "preload_snapshot_layer", "run_with_checkpoint",
]
