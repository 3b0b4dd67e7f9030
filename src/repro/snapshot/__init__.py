"""Bit-exact simulation checkpointing.

The snapshot layer serializes the *full* mutable state of a
:class:`~repro.core.system.ChopimSystem` — timing horizons, open-row
state, FR-FCFS queues (with their ``queue_seq``/version counters),
replicated FSMs, NDA write buffers, host cores, stats windows, and
workload/RNG cursors — into a versioned, sha256-checked envelope, and
restores it into a freshly built system that continues bit-identically
(the same contract the cycle==event==burst equivalence fuzz enforces).

Public API::

    from repro.snapshot import snapshot_system, restore_system
    from repro.snapshot import write_snapshot, read_snapshot

    payload = snapshot_system(system)          # at a safe point
    write_snapshot(path, payload)              # atomic, fsynced
    system = restore_system(read_snapshot(path))
    diff(payload, snapshot_system(other))      # the dotted paths that differ

See ARCHITECTURE.md "Checkpointing" for the safe-point definition and
how components declare the state a snapshot carries.
"""

from repro.snapshot.codec import (
    SCHEMA_VERSION,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotVersionError,
    decode,
    dumps,
    encode,
    loads,
    read_snapshot,
    write_snapshot,
)
from repro.snapshot.compare import diff
from repro.snapshot.state import restore_system, snapshot_system

__all__ = [
    "SCHEMA_VERSION",
    "SnapshotError",
    "SnapshotVersionError",
    "SnapshotCorruptError",
    "encode",
    "decode",
    "dumps",
    "loads",
    "write_snapshot",
    "read_snapshot",
    "snapshot_system",
    "restore_system",
    "diff",
]
