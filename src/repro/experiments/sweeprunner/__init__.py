"""Fault-tolerant, resumable sweep service.

The package behind :mod:`repro.experiments.sweep` (kept as the compatible
facade).  Layering:

* :mod:`.tasks` — task identity: content-addressed keys over
  (function, params, environment axes, code fingerprint).
* :mod:`.store` — the content-addressed result store (doubles as the sweep
  cache); validates entries before counting hits and quarantines corrupt
  files.
* :mod:`.ledger` — append-only JSONL run journal (queued/leased/done/
  failed), one file per host, fsynced at lease and completion.
* :mod:`.faults` — deterministic crash/hang/corrupt-row injection
  (``REPRO_SWEEP_FAULT_RATE``/``_SEED``/``_KINDS``) and the table of the
  failure each fault ends in.
* :mod:`.supervisor` — the two executors the run loop drives: async-submit
  worker processes with crash detection, SIGKILL-on-timeout and respawn,
  and the inline executor for serial sweeps.
* :mod:`.report` — sweep outcomes: rows + structured failure report.
* :mod:`.progress` — live done/leased/failed, rows/sec, ETA lines.
* :mod:`.cluster` — the claim path every sweep with a directory takes, on
  one host or many: fenced epoch-file leases (the attempt counter),
  heartbeat liveness and lease stealing (``SweepOptions.cluster``).
* :mod:`.service` — the orchestrator: ``run_sweep`` /
  ``run_sweep_outcome``, one run loop with retries, backoff, resume and
  strict mode.
* :mod:`.selftest` — the end-to-end crash/fault/resume proofs
  (``python -m repro.experiments.sweeprunner.selftest proof`` /
  ``ckpt-proof`` / ``shard-proof``).
"""

from repro.experiments.sweeprunner.cluster import (
    HOST_ENV,
    ClusterOptions,
    ShardCoordinator,
    resolve_host,
)
from repro.experiments.sweeprunner.faults import (
    CORRUPT_MARKER,
    FAULT_KINDS_ENV,
    FAULT_RATE_ENV,
    FAULT_SEED_ENV,
    FaultPlan,
)
from repro.experiments.sweeprunner.ledger import (
    RunLedger,
    lease_counts,
    merged_counts,
    sweep_ledger_paths,
)
from repro.experiments.sweeprunner.progress import PROGRESS_ENV
from repro.experiments.sweeprunner.report import (
    SweepOutcome,
    SweepPointsFailed,
    SweepStats,
    TaskFailure,
)
from repro.experiments.sweeprunner.service import (
    STRICT_ENV,
    SweepOptions,
    default_processes,
    resolve_strict,
    run_sweep,
    run_sweep_outcome,
)
from repro.experiments.sweeprunner.store import (
    SweepCache,
    collect_garbage,
    default_cache_dir,
)
from repro.experiments.sweeprunner.supervisor import Supervisor
from repro.experiments.sweeprunner.tasks import (
    CACHE_ENV_VAR,
    CACHE_VERSION,
    SweepTask,
    code_fingerprint,
    environment_axes,
    make_task,
    sweep_id,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "CORRUPT_MARKER",
    "FAULT_KINDS_ENV",
    "FAULT_RATE_ENV",
    "FAULT_SEED_ENV",
    "HOST_ENV",
    "PROGRESS_ENV",
    "STRICT_ENV",
    "ClusterOptions",
    "FaultPlan",
    "RunLedger",
    "ShardCoordinator",
    "Supervisor",
    "SweepCache",
    "SweepOptions",
    "SweepOutcome",
    "SweepPointsFailed",
    "SweepStats",
    "SweepTask",
    "TaskFailure",
    "code_fingerprint",
    "collect_garbage",
    "default_cache_dir",
    "default_processes",
    "environment_axes",
    "lease_counts",
    "make_task",
    "merged_counts",
    "resolve_host",
    "resolve_strict",
    "run_sweep",
    "run_sweep_outcome",
    "sweep_id",
]
