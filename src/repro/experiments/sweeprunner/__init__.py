"""Parallel, cached, fault-tolerant sweeps: the service every figure runs on.

Every ``experiments/fig*.py`` entry point is a sweep over configuration
points (mode x mix x rank count x workload x ...), and each point is an
independent simulation.  The figure modules define one ``_point`` function
each and build their rows with :func:`run_sweep`:

* **Parallelism** — points run on supervised worker processes (one per CPU
  by default).  A worker crash, OOM-kill or hang does not abort the sweep:
  the worker is respawned and the point retried (bounded, with exponential
  backoff), with wall-clock timeouts cutting hung points.
* **Caching** — each point's result row is keyed by the point function,
  its parameters, the simulation environment (``REPRO_PLATFORM``) and a
  content fingerprint of the simulator source, then stored as JSON in a
  content-addressed store; re-running a figure with unchanged parameters
  replays instantly.  Set ``REPRO_SWEEP_CACHE`` (or pass ``cache_dir``)
  to enable it.
* **Durability** — with a cache directory configured, every execution is
  an epoch claim in that directory and a record in an append-only run
  ledger (fsynced at lease and completion), so a ``kill -9`` of driver or
  worker resumes exactly where it left off, and no point ever executes
  more than ``1 + max_retries`` times.  One live driver works on a
  directory at a time; a second one makes the sweep raise.
* **Graceful degradation** — points that exhaust their retries surface in
  a structured failure report; strict mode (``SweepOptions.strict``, the
  default) raises :class:`SweepPointsFailed` instead of returning partial
  rows.

Point functions must be module-level callables taking keyword arguments
and returning a JSON-serializable dict.  Pass a :class:`SweepOptions` for
the full service surface (retries, timeouts, fault injection).
``python -m repro.experiments.sweeprunner status <dir>`` reports a
sweep's per-key state, throughput and ETA from its journal, live or dead.

Layering:

* :mod:`.tasks` — task identity: content-addressed keys over
  (function, params, environment axes, code fingerprint).
* :mod:`.store` — the content-addressed result store (doubles as the sweep
  cache); validates entries before counting hits and quarantines corrupt
  files.
* :mod:`.ledger` — append-only JSONL run journal (queued/leased/done/
  failed), one file per sweep, fsynced at lease and completion.
* :mod:`.faults` — deterministic crash/hang/corrupt-row injection and the
  table of the failure each fault ends in.  A :class:`FaultPlan` reaches a
  sweep only as ``SweepOptions.fault_plan``; nothing reads one from the
  environment.
* :mod:`.supervisor` — the two executors the run loop drives: async-submit
  worker processes with crash detection, SIGKILL-on-timeout and respawn,
  and the inline executor for serial sweeps.
* :mod:`.report` — sweep outcomes: rows + structured failure report.
* :mod:`.claims` — ``O_EXCL`` epoch files: the attempt counter and the
  fencing token that makes a second live driver loud.
* :mod:`.service` — the orchestrator: ``run_sweep`` /
  ``run_sweep_outcome``, one run loop with retries, backoff, resume and
  strict mode.
* :mod:`.__main__` — the read-only ``status`` command.

The end-to-end crash/fault/resume proofs live outside the package, in
``tests/sweep_proofs/`` (``PYTHONPATH=src:tests python -m sweep_proofs
proof`` / ``ckpt-proof``).
"""

from repro.experiments.sweeprunner.faults import (
    CORRUPT_MARKER,
    FaultPlan,
)
from repro.experiments.sweeprunner.ledger import RunLedger, lease_counts
from repro.experiments.sweeprunner.report import (
    SweepOutcome,
    SweepPointsFailed,
    SweepStats,
    TaskFailure,
)
from repro.experiments.sweeprunner.service import (
    SweepOptions,
    default_processes,
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
    "FaultPlan",
    "RunLedger",
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
    "run_sweep",
    "run_sweep_outcome",
    "sweep_id",
]
