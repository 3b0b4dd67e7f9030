"""Parallel sweep runner with result caching — facade over the sweep service.

Every ``experiments/fig*.py`` entry point is a sweep over configuration
points (mode x mix x rank count x workload x ...), and each point is an
independent simulation.  This module keeps the historical import surface
(``run_sweep``, ``SweepCache``, ``SweepTask``, ...) while the
implementation lives in :mod:`repro.experiments.sweeprunner`:

* **Parallelism** — points run on supervised worker processes (one per CPU
  by default).  Unlike the old ``pool.map``, a worker crash, OOM-kill or
  hang no longer aborts the sweep: the worker is respawned and the point
  retried (bounded, with exponential backoff), with wall-clock timeouts
  cutting hung points.
* **Caching** — each point's result row is keyed by the point function,
  its parameters, the simulation environment (``REPRO_PLATFORM`` /
  ``REPRO_DISABLE_BURST``) and a content fingerprint
  of the simulator source, then stored as JSON in a content-addressed
  store; re-running a figure with unchanged parameters replays instantly.
  Set ``REPRO_SWEEP_CACHE`` (or pass ``cache_dir``) to enable it.
* **Durability** — with a cache directory configured, every execution is
  an epoch claim in that directory and a record in an append-only run
  ledger (fsynced at lease and completion), so a ``kill -9`` of driver or
  worker resumes exactly where it left off, and no point ever executes
  more than ``1 + max_retries`` times, whether one host or several share
  the directory.
* **Graceful degradation** — points that exhaust their retries surface in
  a structured failure report; strict mode (the default, or
  ``REPRO_SWEEP_STRICT=1`` in CI) raises :class:`SweepPointsFailed`
  instead of returning partial rows silently.

Point functions must be module-level callables taking keyword arguments
and returning a JSON-serializable dict; the fig modules define one
``_point`` function each and build their rows with :func:`run_sweep`.
Pass a :class:`SweepOptions` for the full service surface (retries,
timeouts, host identity, deterministic fault injection, progress/ETA
lines).
"""

from __future__ import annotations

from repro.experiments.sweeprunner import (
    CACHE_ENV_VAR,
    CACHE_VERSION,
    FAULT_KINDS_ENV,
    FAULT_RATE_ENV,
    FAULT_SEED_ENV,
    PROGRESS_ENV,
    STRICT_ENV,
    FaultPlan,
    RunLedger,
    SweepCache,
    SweepOptions,
    SweepOutcome,
    SweepPointsFailed,
    SweepStats,
    SweepTask,
    TaskFailure,
    code_fingerprint,
    default_cache_dir,
    default_processes,
    environment_axes,
    run_sweep,
    run_sweep_outcome,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_VERSION",
    "FAULT_KINDS_ENV",
    "FAULT_RATE_ENV",
    "FAULT_SEED_ENV",
    "PROGRESS_ENV",
    "STRICT_ENV",
    "FaultPlan",
    "RunLedger",
    "SweepCache",
    "SweepOptions",
    "SweepOutcome",
    "SweepPointsFailed",
    "SweepStats",
    "SweepTask",
    "TaskFailure",
    "code_fingerprint",
    "default_cache_dir",
    "default_processes",
    "environment_axes",
    "run_sweep",
    "run_sweep_outcome",
]
