"""The sweep service: durable, supervised, resumable sweep execution.

:func:`run_sweep` returns the rows every ``experiments/fig*.py`` entry
point builds its figure from, in parameter order, on top of this
execution core:

* every execution is one epoch claim (see :mod:`.claims`) journaled to
  the run ledger (``leased`` fsynced before dispatch, ``done``/``failed``
  after), so a ``kill -9`` of driver or worker resumes exactly where it
  left off — completed rows replay from the content-addressed store,
  interrupted claims count against the retry budget, and no point ever
  executes more than ``1 + max_retries`` times;
* one loop drives either executor (see :mod:`.supervisor`): supervised
  worker processes, where crashes and OOM-kills surface as retryable
  failures and the worker is respawned and hangs are cut by the per-task
  wall-clock timeout, or the inline executor for serial sweeps;
* retries back off exponentially with deterministic jitter;
* a sweep whose points exhaust their retries **degrades gracefully**: the
  completed rows come back plus a structured failure report.  Strict mode
  (``strict=True``, the default) raises :class:`SweepPointsFailed`
  instead;
* fault injection is an argument, ``SweepOptions.fault_plan``: no
  environment variable injects faults or changes strict mode.

Durability requires a directory: claims, journal and checkpoints live
next to the result store (``<cache_dir>/claims/``, ``ledger/``,
``checkpoints/``).  One live driver works on a directory at a time; a
second one makes the sweep raise (see :mod:`.claims`).  Without a
directory, the sweep runs memory-only (still supervised, still retried),
counting attempts in memory.  ``python -m repro.experiments.sweeprunner
status <dir>`` reports a sweep's progress from its journal.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.sweeprunner import checkpoint as checkpoint_module
from repro.experiments.sweeprunner import ledger as ledger_module
from repro.experiments.sweeprunner import store as store_module
from repro.experiments.sweeprunner.claims import Claims
from repro.experiments.sweeprunner.faults import (
    CORRUPT_MARKER,
    DEFAULT_HANG_TIMEOUT,
    FaultPlan,
)
from repro.experiments.sweeprunner.report import (
    SweepOutcome,
    SweepPointsFailed,
    SweepStats,
    TaskFailure,
)
from repro.experiments.sweeprunner.store import SweepCache, default_cache_dir
from repro.experiments.sweeprunner.supervisor import (
    InlineExecutor,
    Supervisor,
    TaskEvent,
)
from repro.experiments.sweeprunner.tasks import (
    PointFn,
    SweepTask,
    make_task,
    sweep_id,
)

#: Fractional jitter on top of the retry backoff (deterministic per key).
RETRY_JITTER = 0.25


@dataclass(frozen=True)
class SweepOptions:
    """Service knobs beyond the classic (processes, cache_dir) pair."""

    processes: Optional[int] = None
    #: Store root: rows at ``<cache_dir>/<key>.json``, plus the ``claims/``,
    #: ``ledger/`` and ``checkpoints/`` the sweep keeps there.
    #: None resolves REPRO_SWEEP_CACHE; an empty string runs memory-only.
    cache_dir: Optional[os.PathLike] = None
    #: Executions per point are bounded by ``1 + max_retries``.
    max_retries: int = 2
    #: Wall-clock seconds per task execution (supervised mode only; the
    #: inline executor cannot preempt a running point).
    task_timeout: Optional[float] = None
    #: Exponential-backoff base delay between retries, seconds.
    retry_backoff: float = 0.25
    #: Raise SweepPointsFailed when a point exhausts its retries; False
    #: returns the completed rows and prints the failure report.
    strict: bool = True
    start_method: Optional[str] = None
    #: Deterministic fault injection (see :mod:`.faults`); None injects none.
    fault_plan: Optional[FaultPlan] = None


def default_processes(task_count: int) -> int:
    """Worker count: one per CPU, capped by the number of points."""
    cpus = os.cpu_count() or 1
    return max(1, min(cpus, task_count))


def _validate_row(fn_label: str, row: Any) -> Optional[Tuple[str, str]]:
    """(error_type, message) when the row must not enter the store."""
    if not isinstance(row, dict):
        return ("TypeError",
                f"sweep point {fn_label} returned {type(row).__name__}; "
                "point functions must return a dict row")
    if CORRUPT_MARKER in row:
        return ("CorruptRow",
                "row failed integrity validation (corrupt-row marker)")
    return None


def _backoff_delay(options: SweepOptions, key: str, attempt: int) -> float:
    """Exponential backoff with deterministic per-(key, attempt) jitter."""
    base = options.retry_backoff * (2.0 ** max(attempt - 1, 0))
    digest = hashlib.sha256(f"backoff:{key}:{attempt}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return min(base * (1.0 + RETRY_JITTER * unit), 60.0)


class _PointState:
    """Driver-side state of one unique task key."""

    __slots__ = ("key", "task", "indices", "attempts", "row", "done",
                 "failure")

    def __init__(self, key: str, task: SweepTask) -> None:
        self.key = key
        self.task = task
        self.indices: List[int] = []
        self.attempts = 0       # epoch of the live (or last) lease
        self.row: Optional[Dict[str, Any]] = None
        self.done = False
        self.failure: Optional[TaskFailure] = None


class _SweepRun:
    """One run_sweep call: owns cache, claims, ledger, scheduler state."""

    def __init__(self, fn: PointFn, param_sets: Sequence[Dict[str, Any]],
                 options: SweepOptions) -> None:
        self.fn = fn
        self.fn_label = getattr(fn, "__qualname__", repr(fn))
        self.options = options
        self.param_sets = [dict(p) for p in param_sets]
        self.tasks = [make_task(fn, p) for p in self.param_sets]
        self.stats = SweepStats(total_points=len(self.tasks))
        self.fault_plan = options.fault_plan
        self.task_timeout = options.task_timeout
        if (self.task_timeout is None and self.fault_plan is not None
                and self.fault_plan.active and "hang" in self.fault_plan.kinds):
            self.task_timeout = DEFAULT_HANG_TIMEOUT
        self.max_leases = 1 + max(0, options.max_retries)

        # Unique-key states; duplicated parameter sets share one execution.
        self.states: Dict[str, _PointState] = {}
        self.order: List[str] = []  # key per index
        for index, task in enumerate(self.tasks):
            key = task.cache_key()
            state = self.states.get(key)
            if state is None:
                state = self.states[key] = _PointState(key, task)
            state.indices.append(index)
            self.order.append(key)

        self.cache, self.claims = self._open_store()
        self.ledger = self._open_ledger()
        self.checkpoint_dir = self._open_checkpoints()
        self._interrupted = threading.Event()

    # -- durability ------------------------------------------------------

    def _open_store(self) -> Tuple[Optional[SweepCache], Claims]:
        """The row store and the claims that count attempts beside it; a
        memory-only sweep counts them in memory."""
        if self.options.cache_dir is not None:
            # An explicit empty string forces caching off even when the
            # REPRO_SWEEP_CACHE environment variable is set.
            directory = (Path(self.options.cache_dir)
                         if str(self.options.cache_dir) else None)
        else:
            directory = default_cache_dir()
        if directory is None:
            return None, Claims(None, self.max_leases)
        try:
            cache = SweepCache(directory, fsync=True)
            claims = Claims(directory / "claims", self.max_leases)
        except OSError as exc:  # caching is best-effort; never fail the sweep
            print(f"sweep cache disabled ({directory}: {exc})",
                  file=sys.stderr)
            return None, Claims(None, self.max_leases)
        return cache, claims

    def _open_ledger(self) -> Optional[ledger_module.RunLedger]:
        if self.cache is None or not self.states:
            return None
        path = ledger_module.ledger_path(self.cache.directory / "ledger",
                                         sweep_id(self.tasks))
        fresh = not path.exists()
        try:
            journal = ledger_module.RunLedger(path)
        except OSError as exc:
            print(f"sweep ledger disabled ({path}: {exc})", file=sys.stderr)
            return None
        if fresh:
            journal.append_queued(
                self.states.keys(),
                {"fn": f"{self.fn.__module__}.{self.fn_label}",
                 "points": len(self.states),
                 "max_retries": self.options.max_retries})
        else:
            self.stats.resumed = journal.resumed
        return journal

    def _open_checkpoints(self) -> Optional[Path]:
        """``<cache_dir>/checkpoints``: a retried attempt resumes what the
        interrupted one last saved."""
        if self.cache is None:
            return None
        directory = self.cache.directory / "checkpoints"
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # best-effort, like the cache
            print(f"sweep checkpoints disabled ({directory}: {exc})",
                  file=sys.stderr)
            return None
        return directory

    def _checkpoint_path(self, key: str) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        return checkpoint_module.checkpoint_file(self.checkpoint_dir, key)

    # -- scheduling ------------------------------------------------------

    def _prefill(self) -> List[str]:
        """Resolve store hits; return the keys left to run."""
        pending: List[str] = []
        for key, state in self.states.items():
            row = self.cache.load(state.task) if self.cache is not None \
                else None
            if row is None:
                pending.append(key)
            else:
                state.row = row
                state.done = True
        return pending

    def _exhaust(self, state: _PointState) -> None:
        """Earlier driver incarnations spent the key's attempt budget.  The
        journal's failure of the final attempt is the error; a final attempt
        that never reported (its driver died) is a crash."""
        epoch = self.claims.current_epoch(state.key)
        state.attempts = epoch
        failures = (self.ledger.record(state.key).failures
                    if self.ledger is not None else [])
        info = next((f for f in reversed(failures)
                     if f.get("attempt") == epoch), {})
        state.failure = TaskFailure(
            key=state.key, params=dict(state.task.params), attempts=epoch,
            kind=str(info.get("kind") or "crash"),
            error_type=str(info.get("error_type") or ""),
            message=str(info.get("message") or
                        "attempt budget spent by earlier driver runs"))

    def _record_failure(self, state: _PointState, kind: str,
                        error_type: str, message: str) -> Optional[float]:
        """Journal one failed attempt; return a retry delay or None."""
        self.claims.check_holds(state.key, state.attempts)
        if kind == "timeout":
            self.stats.timeouts += 1
        elif kind == "crash":
            self.stats.crashes += 1
        elif kind == "corrupt-row":
            self.stats.corrupt_rows += 1
        if self.ledger is not None:
            self.ledger.append_failed(state.key, state.attempts, kind,
                                      error_type, message)
        if state.attempts < self.max_leases:
            return _backoff_delay(self.options, state.key, state.attempts)
        state.failure = TaskFailure(
            key=state.key, params=dict(state.task.params),
            attempts=state.attempts, kind=kind,
            error_type=error_type, message=message)
        return None

    def _lease(self, state: _PointState, epoch: int) -> None:
        """Take a won claim: its epoch is the attempt number, and a
        checkpoint an interrupted attempt left makes it a resume."""
        state.attempts = epoch
        ckpt = self._checkpoint_path(state.key)
        provenance = ("resume" if ckpt is not None and ckpt.exists()
                      else "fresh")
        self.stats.executed += 1
        if epoch > 1:
            self.stats.retries += 1
        if self.ledger is not None:
            self.ledger.append_leased(state.key, epoch,
                                      checkpoint=provenance)

    def _complete(self, state: _PointState, row: Dict[str, Any]) -> None:
        """Land a completed row."""
        self.claims.check_holds(state.key, state.attempts)
        state.row = row
        state.done = True
        if self.cache is not None:
            self.cache.store(state.task, row)
        if self.ledger is not None:
            self.ledger.append_done(state.key, state.attempts)
        ckpt = self._checkpoint_path(state.key)
        if ckpt is not None:
            # The row is durable; its resume file is dead weight now.
            try:
                ckpt.unlink()
            except OSError:
                pass

    # -- the run loop ----------------------------------------------------

    def _execute(self, pending: List[str],
                 executor: Union[InlineExecutor, Supervisor]) -> None:
        """Lease ready keys onto idle executor slots and settle the events.

        A key whose attempt failed waits in the deferred heap while it
        backs off; the loop ends when every key is done or out of attempts.
        """
        ready = deque(pending)
        deferred: List[Tuple[float, int, str]] = []
        tickets = itertools.count()
        in_flight = 0

        while ready or deferred or in_flight:
            now = time.monotonic()
            while deferred and deferred[0][0] <= now:
                ready.append(heapq.heappop(deferred)[2])
            while ready and executor.idle_count() > 0:
                state = self.states[ready.popleft()]
                epoch = self.claims.acquire(state.key)
                if epoch is None:
                    self._exhaust(state)
                    continue
                self._lease(state, epoch)
                executor.submit(state.indices[0], state.key, state.attempts,
                                state.task.params)
                in_flight += 1
            if not in_flight:
                if not deferred:
                    break
                # Nothing runs: wait out a backoff.  An Event wait (not a
                # sleep) lets Ctrl-C cut it short.
                delay = deferred[0][0] - time.monotonic()
                if delay > 0 and self._interrupted.wait(min(delay, 0.5)):
                    raise KeyboardInterrupt
                continue
            for event in executor.poll(timeout=0.05):
                in_flight -= 1
                key = event.assignment.key
                delay = self._handle_event(self.states[key], event)
                if delay is not None:
                    heapq.heappush(deferred, (time.monotonic() + delay,
                                              next(tickets), key))

    def _handle_event(self, state: _PointState,
                      event: TaskEvent) -> Optional[float]:
        """Returns a retry delay when the attempt failed but may run again."""
        if event.kind == "row":
            invalid = _validate_row(self.fn_label, event.payload)
            if invalid is None:
                self._complete(state, event.payload)
                return None
            return self._record_failure(state, "corrupt-row", *invalid)
        if event.kind == "error":
            info = event.payload or {}
            return self._record_failure(state, "error",
                                        str(info.get("error_type", "")),
                                        str(info.get("message", "")))
        if event.kind == "crash":
            return self._record_failure(
                state, "crash", "",
                f"worker died without reporting (exit code {event.payload})")
        if event.kind == "timeout":
            return self._record_failure(
                state, "timeout", "",
                f"exceeded {self.task_timeout:.1f}s wall clock")
        raise AssertionError(f"unknown supervision event {event.kind!r}")

    # -- top level -------------------------------------------------------

    def run(self) -> SweepOutcome:
        started = time.monotonic()
        previous_sigint = self._install_sigint()
        try:
            pending = self._prefill()
            if pending:
                self._run_pending(pending)
            if all(s.done for s in self.states.values()):
                # Clean completion: collapse the journal to one snapshot
                # record (replay state and per-key counts preserved), then
                # expire old quarantined rows, and the checkpoints and
                # claims of keys whose rows already landed.
                if self.ledger is not None:
                    self.ledger.compact()
                if self.cache is not None:
                    store_module.collect_garbage(self.cache.directory)
        except KeyboardInterrupt:
            self._on_interrupt()
            raise
        finally:
            if previous_sigint is not None:
                signal.signal(signal.SIGINT, previous_sigint)
            if self.ledger is not None:
                self.ledger.close()
        return self._finalize(started)

    def _run_pending(self, pending: List[str]) -> None:
        if self.checkpoint_dir is not None:
            checkpoint_module.preload_snapshot_layer()
        workers = (default_processes(len(pending))
                   if self.options.processes is None
                   else max(1, self.options.processes))
        if workers <= 1 or len(pending) <= 1:
            executor = InlineExecutor(self.fn, self.fault_plan,
                                      self.checkpoint_dir)
        else:
            executor = Supervisor(
                self.fn, workers=min(workers, len(pending)),
                start_method=self.options.start_method,
                fault_plan=self.fault_plan,
                task_timeout=self.task_timeout,
                checkpoint_dir=self.checkpoint_dir)
        finished = False
        try:
            self._execute(pending, executor)
            finished = True
        finally:
            self.stats.worker_respawns = executor.respawns
            executor.shutdown(kill=not finished)

    def _install_sigint(self) -> Optional[Any]:
        """Route SIGINT through the interrupt event (main thread only).

        The event is what lets a pure-backoff wait end early; the handler
        still raises KeyboardInterrupt so every other blocking point keeps
        its prompt Ctrl-C behavior.
        """
        if threading.current_thread() is not threading.main_thread():
            return None

        def _handler(signum, frame):
            self._interrupted.set()
            raise KeyboardInterrupt

        try:
            return signal.signal(signal.SIGINT, _handler)
        except (ValueError, OSError):
            return None

    def _on_interrupt(self) -> None:
        """Clean Ctrl-C: completed rows are already durable; say how to resume."""
        done = sum(len(s.indices) for s in self.states.values() if s.done)
        total = len(self.param_sets)
        if self.ledger is not None:
            hint = (f"sweep interrupted — {done}/{total} rows journaled; "
                    f"re-run the same command to resume from "
                    f"{self.ledger.path}")
        else:
            hint = (f"sweep interrupted — {done}/{total} rows completed but "
                    "not journaled (set REPRO_SWEEP_CACHE or pass cache_dir "
                    "to make sweeps resumable)")
        print(hint, file=sys.stderr, flush=True)

    def _finalize(self, started: float) -> SweepOutcome:
        stats = self.stats
        stats.duration_seconds = time.monotonic() - started
        if self.cache is not None:
            stats.cache_hits = self.cache.hits
            stats.cache_misses = self.cache.misses
        failures: List[TaskFailure] = []
        rows: List[Dict[str, Any]] = []
        for key in self.order:
            state = self.states[key]
            if state.done and state.row is not None:
                rows.append(state.row)
        for state in self.states.values():
            if state.failure is not None:
                failures.append(state.failure)
                stats.failed_points += len(state.indices)
        stats.completed = len(rows)
        return SweepOutcome(
            rows=rows, failures=failures, stats=stats,
            ledger_path=self.ledger.path if self.ledger is not None else None)


def _merged_options(processes: Optional[int],
                    cache_dir: Optional[os.PathLike],
                    options: Optional[SweepOptions]) -> SweepOptions:
    merged = options if options is not None else SweepOptions()
    if processes is not None:
        merged = replace(merged, processes=processes)
    if cache_dir is not None:
        merged = replace(merged, cache_dir=cache_dir)
    return merged


def run_sweep_outcome(fn: PointFn, param_sets: Sequence[Dict[str, Any]],
                      processes: Optional[int] = None,
                      cache_dir: Optional[os.PathLike] = None,
                      options: Optional[SweepOptions] = None) -> SweepOutcome:
    """Run the sweep; never raises on point failure (graceful degradation)."""
    if not param_sets:
        return SweepOutcome()
    merged = _merged_options(processes, cache_dir, options)
    return _SweepRun(fn, param_sets, merged).run()


def run_sweep(fn: PointFn, param_sets: Sequence[Dict[str, Any]],
              processes: Optional[int] = None,
              cache_dir: Optional[os.PathLike] = None,
              options: Optional[SweepOptions] = None) -> List[Dict[str, Any]]:
    """Run ``fn(**params)`` for every parameter set; returns rows in order.

    ``processes`` defaults to one worker per CPU (serial in-process when the
    machine has a single CPU or only one point, avoiding process overhead).
    ``cache_dir`` overrides the ``REPRO_SWEEP_CACHE`` environment variable.
    ``options`` exposes the full sweep-service surface (retries, timeouts,
    fault injection).

    In strict mode (the default) a point that exhausts its retries raises
    :class:`SweepPointsFailed` carrying the full outcome; with
    ``strict=False`` the completed rows are returned and the failure report
    is printed to stderr.
    """
    merged = _merged_options(processes, cache_dir, options)
    outcome = run_sweep_outcome(fn, param_sets, options=merged)
    if outcome.failures:
        if merged.strict:
            raise SweepPointsFailed(outcome)
        print(outcome.failure_report(), file=sys.stderr, flush=True)
    return outcome.rows


__all__ = ["SweepOptions", "default_processes", "run_sweep",
           "run_sweep_outcome"]
