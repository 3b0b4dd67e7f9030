"""The sweep service: durable, supervised, resumable sweep execution.

:func:`run_sweep` keeps the facade contract every ``experiments/fig*.py``
entry point has always used (rows in parameter order), on top of a very
different execution core:

* every pending point is journaled to the run ledger (``leased`` fsynced
  before dispatch, ``done``/``failed`` after), so a ``kill -9`` of driver
  or worker resumes exactly where it left off — completed rows replay from
  the content-addressed store, interrupted leases count against the retry
  budget, and no point ever executes more than ``1 + max_retries`` times;
* workers are supervised processes (see :mod:`.supervisor`): crashes and
  OOM-kills surface as retryable failures and the worker is respawned,
  hangs are cut by the per-task wall-clock timeout;
* retries back off exponentially with deterministic jitter;
* a sweep whose points exhaust their retries **degrades gracefully**: the
  completed rows come back plus a structured failure report.  Strict mode
  (``strict=True``, the library default, or ``REPRO_SWEEP_STRICT=1``)
  raises :class:`SweepPointsFailed` instead — the mode CI runs in.

Durability requires a directory: the journal lives next to the result
store (``<cache_dir>/ledger/``) whenever caching is on, or under an
explicit ``SweepOptions.ledger_dir``.  Without either, the sweep runs
memory-only exactly as before (still supervised, still retried).
"""

from __future__ import annotations

import hashlib
import heapq
import os
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.sweeprunner import checkpoint as checkpoint_module
from repro.experiments.sweeprunner import ledger as ledger_module
from repro.experiments.sweeprunner import store as store_module
from repro.experiments.sweeprunner.cluster import (
    BUSY,
    EXHAUSTED,
    ClusterOptions,
    FederatedStore,
    Lease,
    ShardCoordinator,
    resolve_host,
)
from repro.experiments.sweeprunner.faults import (
    CORRUPT_MARKER,
    DEFAULT_HANG_TIMEOUT,
    FaultPlan,
    corrupt_row,
)
from repro.experiments.sweeprunner.progress import (
    ProgressReporter,
    resolve_interval,
)
from repro.experiments.sweeprunner.report import (
    SweepOutcome,
    SweepPointsFailed,
    SweepStats,
    TaskFailure,
)
from repro.experiments.sweeprunner.store import SweepCache, default_cache_dir
from repro.experiments.sweeprunner.supervisor import Supervisor
from repro.experiments.sweeprunner.tasks import (
    PointFn,
    SweepTask,
    make_task,
    sweep_id,
)

#: Strict-mode default for library callers; ``REPRO_SWEEP_STRICT`` flips the
#: default for whole processes (CI sets it to 1 explicitly, figure CLIs may
#: set it to 0 for graceful regeneration).
STRICT_ENV = "REPRO_SWEEP_STRICT"


@dataclass(frozen=True)
class SweepOptions:
    """Service knobs beyond the classic (processes, cache_dir) pair."""

    processes: Optional[int] = None
    cache_dir: Optional[os.PathLike] = None
    #: Journal directory; defaults to ``<cache_dir>/ledger`` when caching is
    #: on.  Set ``journal=False`` to run memory-only even with a cache.
    ledger_dir: Optional[os.PathLike] = None
    journal: bool = True
    #: Executions per point are bounded by ``1 + max_retries``.
    max_retries: int = 2
    #: Wall-clock seconds per task execution (supervised mode only; the
    #: serial in-process path cannot preempt a running point).
    task_timeout: Optional[float] = None
    #: Exponential-backoff base delay between retries, seconds.
    retry_backoff: float = 0.25
    #: Fractional jitter on top of the backoff (deterministic per key).
    retry_jitter: float = 0.25
    #: None resolves via REPRO_SWEEP_STRICT, then True.
    strict: Optional[bool] = None
    #: Progress-line interval in seconds; None resolves REPRO_SWEEP_PROGRESS.
    progress: Optional[float] = None
    start_method: Optional[str] = None
    #: None resolves from REPRO_SWEEP_FAULT_RATE / REPRO_SWEEP_FAULT_SEED /
    #: REPRO_SWEEP_FAULT_KINDS.
    fault_plan: Optional[FaultPlan] = None
    #: Directory for mid-point checkpoints of preemptible points (see
    #: :mod:`.checkpoint`); defaults to ``<cache_dir>/checkpoints`` when
    #: caching is on.  An explicit empty string disables checkpointing.
    checkpoint_dir: Optional[os.PathLike] = None
    #: Multi-host sharding (see :mod:`.cluster`); requires a cache
    #: directory, which becomes the shared coordination root.
    cluster: Optional[ClusterOptions] = None
    #: Retention window for quarantined ``*.corrupt`` store files; a GC
    #: pass runs after clean sweep completion (see
    #: :func:`.store.collect_garbage`).  None disables the pass.
    gc_retention: Optional[float] = store_module.DEFAULT_CORRUPT_RETENTION


def default_processes(task_count: int) -> int:
    """Worker count: one per CPU, capped by the number of points."""
    cpus = os.cpu_count() or 1
    return max(1, min(cpus, task_count))


def resolve_strict(explicit: Optional[bool]) -> bool:
    if explicit is not None:
        return bool(explicit)
    raw = os.environ.get(STRICT_ENV, "").strip().lower()
    if raw:
        return raw not in ("0", "false", "no", "off")
    return True


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
    return min(base * (1.0 + options.retry_jitter * unit), 60.0)


class _PointState:
    """Driver-side state of one unique task key."""

    __slots__ = ("key", "task", "indices", "attempts", "row", "done",
                 "failure", "from_cache", "lease_epoch", "resume_credit")

    def __init__(self, key: str, task: SweepTask) -> None:
        self.key = key
        self.task = task
        self.indices: List[int] = []
        self.attempts = 0       # leases used, including prior incarnations
        self.row: Optional[Dict[str, Any]] = None
        self.done = False
        self.failure: Optional[TaskFailure] = None
        self.from_cache = False
        self.lease_epoch = 0    # cluster fencing token of the live lease
        self.resume_credit = 0.0  # checkpoint fraction of the live lease


class _SweepRun:
    """One run_sweep call: owns cache, ledger, scheduler state."""

    def __init__(self, fn: PointFn, param_sets: Sequence[Dict[str, Any]],
                 options: SweepOptions) -> None:
        self.fn = fn
        self.fn_label = getattr(fn, "__qualname__", repr(fn))
        self.options = options
        self.param_sets = [dict(p) for p in param_sets]
        self.tasks = [make_task(fn, p) for p in self.param_sets]
        self.stats = SweepStats(total_points=len(self.tasks))
        self.fault_plan = (options.fault_plan if options.fault_plan is not None
                           else FaultPlan.from_env())
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

        self.cluster = options.cluster
        self.host = (resolve_host(self.cluster.host)
                     if self.cluster is not None else None)
        self.cache = self._open_cache()
        self.coordinator: Optional[ShardCoordinator] = None
        if self.cluster is not None:
            self.coordinator = ShardCoordinator(
                self.cache.root, self.host, self.max_leases,
                self.cluster, fault_plan=self.fault_plan)
        self.ledger = self._open_ledger()
        self.checkpoint_dir = self._resolve_checkpoint_dir()
        self._computed_work = 0.0  # fractional units actually simulated
        self._interrupted = threading.Event()

    # -- durability ------------------------------------------------------

    def _open_cache(self) -> Optional[SweepCache]:
        if self.options.cache_dir is not None:
            # An explicit empty string forces caching off even when the
            # REPRO_SWEEP_CACHE environment variable is set.
            directory = (Path(self.options.cache_dir)
                         if str(self.options.cache_dir) else None)
        else:
            directory = default_cache_dir()
        if directory is None and self.options.ledger_dir is not None \
                and self.options.journal:
            # Journaling without a cache still needs durable rows: the
            # ledger's done records point into this store.
            directory = Path(self.options.ledger_dir) / "store"
        if self.cluster is not None:
            # Sharding coordinates entirely through the cache directory;
            # without one there is nothing for the hosts to share.
            if directory is None:
                raise ValueError(
                    "SweepOptions.cluster requires a cache directory "
                    "(cache_dir, REPRO_SWEEP_CACHE, or ledger_dir)")
            return FederatedStore(directory, self.host,
                                  fsync=self.options.journal)
        if directory is None:
            return None
        try:
            return SweepCache(directory, fsync=self.options.journal)
        except OSError as exc:  # caching is best-effort; never fail the sweep
            print(f"sweep cache disabled ({directory}: {exc})",
                  file=sys.stderr)
            return None

    def _open_ledger(self) -> Optional[ledger_module.RunLedger]:
        if not self.options.journal or not self.states:
            return None
        if self.options.ledger_dir is not None:
            directory = Path(self.options.ledger_dir)
        elif self.cache is not None:
            directory = self.cache.root / "ledger"
        else:
            return None
        path = ledger_module.ledger_path(directory, sweep_id(self.tasks),
                                         host=self.host)
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

    def _resolve_checkpoint_dir(self) -> Optional[Path]:
        if self.options.checkpoint_dir is not None:
            directory = (Path(self.options.checkpoint_dir)
                         if str(self.options.checkpoint_dir) else None)
        elif self.coordinator is not None:
            # Per-host checkpoint shard: steals migrate files between
            # shards, so each host only ever writes its own.
            directory = self.coordinator.checkpoint_dir()
        elif self.cache is not None:
            directory = self.cache.root / "checkpoints"
        else:
            directory = None
        if directory is None:
            return None
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
        """Resolve cache hits and ledger history; return pending keys."""
        pending: List[str] = []
        for key, state in self.states.items():
            if self.cache is not None:
                row = self.cache.load(state.task)
                if row is not None:
                    state.row = row
                    state.done = True
                    state.from_cache = True
                    continue
            if self.ledger is not None and self.coordinator is None:
                record = self.ledger.record(key)
                if record.done:
                    # Journal says done but the store lost the row (eviction,
                    # tampering): recompute with a fresh attempt budget.
                    state.attempts = 0
                else:
                    state.attempts = record.leases
                if state.attempts >= self.max_leases:
                    self._exhaust(state, record)
                    continue
            # Cluster mode replays nothing here: the claim files are the
            # global attempt counter, and a key at its budget may still be
            # completed by the live holder — acquire() decides per poll.
            pending.append(key)
        return pending

    def _exhaust(self, state: _PointState,
                 record: Optional[ledger_module.TaskRecord]) -> None:
        """Mark a point failed-for-good from its (possibly replayed) history."""
        last = record.failures[-1] if record is not None and record.failures \
            else None
        if last is None:
            kind, error_type, message = "crash", "", \
                "lease interrupted by a driver crash"
        else:
            kind = str(last.get("kind", "error"))
            error_type = str(last.get("error_type", ""))
            message = str(last.get("message", ""))
        state.failure = TaskFailure(
            key=state.key, params=dict(state.task.params),
            attempts=state.attempts, kind=kind,
            error_type=error_type, message=message)

    def _record_failure(self, state: _PointState, kind: str,
                        error_type: str, message: str) -> Optional[float]:
        """Journal one failed attempt; return a retry delay or None."""
        state.resume_credit = 0.0
        if self.coordinator is not None \
                and not self.coordinator.still_holds(state.key,
                                                     state.lease_epoch):
            # Fenced: a peer already stole this lease, so the outcome is
            # theirs to decide — record nothing, just poll for their row.
            self.stats.fenced_writes += 1
            return self.cluster.poll_interval
        if kind == "timeout":
            self.stats.timeouts += 1
        elif kind == "crash":
            self.stats.crashes += 1
        elif kind == "corrupt-row":
            self.stats.corrupt_rows += 1
        if self.ledger is not None:
            self.ledger.append_failed(state.key, state.attempts, kind,
                                      error_type, message)
        if self.coordinator is not None:
            # Release the lease: peers may mint the next epoch immediately
            # instead of waiting out the staleness window.
            self.coordinator.mark_failed(state.key, state.attempts, kind,
                                         error_type, message)
        if state.attempts < self.max_leases:
            return _backoff_delay(self.options, state.key, state.attempts)
        state.failure = TaskFailure(
            key=state.key, params=dict(state.task.params),
            attempts=state.attempts, kind=kind,
            error_type=error_type, message=message)
        return None

    def _lease(self, state: _PointState, worker: Any = None,
               lease: Optional[Lease] = None) -> int:
        ckpt = self._checkpoint_path(state.key)
        if lease is not None:
            # Cluster: the minted epoch IS the global attempt number, and
            # the coordinator already decided the provenance (a steal may
            # have migrated a dead host's checkpoint into our shard).
            state.attempts = lease.epoch
            state.lease_epoch = lease.epoch
            provenance = lease.provenance
        else:
            state.attempts += 1
            provenance = ("resume" if ckpt is not None and ckpt.exists()
                          else "fresh")
        state.resume_credit = (
            checkpoint_module.peek_fraction(ckpt)
            if ckpt is not None and provenance in ("resume", "migrated")
            else 0.0)
        self.stats.executed += 1
        if state.attempts > 1:
            self.stats.retries += 1
        if self.ledger is not None:
            self.ledger.append_leased(state.key, state.attempts, worker,
                                      checkpoint=provenance)
        return state.attempts

    def _complete(self, state: _PointState, row: Dict[str, Any]) -> bool:
        """Land a completed row; False when the lease was fenced off."""
        if self.coordinator is not None \
                and not self.coordinator.still_holds(state.key,
                                                     state.lease_epoch):
            # A peer declared us dead (e.g. a netsplit froze our
            # heartbeats) and stole the lease: our row must not land over
            # the newer epoch's outcome.
            self.stats.fenced_writes += 1
            state.resume_credit = 0.0
            return False
        state.row = row
        state.done = True
        self._computed_work += max(1.0 - state.resume_credit, 0.0)
        state.resume_credit = 0.0
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
        return True

    def _peer_done(self, state: _PointState) -> bool:
        """Whether another host's row for this key landed in the store."""
        if self.cache is None:
            return False
        row = self.cache.load(state.task)
        if row is None:
            return False
        state.row = row
        state.done = True
        state.resume_credit = 0.0
        self.stats.peer_rows += 1
        return True

    def _exhaust_cluster(self, state: _PointState) -> None:
        """The cross-host lease budget is spent and the final holder is
        gone (dead, or released after failing): the point is dead sweep-wide.
        The failed-lease marker, when one exists, carries the real error."""
        if self._peer_done(state):  # raced a late completion: not dead
            return
        epoch = self.coordinator.current_epoch(state.key)
        state.attempts = epoch
        info = self.coordinator.failure_info(state.key, epoch) or {}
        state.failure = TaskFailure(
            key=state.key, params=dict(state.task.params), attempts=epoch,
            kind=str(info.get("kind") or "crash"),
            error_type=str(info.get("error_type") or ""),
            message=str(info.get("message") or
                        "lease budget exhausted across hosts"))

    # -- execution paths -------------------------------------------------

    def _run_serial(self, pending: List[str]) -> None:
        """In-process execution: journaled and retried, but not preemptible.

        Faults are simulated as failures (an injected crash must not kill
        the driver it is supposed to be protecting); timeouts cannot be
        enforced without a worker process and are documented as such.
        Retries are immediate — backoff exists to ride out transient
        resource pressure, which in-process execution cannot create.

        Cluster mode turns the queue into a deferred heap: a key someone
        else holds comes back after ``poll_interval``, a failed own attempt
        after its backoff delay (peers can pick it up meanwhile), and the
        loop only ends when every key is done or dead sweep-wide.
        """
        heap: List[Tuple[float, int, str]] = []
        seq = 0

        def defer(key: str, delay: float) -> None:
            nonlocal seq
            seq += 1
            heapq.heappush(heap, (time.monotonic() + delay, seq, key))

        for key in pending:
            defer(key, 0.0)
        poll = self.cluster.poll_interval if self.cluster is not None else 0.0
        while heap:
            due = heap[0][0]
            now = time.monotonic()
            if due > now:
                # Only cluster polling and backoff defer into the future;
                # an Event wait keeps Ctrl-C prompt.
                if self._interrupted.wait(min(due - now, 0.5)):
                    raise KeyboardInterrupt
                continue
            key = heapq.heappop(heap)[2]
            state = self.states[key]
            lease = None
            if self.coordinator is not None:
                if self._peer_done(state):
                    self._tick_progress()
                    continue
                claim = self.coordinator.acquire(key)
                if claim is BUSY:
                    defer(key, poll)
                    continue
                if claim is EXHAUSTED:
                    self._exhaust_cluster(state)
                    self._tick_progress()
                    continue
                lease = claim
            attempt = self._lease(state, lease=lease)
            fault = (self.fault_plan.decide(key, attempt)
                     if self.fault_plan is not None else None)
            netsplit = fault == "netsplit" and self.coordinator is not None
            if netsplit:
                # The host keeps computing but goes silent to its peers —
                # the lease becomes stealable mid-execution, and the late
                # completion must die on the fencing check.
                self.coordinator.suppress_heartbeats()
            kind = error_type = message = ""
            try:
                if fault in ("crash", "die"):
                    # A die cannot kill the in-process driver; both report
                    # as the crash they would have been.
                    kind, message = "crash", f"injected {fault} (serial path)"
                elif fault == "hang":
                    kind, message = "timeout", "injected hang (serial path)"
                else:
                    slot = None
                    if self.checkpoint_dir is not None:
                        slot = checkpoint_module.CheckpointSlot(
                            self.checkpoint_dir, key, attempt)
                        checkpoint_module.activate(slot)
                    try:
                        row = self.fn(**state.task.params)
                        if fault == "corrupt":
                            row = corrupt_row(row)
                        invalid = _validate_row(self.fn_label, row)
                        if invalid is None:
                            if self._complete(state, row):
                                self._tick_progress()
                            else:
                                defer(key, poll)  # fenced: thief owns it now
                            continue
                        kind, (error_type, message) = "corrupt-row", invalid
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        kind = "error"
                        error_type, message = type(exc).__name__, str(exc)
                    finally:
                        if slot is not None:
                            checkpoint_module.deactivate()
            finally:
                if netsplit:
                    self.coordinator.resume_heartbeats()
            delay = self._record_failure(state, kind, error_type, message)
            if delay is not None:
                # Classic serial retries stay immediate; cluster retries
                # honor the delay so peers get a fair shot at the steal.
                defer(key, delay if self.coordinator is not None else 0.0)
            self._tick_progress()

    def _run_supervised(self, pending: List[str], workers: int) -> None:
        supervisor = Supervisor(
            self.fn, workers=workers,
            start_method=self.options.start_method,
            fault_plan=self.fault_plan,
            task_timeout=self.task_timeout,
            checkpoint_dir=self.checkpoint_dir)
        try:
            ready = deque(pending)
            retry_heap: List[Tuple[float, int, str]] = []
            retry_seq = 0
            in_flight = 0
            netsplit_keys: set = set()
            poll_delay = (self.cluster.poll_interval
                          if self.cluster is not None else 0.0)

            def requeue(key: str, delay: float) -> None:
                nonlocal retry_seq
                retry_seq += 1
                heapq.heappush(retry_heap,
                               (time.monotonic() + delay, retry_seq, key))

            while ready or retry_heap or in_flight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    ready.append(heapq.heappop(retry_heap)[2])
                while ready and supervisor.idle_count() > 0:
                    key = ready.popleft()
                    state = self.states[key]
                    if self.coordinator is not None:
                        if self._peer_done(state):
                            continue
                        claim = self.coordinator.acquire(key)
                        if claim is BUSY:
                            requeue(key, poll_delay)
                            continue
                        if claim is EXHAUSTED:
                            self._exhaust_cluster(state)
                            continue
                        attempt = self._lease(state, lease=claim)
                    else:
                        attempt = self._lease(state)
                    if self.coordinator is not None \
                            and self.fault_plan is not None \
                            and self.fault_plan.decide(key, attempt) \
                            == "netsplit":
                        # The worker runs the point normally (unknown kinds
                        # are clean runs); the *driver* goes silent so the
                        # lease is stealable while the work is in flight.
                        self.coordinator.suppress_heartbeats()
                        netsplit_keys.add(key)
                    supervisor.submit(state.indices[0], key, attempt,
                                      state.task.params)
                    in_flight += 1
                if not (ready or retry_heap or in_flight):
                    break
                if not ready and retry_heap and not in_flight:
                    # Pure backoff: nothing is running, we are only waiting
                    # out a retry delay.  An Event wait (not a sleep) makes
                    # Ctrl-C cut it short instead of riding it out.
                    delay = max(retry_heap[0][0] - time.monotonic(), 0.0)
                    if delay > 0 and self._interrupted.wait(min(delay, 0.5)):
                        raise KeyboardInterrupt
                    continue
                for event in supervisor.poll(timeout=0.05):
                    in_flight -= 1
                    key = event.assignment.key
                    if key in netsplit_keys:
                        netsplit_keys.discard(key)
                        self.coordinator.resume_heartbeats()
                    state = self.states[key]
                    delay = self._handle_event(state, event)
                    if delay is not None:
                        requeue(state.key, delay)
                self._tick_progress(leased=in_flight)
            self.stats.worker_respawns = supervisor.respawns
        except BaseException:
            self.stats.worker_respawns = supervisor.respawns
            supervisor.shutdown(kill=True)
            raise
        supervisor.shutdown()

    def _handle_event(self, state: _PointState, event) -> Optional[float]:
        """Returns a retry delay when the attempt failed but may run again."""
        if event.kind == "row":
            invalid = _validate_row(self.fn_label, event.payload)
            if invalid is None:
                if self._complete(state, event.payload):
                    return None
                # Fenced completion: the thief owns the outcome; poll for
                # its row (or our next shot at the lease).
                return (self.cluster.poll_interval
                        if self.cluster is not None else 0.0)
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

    # -- progress --------------------------------------------------------

    def _tick_progress(self, leased: int = 0) -> None:
        if self.progress is None:
            return
        done = sum(len(s.indices) for s in self.states.values() if s.done)
        failed = sum(len(s.indices) for s in self.states.values()
                     if s.failure is not None)
        hits = self.cache.hits if self.cache is not None else 0
        credit = sum(s.resume_credit for s in self.states.values()
                     if not s.done and s.failure is None)
        self.progress.maybe_report(done, leased, failed, hits,
                                   computed_work=self._computed_work,
                                   in_flight_credit=credit)

    # -- top level -------------------------------------------------------

    def run(self) -> SweepOutcome:
        started = time.monotonic()
        interval = resolve_interval(self.options.progress)
        self.progress = (ProgressReporter(len(self.param_sets), interval)
                         if interval is not None else None)
        previous_sigint = self._install_sigint()
        if self.coordinator is not None:
            self.coordinator.start()
        try:
            pending = self._prefill()
            if pending:
                if self.checkpoint_dir is not None:
                    checkpoint_module.preload_snapshot_layer()
                workers = (default_processes(len(pending))
                           if self.options.processes is None
                           else max(1, self.options.processes))
                if workers <= 1 or len(pending) <= 1:
                    self._run_serial(pending)
                else:
                    self._run_supervised(pending, min(workers, len(pending)))
            if self.ledger is not None and self.coordinator is None \
                    and all(s.done for s in self.states.values()):
                # Clean completion: collapse the journal to one snapshot
                # record (replay state preserved; history dropped).  Cluster
                # ledgers are left verbatim: the shard audit merges every
                # host's event history, including keys peers completed.
                self.ledger.compact()
            if self.cache is not None \
                    and self.options.gc_retention is not None \
                    and all(s.done for s in self.states.values()):
                # Retention pass: expire old quarantined *.corrupt files
                # and checkpoints whose rows already landed (any shard).
                store_module.collect_garbage(
                    self.cache.root,
                    corrupt_retention=self.options.gc_retention)
        except KeyboardInterrupt:
            self._on_interrupt()
            raise
        finally:
            if self.coordinator is not None:
                self.coordinator.stop()
            if previous_sigint is not None:
                signal.signal(signal.SIGINT, previous_sigint)
            if self.ledger is not None:
                self.ledger.close()
        return self._finalize(started)

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
        if self.coordinator is not None:
            stats.steals = self.coordinator.steals
            stats.migrated_resumes = self.coordinator.migrations
        if self.progress is not None:
            self.progress.final(stats.completed, stats.failed_points,
                                stats.cache_hits,
                                computed_work=self._computed_work)
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
    journaling, fault injection, progress).

    In strict mode (the default) a point that exhausts its retries raises
    :class:`SweepPointsFailed` carrying the full outcome; with
    ``strict=False`` (or ``REPRO_SWEEP_STRICT=0``) the completed rows are
    returned and the failure report is printed to stderr.
    """
    merged = _merged_options(processes, cache_dir, options)
    outcome = run_sweep_outcome(fn, param_sets, options=merged)
    if outcome.failures:
        if resolve_strict(merged.strict):
            raise SweepPointsFailed(outcome)
        print(outcome.failure_report(), file=sys.stderr, flush=True)
    return outcome.rows


__all__ = ["STRICT_ENV", "SweepOptions", "default_processes",
           "resolve_strict", "run_sweep", "run_sweep_outcome"]
