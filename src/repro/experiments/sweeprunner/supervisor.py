"""Worker-process supervision: async submit, crash detection, respawn.

This replaces ``multiprocessing.Pool.map``, whose all-or-nothing contract
is exactly what the sweep service must not have: one worker segfault or
OOM-kill aborts the whole map and discards every in-flight row.  Here each
worker is a bare ``Process`` with its own inbox; the driver submits tasks
asynchronously and collects :class:`TaskEvent` s:

* ``row`` / ``error`` — the worker reported a result (or a caught
  exception) through the shared outbox.
* ``crash`` — the worker died without reporting (segfault, OOM-kill,
  injected ``os._exit``): detected by liveness-checking workers that hold
  an assignment, the sentinel being the *absence* of a result from a dead
  process.  The worker is respawned; the task is the scheduler's to retry.
* ``timeout`` — the assignment outlived its wall-clock deadline; the
  worker is killed (SIGKILL — a hung worker won't honor anything gentler)
  and respawned.

Stale results are fenced by per-assignment tickets: a worker that beats
its own SIGKILL by a microsecond cannot resurrect an assignment the
supervisor already wrote off.  Workers ignore SIGINT (the driver owns
interrupt handling) and self-exit when their driver disappears, so a
``kill -9`` of the driver leaks no processes.

:class:`InlineExecutor` has the same ``idle_count``/``submit``/``poll``
surface for a single slot in the driver process, so the service runs
serial and supervised sweeps through one loop.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from multiprocessing import get_context

from repro.experiments.sweeprunner import checkpoint as checkpoint_module
from repro.experiments.sweeprunner.faults import (
    CRASH_EXIT_CODE,
    FAULT_OUTCOMES,
    FaultPlan,
    corrupt_row,
    hang_forever,
)

#: Seconds an idle worker waits on its inbox before re-checking that its
#: driver is still alive (orphan self-exit after a driver ``kill -9``).
_ORPHAN_POLL = 1.0

#: Pool-size variables of the BLAS / OpenMP runtimes numpy may load.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def default_start_method() -> str:
    """``fork`` shares the already-imported simulator with the workers;
    platforms without it fall back to ``spawn``."""
    return "fork" if sys.platform != "win32" else "spawn"


@dataclass
class Assignment:
    """One task execution leased to one worker."""

    ticket: int
    index: int
    key: str
    attempt: int
    params: Dict[str, Any]
    deadline: Optional[float]  # time.monotonic() cutoff, None = no timeout


@dataclass
class TaskEvent:
    """One supervision outcome, handed back to the scheduler."""

    kind: str  # row | error | crash | timeout
    assignment: Assignment
    payload: Any = None


def _describe_error(exc: BaseException) -> Dict[str, str]:
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(limit=20),
    }


def _claim_thread_share(workers: int) -> None:
    """Default this worker's BLAS pools to its share of the CPUs.

    ``workers`` processes that each start a ``cpu_count``-thread pool
    oversubscribe the box (fig15 on 2 cores: 8-14 s against 3 s).  The pool
    size is read when the library loads, so this only reaches a point
    function that imports numpy after the worker started, and a value the
    user set wins.
    """
    share = str(max(1, (os.cpu_count() or 1) // workers))
    for name in _THREAD_ENV:
        os.environ.setdefault(name, share)


def _worker_main(worker_id, fn, inbox, outbox, fault_plan, parent_pid,
                 checkpoint_dir, workers):
    """Worker loop: lease → (maybe fault) → run → report.

    Runs in a child process.  Fault decisions replay the deterministic
    plan, so a resumed driver and a spawned worker agree with the inline
    executor on exactly which (key, attempt) executions misbehave.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _claim_thread_share(workers)
    if checkpoint_dir is not None:
        # A forked worker inherits the driver's preload; a spawned one
        # loads the layer here, before its first point.
        checkpoint_module.preload_snapshot_layer()
    while True:
        try:
            message = inbox.get(timeout=_ORPHAN_POLL)
        except queue_module.Empty:
            if os.getppid() != parent_pid:
                os._exit(0)
            continue
        if message is None:
            return
        ticket, index, key, attempt, params = message
        fault = fault_plan.decide(key, attempt) if fault_plan else None
        outcome = FAULT_OUTCOMES.get(fault)
        if outcome == "timeout":
            hang_forever(parent_pid)
        if outcome == "crash" and (fault == "crash" or checkpoint_dir is None):
            os._exit(CRASH_EXIT_CODE)  # without checkpointing a die is a crash
        slot = None
        if checkpoint_dir is not None:
            slot = checkpoint_module.CheckpointSlot(checkpoint_dir, key,
                                                    attempt)
            if fault == "die":
                slot.arm_die()
            checkpoint_module.activate(slot)
        try:
            row = fn(**params)
            if slot is not None:
                checkpoint_module.deactivate()
            if fault == "die":
                # The point never checkpointed (armed saves would have
                # exited already); die at completion so the fault still
                # costs this attempt.
                os._exit(CRASH_EXIT_CODE)
            if outcome == "corrupt-row":
                row = corrupt_row(row)
            # The queue's feeder thread pickles asynchronously — an
            # unpicklable row would vanish there and hang the assignment,
            # so probe here where the failure is attributable.
            pickle.dumps(row)
            outbox.put((worker_id, ticket, "row", row))
        except KeyboardInterrupt:
            return
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            if slot is not None:
                checkpoint_module.deactivate()
            try:
                outbox.put((worker_id, ticket, "error", _describe_error(exc)))
            except Exception:
                os._exit(1)


class _WorkerHandle:
    def __init__(self, ctx, worker_id: int, fn, outbox, fault_plan,
                 checkpoint_dir, workers: int) -> None:
        self.worker_id = worker_id
        self.inbox = ctx.Queue()
        self.assignment: Optional[Assignment] = None
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, fn, self.inbox, outbox, fault_plan, os.getpid(),
                  checkpoint_dir, workers),
            daemon=True,
        )
        self.process.start()

    def submit(self, assignment: Assignment) -> None:
        self.assignment = assignment
        self.inbox.put((assignment.ticket, assignment.index, assignment.key,
                        assignment.attempt, assignment.params))

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):
            try:
                self.process.terminate()
            except OSError:
                pass
        self.process.join(timeout=5.0)

    def stop(self, join_timeout: float = 2.0) -> None:
        try:
            self.inbox.put(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=join_timeout)
        if self.process.is_alive():
            self.kill()


class Supervisor:
    """Owns the worker fleet; turns process-level mishaps into TaskEvents."""

    def __init__(self, fn, workers: int,
                 start_method: Optional[str] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 task_timeout: Optional[float] = None,
                 checkpoint_dir=None) -> None:
        self._ctx = get_context(start_method or default_start_method())
        self._fn = fn
        self._fault_plan = fault_plan
        self._checkpoint_dir = checkpoint_dir
        self.task_timeout = task_timeout
        self.outbox = self._ctx.Queue()
        self.respawns = 0
        self._next_ticket = 0
        self._live_tickets: Dict[int, _WorkerHandle] = {}
        self._workers = max(1, workers)
        self._handles: List[_WorkerHandle] = [
            _WorkerHandle(self._ctx, i, fn, self.outbox, fault_plan,
                          checkpoint_dir, self._workers)
            for i in range(self._workers)
        ]

    # -- submission ------------------------------------------------------

    def idle_count(self) -> int:
        return sum(1 for h in self._handles if h.assignment is None)

    def submit(self, index: int, key: str, attempt: int,
               params: Dict[str, Any]) -> int:
        """Lease one task to an idle worker; returns the worker id."""
        handle = next(h for h in self._handles if h.assignment is None)
        self._next_ticket += 1
        deadline = (time.monotonic() + self.task_timeout
                    if self.task_timeout else None)
        assignment = Assignment(ticket=self._next_ticket, index=index,
                                key=key, attempt=attempt, params=params,
                                deadline=deadline)
        self._live_tickets[assignment.ticket] = handle
        handle.submit(assignment)
        return handle.worker_id

    # -- event collection ------------------------------------------------

    def poll(self, timeout: float = 0.05) -> List[TaskEvent]:
        """Drain results, then sweep liveness and deadlines."""
        events: List[TaskEvent] = []
        deadline_wait = timeout
        now = time.monotonic()
        for handle in self._handles:
            a = handle.assignment
            if a is not None and a.deadline is not None:
                deadline_wait = min(deadline_wait, max(a.deadline - now, 0.0))
        try:
            first = self.outbox.get(timeout=max(deadline_wait, 0.001))
            events.extend(self._accept(first))
        except queue_module.Empty:
            pass
        while True:
            try:
                events.extend(self._accept(self.outbox.get_nowait()))
            except queue_module.Empty:
                break
        events.extend(self._sweep_processes())
        return events

    def _accept(self, message) -> List[TaskEvent]:
        worker_id, ticket, kind, payload = message
        handle = self._live_tickets.pop(ticket, None)
        if handle is None or handle.assignment is None \
                or handle.assignment.ticket != ticket:
            return []  # stale: the assignment was already written off
        assignment = handle.assignment
        handle.assignment = None
        return [TaskEvent(kind=kind, assignment=assignment, payload=payload)]

    def _sweep_processes(self) -> List[TaskEvent]:
        events: List[TaskEvent] = []
        now = time.monotonic()
        for slot, handle in enumerate(self._handles):
            assignment = handle.assignment
            if assignment is not None and assignment.deadline is not None \
                    and now > assignment.deadline:
                self._live_tickets.pop(assignment.ticket, None)
                handle.assignment = None
                handle.kill()
                events.append(TaskEvent("timeout", assignment))
                self._respawn(slot)
                continue
            if not handle.process.is_alive():
                if assignment is not None:
                    # Died holding a lease and never reported: the crash
                    # sentinel is this missing result.
                    self._live_tickets.pop(assignment.ticket, None)
                    handle.assignment = None
                    events.append(TaskEvent("crash", assignment,
                                            handle.process.exitcode))
                self._respawn(slot)
        return events

    def _respawn(self, slot: int) -> None:
        self.respawns += 1
        self._handles[slot] = _WorkerHandle(
            self._ctx, self._handles[slot].worker_id, self._fn,
            self.outbox, self._fault_plan, self._checkpoint_dir,
            self._workers)

    # -- shutdown --------------------------------------------------------

    def shutdown(self, kill: bool = False) -> None:
        for handle in self._handles:
            if kill or handle.assignment is not None:
                handle.kill()
            else:
                handle.stop()
        self._live_tickets.clear()
        try:
            self.outbox.close()
            self.outbox.cancel_join_thread()
        except (OSError, ValueError):
            pass


class InlineExecutor:
    """The one-slot executor that runs each point in the driver process.

    ``submit`` runs the point with its checkpoint slot armed and ``poll``
    hands back the :class:`TaskEvent` a worker would have reported, so the
    service drives it with the same loop as a :class:`Supervisor`.  No
    injected fault may kill or hang the driver: a crash, die or hang is
    reported as the event it would have caused (see
    :data:`.faults.FAULT_OUTCOMES`), without running the point.  Nothing
    here can preempt a running point, so ``task_timeout`` does not apply.
    """

    respawns = 0

    def __init__(self, fn, fault_plan: Optional[FaultPlan] = None,
                 checkpoint_dir=None) -> None:
        self._fn = fn
        self._fault_plan = fault_plan
        self._checkpoint_dir = checkpoint_dir
        self._events: List[TaskEvent] = []

    def idle_count(self) -> int:
        return 0 if self._events else 1

    def submit(self, index: int, key: str, attempt: int,
               params: Dict[str, Any]) -> int:
        assignment = Assignment(ticket=0, index=index, key=key,
                                attempt=attempt, params=params,
                                deadline=None)
        fault = (self._fault_plan.decide(key, attempt)
                 if self._fault_plan is not None else None)
        outcome = FAULT_OUTCOMES.get(fault)
        if outcome in ("crash", "timeout"):
            self._events.append(TaskEvent(outcome, assignment,
                                          CRASH_EXIT_CODE))
            return 0
        if self._checkpoint_dir is not None:
            checkpoint_module.activate(checkpoint_module.CheckpointSlot(
                self._checkpoint_dir, key, attempt))
        try:
            row = self._fn(**params)
            if outcome == "corrupt-row":
                row = corrupt_row(row)
            event = TaskEvent("row", assignment, row)
        except Exception as exc:  # noqa: BLE001 - report, like a worker
            event = TaskEvent("error", assignment, _describe_error(exc))
        finally:
            checkpoint_module.deactivate()
        self._events.append(event)
        return 0

    def poll(self, timeout: float = 0.05) -> List[TaskEvent]:
        events, self._events = self._events, []
        return events

    def shutdown(self, kill: bool = False) -> None:
        pass


__all__ = ["Assignment", "InlineExecutor", "Supervisor", "TaskEvent",
           "default_start_method"]
