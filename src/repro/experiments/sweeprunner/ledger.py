"""Append-only JSONL run ledger: the sweep's durable state machine.

One ledger file per sweep identity (``ledger/sweep-<id>.jsonl``, see
:func:`tasks.sweep_id`), holding one JSON object per line.  The
task-level state machine is::

    queued -> leased -> done
                  \\-> failed -> (leased again, while attempts remain)
                          \\-> exhausted (attempts == 1 + max_retries)

* ``queued`` records are written once, when the ledger is created, and
  carry the sweep metadata (total points, point function).
* ``leased`` is appended **and fsynced before** the task is handed to a
  worker, right after the epoch claim that counts the attempt (see
  :mod:`.claims`): the journal shows every execution, including one a
  ``kill -9`` of driver or worker interrupted.
* ``done`` is appended (and fsynced) after the row has been written to the
  content-addressed store — the record points into the store by key, it
  does not carry the row.
* ``failed`` records carry the failure kind (``crash``, ``timeout``,
  ``error``, ``corrupt-row``) and a short error description for the
  failure report.

Replay is tolerant of a torn final line (the driver can die mid-append);
any line that does not parse is counted and skipped.  :func:`replay` is
the one reader of a journal's events: :class:`RunLedger` rebuilds its
state with it, and so do :func:`lease_counts` and the read-only ``status``
command (see :mod:`.__main__`).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass
class TaskRecord:
    """Replay state of one task key."""

    leases: int = 0
    done: bool = False
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: Leases that resumed from a mid-point checkpoint (see .checkpoint).
    resumed: int = 0

    def count_lease(self, checkpoint: Any) -> None:
        self.leases += 1
        if checkpoint == "resume":
            self.resumed += 1


class RunLedger:
    """Append-only journal for one sweep; safe to reopen after any crash."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        events, self.torn_lines = read_events(self.path)
        self._records = replay(events)
        self._handle = self.path.open("a", encoding="utf-8")

    @property
    def resumed(self) -> bool:
        """Whether the ledger held prior state when this driver opened it."""
        return any(r.leases or r.done for r in self._records.values())

    def record(self, key: str) -> TaskRecord:
        return self._records.setdefault(key, TaskRecord())

    # -- appends ---------------------------------------------------------

    def _append(self, event: Dict[str, Any], sync: bool = True) -> None:
        self._handle.write(json.dumps(event, default=str) + "\n")
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def append_queued(self, keys: Iterable[str], meta: Dict[str, Any]) -> None:
        """Journal the work plan (once, for a fresh ledger): one line per key."""
        keys = list(keys)
        for key in keys:
            self._append({"event": "queued", "key": key, **meta}, sync=False)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_leased(self, key: str, attempt: int,
                      checkpoint: str = "fresh") -> None:
        """Journal a lease; ``checkpoint`` records the execution's provenance:
        ``"fresh"`` (from cycle zero) or ``"resume"`` (from a checkpoint left
        by an earlier, interrupted attempt)."""
        self.record(key).count_lease(checkpoint)
        self._append({"event": "leased", "key": key, "attempt": attempt,
                      "checkpoint": checkpoint, "t": time.time()})

    def append_done(self, key: str, attempt: int) -> None:
        self.record(key).done = True
        self._append({"event": "done", "key": key, "attempt": attempt,
                      "t": time.time()})

    def append_failed(self, key: str, attempt: int, kind: str,
                      error_type: str = "", message: str = "") -> None:
        self.record(key).failures.append({
            "attempt": attempt, "kind": kind,
            "error_type": error_type, "message": message,
        })
        self._append({"event": "failed", "key": key, "attempt": attempt,
                      "kind": kind, "error_type": error_type,
                      "message": message[:500], "t": time.time()})

    def compact(self) -> bool:
        """Collapse the journal into a single snapshot record.

        Safe only when no lease is outstanding — i.e. after the run loop has
        drained — so it is called at clean sweep completion.  The replay
        state (leases, done flags, failure history) is preserved exactly;
        only the event-by-event history is dropped.  The old journal is kept
        as ``<name>.bak`` until the compacted file is durably in place, then
        removed best-effort.  Returns False (journal untouched) on any I/O
        error.
        """
        snapshot = {"event": "snapshot", "t": time.time(),
                    "tasks": {key: {"leases": record.leases,
                                    "done": record.done,
                                    "failures": record.failures,
                                    "resumed": record.resumed}
                              for key, record in self._records.items()}}
        tmp = self.path.with_name(
            f"{self.path.name}.{os.getpid()}.compact.tmp")
        backup = self.path.with_name(self.path.name + ".bak")
        moved_aside = False
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                handle.write(json.dumps(snapshot, default=str) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(self.path, backup)
            moved_aside = True
            os.replace(tmp, self.path)
        except OSError:
            if moved_aside:
                # Put the original journal back so no state is lost.
                try:
                    os.replace(backup, self.path)
                except OSError:
                    pass
            try:
                tmp.unlink()
            except OSError:
                pass
            self._handle = self.path.open("a", encoding="utf-8")
            return False
        self._handle = self.path.open("a", encoding="utf-8")
        try:
            backup.unlink()
        except OSError:
            pass
        return True

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass


def ledger_path(directory: Path, sweep_identity: str) -> Path:
    """The journal file of one sweep."""
    return Path(directory) / f"sweep-{sweep_identity}.jsonl"


def read_events(path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """The JSON-object lines of a ledger file, plus the count of lines that
    did not parse (a torn final append); a missing file has none."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError:
        return [], 0
    events: List[Dict[str, Any]] = []
    torn = 0
    for line in lines:
        try:
            event = json.loads(line)
        except ValueError:
            event = None
        if isinstance(event, dict):
            events.append(event)
        else:
            torn += 1
    return events, torn


def replay(events: Iterable[Dict[str, Any]]) -> Dict[str, TaskRecord]:
    """Per-key replay state of a journal's events (see :func:`read_events`)."""
    records: Dict[str, TaskRecord] = {}
    for event in events:
        kind = event.get("event")
        if kind == "snapshot":
            # A compacted journal: one record carrying the replay state of
            # every key (see :meth:`RunLedger.compact`).
            tasks = event.get("tasks")
            for key, state in (tasks.items() if isinstance(tasks, dict)
                               else ()):
                records[key] = TaskRecord(
                    leases=int(state.get("leases", 0)),
                    done=bool(state.get("done", False)),
                    failures=list(state.get("failures", [])),
                    resumed=int(state.get("resumed", 0)))
            continue
        key = event.get("key")
        if not key or kind not in ("queued", "leased", "done", "failed"):
            continue
        record = records.setdefault(key, TaskRecord())
        if kind == "leased":
            record.count_lease(event.get("checkpoint"))
        elif kind == "done":
            record.done = True
        elif kind == "failed":
            record.failures.append({
                "attempt": event.get("attempt"),
                "kind": event.get("kind", "error"),
                "error_type": event.get("error_type", ""),
                "message": event.get("message", ""),
            })
    return records


def lease_counts(path: Path, provenance: Optional[str] = None
                 ) -> Dict[str, int]:
    """Leases per key, read straight from a ledger file (snapshot-aware).

    With ``provenance="resume"`` only leases that resumed from a checkpoint
    count.  Tests and the sweep proofs assert the retry bound (no key
    leased more than ``1 + max_retries`` times) and the resume evidence
    with it, before and after compaction.
    """
    field = {None: "leases", "resume": "resumed"}[provenance]
    counts = {key: getattr(record, field)
              for key, record in replay(read_events(path)[0]).items()}
    return {key: count for key, count in counts.items() if count}


def count_events(path: Path, kind: str) -> int:
    """Number of ``kind`` events in a ledger file (tolerant of torn lines)."""
    return sum(1 for event in read_events(path)[0]
               if event.get("event") == kind)


__all__ = ["RunLedger", "TaskRecord", "count_events", "lease_counts",
           "ledger_path", "read_events", "replay"]
