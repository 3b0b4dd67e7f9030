"""Content-addressed result store: one JSON file per sweep row.

The store is addressed by :meth:`SweepTask.cache_key`, so it doubles as the
sweep cache (unchanged parameters replay instantly) and as the durable row
storage ledger done-records point into (a ``done`` ledger record means "the
row for this key is in the store").

Load validation happens **before** the hit counter: an entry that is not a
``{"row": {...}}`` object — a ``{"row": null}`` left by an old bug, a
truncated write, a hand-edited file — is a miss, and the offending file is
quarantined (renamed to ``*.corrupt``, deleted if the rename fails) so it
cannot fail every future load of the same key.

:func:`collect_garbage` is the retention side of the same discipline:
quarantined ``*.corrupt`` files are kept for a forensics window and then
deleted, and orphaned ``.ckpt`` checkpoint files and ``claims/`` epoch
files whose rows already landed in the store are deleted immediately —
all of them previously accumulated forever in long-lived cache
directories.  A torn entry fails validation and is recomputed, never
served.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.sweeprunner.tasks import CACHE_ENV_VAR, SweepTask

#: Per-process temp-name ticket: two writers of the same key must never
#: share a temp file (a shared name lets writer A replace writer B's
#: half-written temp mid-write, landing a torn entry in the store).
_temp_tickets = itertools.count()

#: How long quarantined ``*.corrupt`` files are kept for inspection before
#: :func:`collect_garbage` removes them.
DEFAULT_CORRUPT_RETENTION = 7 * 86400.0


class SweepCache:
    """JSON-file store of sweep rows, keyed by task fingerprint."""

    def __init__(self, directory: Path, fsync: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def _path(self, task: SweepTask) -> Path:
        return self.directory / f"{task.cache_key()}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry out of the key namespace (delete as fallback)."""
        self.quarantined += 1
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _read(self, path: Path) -> Optional[Dict[str, Any]]:
        """The validated row at ``path``, or None (missing entries are
        silent; corrupt ones are quarantined)."""
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)
            return None
        row = entry.get("row") if isinstance(entry, dict) else None
        if not isinstance(row, dict):
            self._quarantine(path)
            return None
        return row

    def load(self, task: SweepTask) -> Optional[Dict[str, Any]]:
        row = self._read(self._path(task))
        if row is None:
            self.misses += 1
            return None
        self.hits += 1
        return row

    def store(self, task: SweepTask, row: Dict[str, Any]) -> bool:
        path = self._path(task)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_temp_tickets)}.tmp")
        entry = {
            "module": task.module,
            "qualname": task.qualname,
            "params": task.params,
            "environment": task.environment,
            "code": task.code,
            "row": row,
        }
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                json.dump(entry, handle, default=str)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            tmp.replace(path)
            return True
        except OSError:  # caching is best-effort; never fail the sweep
            tmp.unlink(missing_ok=True)
            return False


def collect_garbage(root: Path,
                    corrupt_retention: float = DEFAULT_CORRUPT_RETENTION,
                    now: Optional[float] = None) -> Dict[str, int]:
    """Retention sweep over a cache directory; returns removal counts.

    * ``*.corrupt`` quarantine files older than ``corrupt_retention``
      seconds are deleted.
    * Orphaned ``checkpoints/*.ckpt`` files and ``claims/*.epoch-<N>``
      files whose row already landed in the store are deleted — the row
      is durable, so the resume file and the attempt count are dead
      weight; those of a key whose row has *not* landed are live recovery
      state and are always kept.

    Purely best-effort: every failure is skipped, never raised, and a
    concurrent sweep deleting the same file is harmless.
    """
    root = Path(root)
    now = time.time() if now is None else now
    removed = {"corrupt": 0, "checkpoints": 0, "claims": 0}
    try:
        for path in root.glob("*.corrupt"):
            try:
                if now - path.stat().st_mtime > corrupt_retention:
                    path.unlink()
                    removed["corrupt"] += 1
            except OSError:
                continue
        for kind, pattern in (("checkpoints", "*.ckpt"),
                              ("claims", "*.epoch-*")):
            for path in (root / kind).glob(pattern):
                try:
                    if (root / f"{path.name.split('.')[0]}.json").exists():
                        path.unlink()
                        removed[kind] += 1
                except OSError:
                    continue
    except OSError:
        pass
    return removed


def default_cache_dir() -> Optional[Path]:
    """The cache directory from the environment, or None when disabled."""
    value = os.environ.get(CACHE_ENV_VAR)
    if not value:
        return None
    return Path(value)
