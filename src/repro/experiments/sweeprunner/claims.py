"""Epoch claims: the attempt counter and fencing token of a sweep directory.

Claiming attempt N of a key means creating ``claims/<key>.epoch-<N>``
with ``O_CREAT|O_EXCL``.  Epochs only grow and are never removed while
their row is missing, so they count every execution of a key across
driver incarnations: no key runs more than ``1 + max_retries`` times,
because no epoch past that budget is ever minted.

The contract is **one live driver per sweep directory**.  Every claim a
driver finds was therefore left by a dead predecessor (a driver that was
``kill -9``'d, or whose machine went down): its attempt is spent, and the
key is re-claimed under the next epoch.  A second live driver breaks the
contract, and this module makes that loud rather than silent: losing the
``O_EXCL`` race for an epoch, or finding a newer epoch than one's own, or
one's own epoch gone, before a done/failed/store write (the fencing check,
:meth:`Claims.check_holds`), means another driver is at work, and the
sweep raises :class:`ConcurrentDriverError` naming the directory.

A sweep with no directory counts its epochs in memory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional


class ConcurrentDriverError(RuntimeError):
    """Another live driver is working on the same sweep directory."""

    def __init__(self, directory: Path, key: str, epoch: int) -> None:
        super().__init__(
            f"another driver claimed epoch {epoch} of {key[:12]} in "
            f"{directory}: run one driver per sweep directory")


class Claims:
    """The epoch files under ``directory`` (None: epochs in memory)."""

    def __init__(self, directory: Optional[Path], max_leases: int) -> None:
        self.directory = directory
        self.max_leases = max(1, max_leases)
        self._epochs: Dict[str, int] = {}
        if directory is not None:
            directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str, epoch: int) -> Path:
        return self.directory / f"{key}.epoch-{epoch}"

    def current_epoch(self, key: str) -> int:
        """Highest minted epoch for ``key`` (0 = never claimed).  Probing
        upward from the cached value is exact: epochs only grow."""
        epoch = self._epochs.get(key, 0)
        if self.directory is not None:
            while self._path(key, epoch + 1).exists():
                epoch += 1
        self._epochs[key] = epoch
        return epoch

    def acquire(self, key: str) -> Optional[int]:
        """Claim the next epoch of ``key``; None once the budget is spent."""
        epoch = self.current_epoch(key) + 1
        if epoch > self.max_leases:
            return None
        if self.directory is not None:
            try:
                fd = os.open(self._path(key, epoch),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                raise ConcurrentDriverError(self.directory, key,
                                            epoch) from None
            try:
                os.write(fd, json.dumps({"pid": os.getpid(),
                                         "t": time.time()}).encode("utf-8"))
                os.fsync(fd)
            finally:
                os.close(fd)
        self._epochs[key] = epoch
        return epoch

    def check_holds(self, key: str, epoch: int) -> None:
        """The fencing check, run before any done/failed/store write: raise
        when a newer epoch than ours exists, or when ours is gone (a newer
        driver landed the row, and its clean completion collected the key's
        claims)."""
        if self.directory is not None and (
                self._path(key, epoch + 1).exists()
                or not self._path(key, epoch).exists()):
            raise ConcurrentDriverError(self.directory, key, epoch + 1)


def claimed_epochs(directory: Path) -> Dict[str, int]:
    """The highest claimed epoch per key in a ``claims/`` directory."""
    epochs: Dict[str, int] = {}
    for path in directory.glob("*.epoch-*"):
        key, _, epoch = path.name.rpartition(".epoch-")
        if epoch.isdigit():
            epochs[key] = max(epochs.get(key, 0), int(epoch))
    return epochs


__all__ = ["Claims", "ConcurrentDriverError", "claimed_epochs"]
