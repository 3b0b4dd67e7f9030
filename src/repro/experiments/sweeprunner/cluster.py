"""Claim-based sweep execution: fenced leases, liveness, stealing.

Every sweep with a directory runs through this module, on one host or
many.  Driver processes — each with its own **host identity** — cooperate
on one sweep over a shared cache directory, and a single-host sweep is
simply the one-host case.  The directory is the entire coordination
medium; there is no server, no lock manager, and no RPC, only three
primitives with crash-safe semantics:

* **Fenced leases** (``claims/<key>.epoch-<N>``).  Claiming attempt N of
  a key means winning the ``O_CREAT|O_EXCL`` creation of its epoch-N
  file — exactly one host can, every loser gets ``FileExistsError`` and
  walks away clean.  The epoch is the fencing token *and* the only
  attempt counter: epochs only grow, so "no key executes more than
  ``1 + max_retries`` times across all hosts and driver incarnations" is
  enforced by refusing to mint epochs past the budget, and "a stale host
  cannot clobber a newer attempt" is the O(1) check "does
  ``epoch-<mine+1>`` exist?" performed before any done/failed record or
  store write lands.
* **Heartbeat liveness** (``hosts/<host>.hb``).  Each driver rewrites its
  heartbeat file (atomic temp + rename) from a daemon thread every
  ``heartbeat_interval`` seconds; a peer whose file mtime is older than
  ``staleness`` is declared dead and its leases become stealable.  The
  ``netsplit`` fault freezes the thread while the host keeps computing —
  the split host's late writes then die on the fencing check.
* **Lease stealing**.  Stealing mints the next epoch (after a
  deterministic per-(host, key) stagger that the ``steal-race`` fault
  removes, forcing contenders through the ``O_EXCL`` race on purpose).
  Rows and checkpoints live in one layout every host shares
  (``<key>.json``, ``checkpoints/<key>.ckpt``), so the thief resumes from
  the dead host's last durable checkpoint in place, bit-identically to a
  same-host resume; the lease journals ``checkpoint="migrated"``.  The
  interrupted attempt is already counted — its epoch file exists.

Failed (as opposed to crashed) attempts are *released*, not stolen: the
failing host drops a ``claims/<key>.failed-<N>`` marker, after which any
live host may mint epoch N+1 immediately — cross-host retry without
waiting out a staleness window.  A key whose final epoch carries a failed
marker (or a dead holder) is exhausted everywhere.

One driver per host identity: a host never races itself, so a claim held
by one's own host name is treated as a dead predecessor (the previous
incarnation crashed) and re-claimed through the normal steal path.

A sweep with no directory has nothing to share: :class:`LocalClaims`
counts its attempts in memory behind the same interface.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.experiments.sweeprunner import checkpoint as checkpoint_module
from repro.experiments.sweeprunner.faults import FaultPlan

#: Host identity override; defaults to ``<hostname>`` (one driver per box).
HOST_ENV = "REPRO_SWEEP_HOST"

#: `acquire` outcomes that are not leases.
BUSY = "busy"
EXHAUSTED = "exhausted"


def resolve_host(explicit: Optional[str] = None) -> str:
    """The driver's host identity: explicit > environment > hostname."""
    host = explicit or os.environ.get(HOST_ENV) or socket.gethostname()
    return str(host)


@dataclass(frozen=True)
class ClusterOptions:
    """Sharding knobs; attach to :class:`..service.SweepOptions.cluster`."""

    #: Host identity; None resolves via REPRO_SWEEP_HOST, then hostname.
    host: Optional[str] = None
    #: Seconds between heartbeat-file rewrites.
    heartbeat_interval: float = 0.5
    #: A host whose heartbeat is older than this is dead (stealable).
    staleness: float = 5.0
    #: Upper bound on the deterministic per-(host, key) steal stagger.
    steal_stagger: float = 0.5
    #: How often a host re-polls keys other hosts are working on.
    poll_interval: float = 0.2


@dataclass(frozen=True)
class Lease:
    """A won claim: the fencing token plus the execution's provenance."""

    key: str
    epoch: int
    provenance: str  # fresh | resume | migrated


class ShardCoordinator:
    """One host's handle on the shared claim/heartbeat/checkpoint state."""

    def __init__(self, root: Path, host: str, max_leases: int,
                 options: ClusterOptions,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.root = Path(root)
        self.host = host
        self.max_leases = max(1, max_leases)
        self.options = options
        self.fault_plan = fault_plan
        self.claims_dir = self.root / "claims"
        self.hosts_dir = self.root / "hosts"
        self.checkpoints = self.root / "checkpoints"
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self.hosts_dir.mkdir(parents=True, exist_ok=True)
        self.steals = 0
        self.migrations = 0
        self._epoch_cache: Dict[str, int] = {}
        self._dead_since: Dict[Tuple[str, int], float] = {}
        self._suppressed = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- heartbeats -------------------------------------------------------

    def start(self) -> None:
        """First heartbeat (synchronous — liveness precedes any claim),
        then the beat thread."""
        self._beat()
        self._thread = threading.Thread(
            target=self._beat_loop, name=f"sweep-heartbeat-{self.host}",
            daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _beat_loop(self) -> None:
        interval = max(self.options.heartbeat_interval, 0.05)
        while not self._stop.wait(interval):
            self._beat()

    def _beat(self) -> None:
        with self._lock:
            if self._suppressed:
                return  # netsplit: computing, but silent to peers
        path = self.hosts_dir / f"{self.host}.hb"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        body = json.dumps({"host": self.host, "pid": os.getpid(),
                           "t": time.time()}).encode("utf-8")
        # os-level I/O end to end: the beat thread must never hold a
        # Python-buffer lock across the worker fork.
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
            try:
                os.write(fd, body)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError:
            pass  # a missed beat is survivable; a crashed beat thread not

    def suppress_heartbeats(self) -> None:
        """Enter a (possibly nested) netsplit: stop advertising liveness."""
        with self._lock:
            self._suppressed += 1

    def resume_heartbeats(self) -> None:
        with self._lock:
            self._suppressed = max(0, self._suppressed - 1)
            resumed = self._suppressed == 0
        if resumed:
            self._beat()

    def host_alive(self, host: str) -> bool:
        try:
            mtime = (self.hosts_dir / f"{host}.hb").stat().st_mtime
        except OSError:
            return False  # never started, or cleaned up: not alive
        return time.time() - mtime <= self.options.staleness

    # -- claims -----------------------------------------------------------

    def _claim_path(self, key: str, epoch: int) -> Path:
        return self.claims_dir / f"{key}.epoch-{epoch}"

    def _failed_path(self, key: str, epoch: int) -> Path:
        return self.claims_dir / f"{key}.failed-{epoch}"

    def current_epoch(self, key: str) -> int:
        """Highest minted epoch for ``key`` (0 = never claimed).  Epoch
        files are never removed mid-sweep, so probing upward from the
        cached value is exact and O(new epochs)."""
        epoch = self._epoch_cache.get(key, 0)
        while self._claim_path(key, epoch + 1).exists():
            epoch += 1
        self._epoch_cache[key] = epoch
        return epoch

    def still_holds(self, key: str, epoch: int) -> bool:
        """The fencing check: our lease is current iff nobody minted a
        higher epoch.  Called before any done/failed/store write lands."""
        return not self._claim_path(key, epoch + 1).exists()

    def _try_claim(self, key: str, epoch: int) -> bool:
        path = self._claim_path(key, epoch)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            os.write(fd, json.dumps({
                "host": self.host, "pid": os.getpid(), "t": time.time(),
            }).encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        self._epoch_cache[key] = max(self._epoch_cache.get(key, 0), epoch)
        return True

    def claim_holder(self, key: str, epoch: int) -> Optional[Dict[str, Any]]:
        """The claim file's content, or None while the winner is still
        writing it (created-empty is a visible intermediate state)."""
        try:
            body = self._claim_path(key, epoch).read_text(encoding="utf-8")
            holder = json.loads(body)
        except (OSError, ValueError):
            return None
        return holder if isinstance(holder, dict) else None

    def mark_failed(self, key: str, epoch: int, kind: str,
                    error_type: str = "", message: str = "") -> None:
        """Release a failed lease: epoch N is spent, and any live host may
        mint N+1 without waiting out the staleness window."""
        path = self._failed_path(key, epoch)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError:
            return  # already marked, or unwritable — both survivable
        try:
            os.write(fd, json.dumps({
                "host": self.host, "kind": kind, "error_type": error_type,
                "message": message[:500], "t": time.time(),
            }).encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)

    def failure_info(self, key: str, epoch: int) -> Optional[Dict[str, Any]]:
        try:
            info = json.loads(
                self._failed_path(key, epoch).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return info if isinstance(info, dict) else None

    # -- stealing ---------------------------------------------------------

    def _steal_delay(self, key: str, epoch: int) -> float:
        """Deterministic per-(host, key) stagger before rushing a steal —
        zero when the fault plan injects ``steal-race`` for the epoch being
        minted, which every candidate host agrees on (the schedule is a
        pure hash), so they all rush the O_EXCL claim at once."""
        if self.fault_plan is not None \
                and self.fault_plan.decide(key, epoch + 1) == "steal-race":
            return 0.0
        digest = hashlib.sha256(
            f"steal:{self.host}:{key}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return self.options.steal_stagger * unit

    def _lease(self, key: str, epoch: int, stolen: bool = False) -> Lease:
        """The won claim, with its provenance: a checkpoint the dead host
        of a steal left behind makes it a migrated resume."""
        ckpt = checkpoint_module.checkpoint_file(self.checkpoints, key)
        if not ckpt.exists():
            return Lease(key, epoch, "fresh")
        if stolen:
            self.migrations += 1
            return Lease(key, epoch, "migrated")
        return Lease(key, epoch, "resume")

    # -- the acquire protocol --------------------------------------------

    def acquire(self, key: str):
        """Try to lease ``key``: a :class:`Lease`, ``BUSY`` (someone live
        holds it, or we lost a race — poll again later), or ``EXHAUSTED``
        (the attempt budget is spent across all hosts)."""
        epoch = self.current_epoch(key)
        if epoch == 0:
            return self._lease(key, 1) if self._try_claim(key, 1) else BUSY
        released = self._failed_path(key, epoch).exists()
        holder_host: Optional[str] = None
        if not released:
            holder = self.claim_holder(key, epoch)
            if holder is not None:
                holder_host = str(holder.get("host", ""))
            else:
                # Torn claim: the winner is still writing its identity — or
                # died between create and write.  Fresh → wait; older than
                # the staleness window → an anonymous dead holder.
                try:
                    age = time.time() - \
                        self._claim_path(key, epoch).stat().st_mtime
                except OSError:
                    age = 0.0
                if age <= self.options.staleness:
                    return BUSY
            if holder_host is not None and holder_host != self.host \
                    and self.host_alive(holder_host):
                self._dead_since.pop((key, epoch), None)
                return BUSY
        if epoch >= self.max_leases:
            return EXHAUSTED
        if not released and holder_host != self.host:
            # Dead peer: stagger the rush unless steal-race removes it.
            # (Our own host's prior incarnation is re-claimed without one —
            # a host never races itself.)
            first = self._dead_since.setdefault(
                (key, epoch), time.monotonic())
            if time.monotonic() - first < self._steal_delay(key, epoch):
                return BUSY
        if not self._try_claim(key, epoch + 1):
            return BUSY  # the clean loser of a contended steal
        self._dead_since.pop((key, epoch), None)
        if released or not holder_host or holder_host == self.host:
            # A released (failed) lease is re-claimed, not stolen, and so
            # is our own dead predecessor's or an anonymous holder's.
            return self._lease(key, epoch + 1)
        self.steals += 1
        return self._lease(key, epoch + 1, stolen=True)


class LocalClaims:
    """The attempt counter of a sweep with no directory: epochs in memory.

    Nothing is shared, so no lease is ever fenced, busy or stolen.
    """

    steals = 0
    migrations = 0

    def __init__(self, max_leases: int) -> None:
        self.max_leases = max(1, max_leases)
        self._epochs: Dict[str, int] = {}

    def start(self) -> None:
        pass

    stop = suppress_heartbeats = resume_heartbeats = start

    def acquire(self, key: str):
        epoch = self._epochs.get(key, 0) + 1
        if epoch > self.max_leases:
            return EXHAUSTED
        self._epochs[key] = epoch
        return Lease(key, epoch, "fresh")

    def still_holds(self, key: str, epoch: int) -> bool:
        return True

    def mark_failed(self, key: str, epoch: int, kind: str,
                    error_type: str = "", message: str = "") -> None:
        pass

    def current_epoch(self, key: str) -> int:
        return self._epochs.get(key, 0)

    def failure_info(self, key: str, epoch: int) -> Optional[Dict[str, Any]]:
        return None


__all__ = [
    "BUSY", "EXHAUSTED", "ClusterOptions", "HOST_ENV", "Lease",
    "LocalClaims", "ShardCoordinator", "resolve_host",
]
