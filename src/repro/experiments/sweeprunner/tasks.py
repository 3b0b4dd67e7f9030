"""Task identity: cache keys over (function, params, environment, code).

A sweep row is a pure function of four inputs — the point function, its
keyword arguments, the ``REPRO_*`` environment axes that retarget every
point wholesale, and the simulator source itself.  :class:`SweepTask`
captures all four at construction and hashes them into one content
address, which names the row in the result store (:mod:`.store`) and the
task in the run ledger (:mod:`.ledger`).  Workers in a fresh interpreter
(``spawn`` start method, resumed drivers) re-derive the same key from the
same inputs — pinned by ``tests/test_sweeprunner.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict

#: Bump when simulator semantics change enough to invalidate cached rows.
#: (Code changes are caught automatically by :func:`code_fingerprint`; this
#: remains as a manual override for semantic changes outside ``src/repro``,
#: e.g. a row-schema change made by an experiment script.)
CACHE_VERSION = 2

#: Environment variable naming the cache directory (empty disables caching).
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

PointFn = Callable[..., Dict[str, Any]]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash of the simulator package source (``src/repro``).

    Any edit to any module invalidates every cached row: a sweep row is a
    function of (point function, parameters, environment, simulator code),
    and the first three alone produced stale-replay bugs when the simulator
    changed between runs.  Hashing ~100 source files costs a few
    milliseconds once per process — noise against a single sweep point.
    """
    package_root = Path(__file__).resolve().parents[2]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def environment_axes() -> Dict[str, str]:
    """The ``REPRO_*`` settings a sweep row depends on.

    ``platform`` retargets every point wholesale without appearing in its
    parameters, so it must key the cache; the burst escape hatch is
    included because a row computed with the fast path off should never
    masquerade as a default-path row (results are equivalent by contract,
    but a cache hit must not silently hide a divergence the equivalence
    suites would catch).
    """
    return {
        "platform": os.environ.get("REPRO_PLATFORM") or "",
        "disable_burst": os.environ.get("REPRO_DISABLE_BURST") or "",
    }


@dataclass(frozen=True)
class SweepTask:
    """One configuration point: a point function plus its keyword arguments.

    ``environment`` and ``code`` are captured at construction so the cache
    key reflects the state the point will actually run under.
    """

    module: str
    qualname: str
    params: Dict[str, Any]
    environment: Dict[str, str] = field(default_factory=environment_axes)
    code: str = field(default_factory=code_fingerprint)

    def cache_key(self) -> str:
        payload = json.dumps(
            {
                "version": CACHE_VERSION,
                "module": self.module,
                "qualname": self.qualname,
                "params": self.params,
                "environment": self.environment,
                "code": self.code,
            },
            sort_keys=True,
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_task(fn: PointFn, params: Dict[str, Any]) -> SweepTask:
    return SweepTask(module=fn.__module__, qualname=fn.__qualname__,
                     params=dict(params))


def sweep_id(tasks) -> str:
    """Stable identity of one sweep: a digest over its sorted task keys.

    Names the ledger file, so re-running the same sweep (same points, same
    environment, same code) finds and resumes its own journal while any
    other sweep gets a fresh one.
    """
    digest = hashlib.sha256()
    for key in sorted(task.cache_key() for task in tasks):
        digest.update(key.encode("ascii"))
    return digest.hexdigest()[:16]


def describe_key_derivation(params: Dict[str, Any]) -> Dict[str, Any]:
    """Key-derivation probe: the inputs and resulting key for fixed params.

    Module-level so a ``spawn``-context worker can import and run it in a
    fresh interpreter; the test suite compares its output across start
    methods to prove workers re-derive identical cache keys.
    """
    task = SweepTask(module="repro.sweeprunner.probe", qualname="probe",
                     params=dict(params))
    return {
        "code": code_fingerprint(),
        "environment": environment_axes(),
        "key": task.cache_key(),
    }
