"""Snapshot codec: tagged-JSON encoding plus a checked file envelope.

The state trees produced by :mod:`repro.snapshot.state` are built from a
deliberately small vocabulary — ints, floats, strings, booleans, None,
lists, tuples, deques (with a ``maxlen``), and dicts (str keys or not).
JSON round-trips ints (arbitrary precision) and floats (shortest-repr)
exactly, so a tagged-JSON encoding is bit-exact for everything the
simulator serializes; anything outside the vocabulary is an error at
*encode* time, not a silent corruption at restore time.

The file envelope carries a magic string, a schema version, and a sha256
digest over the canonical payload text.  ``read_snapshot`` rejects
unknown versions (:class:`SnapshotVersionError`) and truncated or
bit-flipped files (:class:`SnapshotCorruptError`) with errors that say
what to do about it.  ``write_snapshot`` follows the result store's
durability discipline: unique per-writer temp name (pid + ticket),
flush + fsync, atomic rename.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import deque
from pathlib import Path
from typing import Any, Union

MAGIC = "repro-snapshot"
#: v15: write-only members are gone (bank, PE, throttle, gate and request
#: counters among them), and with them ``NdaConfig.fpfma_per_pe`` and
#: ``buffer_bytes`` from the build spec.
SCHEMA_VERSION = 15

_TAG = "__t"

_temp_tickets = itertools.count()


class SnapshotError(Exception):
    """Base class for snapshot encode/decode/IO failures."""


class SnapshotVersionError(SnapshotError):
    """The file's schema version is not one this build can restore."""


class SnapshotCorruptError(SnapshotError):
    """The file is truncated, malformed, or fails its integrity digest."""


# --------------------------------------------------------------------- #
# Tagged encoding


def encode(value: Any) -> Any:
    """Lower ``value`` to a pure-JSON tree, tagging non-JSON containers."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode(item) for item in value]}
    if isinstance(value, deque):
        return {_TAG: "deque", "maxlen": value.maxlen,
                "items": [encode(item) for item in value]}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            if _TAG in value:
                return {_TAG: "rawdict",
                        "items": {key: encode(val) for key, val in value.items()}}
            return {key: encode(val) for key, val in value.items()}
        return {_TAG: "dict",
                "items": [[encode(key), encode(val)] for key, val in value.items()]}
    raise SnapshotError(
        f"cannot encode {type(value).__name__!r} ({value!r}); snapshot state "
        "must be built from int/float/str/bool/None/list/tuple/deque/dict")


def decode(value: Any) -> Any:
    """Invert :func:`encode`."""
    if isinstance(value, list):
        return [decode(item) for item in value]
    if isinstance(value, dict):
        tag = value.get(_TAG)
        if tag is None:
            return {key: decode(val) for key, val in value.items()}
        if tag == "tuple":
            return tuple(decode(item) for item in value["items"])
        if tag == "deque":
            return deque((decode(item) for item in value["items"]),
                         maxlen=value["maxlen"])
        if tag == "dict":
            return {decode(key): decode(val) for key, val in value["items"]}
        if tag == "rawdict":
            return {key: decode(val) for key, val in value["items"].items()}
        raise SnapshotCorruptError(f"unknown codec tag {tag!r}")
    return value


# --------------------------------------------------------------------- #
# Envelope


def dumps(payload: Any) -> str:
    """Serialize a state tree into the versioned, digest-carrying envelope."""
    body = json.dumps(encode(payload), separators=(",", ":"), sort_keys=True,
                      allow_nan=False)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    envelope = {"magic": MAGIC, "version": SCHEMA_VERSION,
                "sha256": digest, "payload": body}
    return json.dumps(envelope, separators=(",", ":"), sort_keys=True)


def loads(text: str) -> Any:
    """Parse an envelope, verify magic/version/digest, return the payload."""
    try:
        envelope = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise SnapshotCorruptError(
            f"snapshot is not valid JSON ({exc}); the file is truncated or "
            "corrupt — delete it and re-run from scratch") from exc
    if not isinstance(envelope, dict) or envelope.get("magic") != MAGIC:
        raise SnapshotCorruptError(
            "not a repro snapshot (bad magic); was this file written by "
            "write_snapshot?")
    version = envelope.get("version")
    if version != SCHEMA_VERSION:
        raise SnapshotVersionError(
            f"snapshot schema version {version!r} is not supported by this "
            f"build (expected {SCHEMA_VERSION}); re-create the checkpoint "
            "with the current code, or run it with a matching build")
    body = envelope.get("payload")
    digest = envelope.get("sha256")
    if not isinstance(body, str) or not isinstance(digest, str):
        raise SnapshotCorruptError(
            "snapshot envelope is missing its payload or digest; the file "
            "is corrupt — delete it and re-run from scratch")
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != digest:
        raise SnapshotCorruptError(
            f"snapshot integrity digest mismatch (stored {digest[:12]}…, "
            f"computed {actual[:12]}…); the file was truncated or bit-flipped "
            "— delete it and re-run from scratch")
    try:
        return decode(json.loads(body))
    except SnapshotError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise SnapshotCorruptError(
            f"snapshot payload failed to decode ({exc})") from exc


# --------------------------------------------------------------------- #
# Files


def write_snapshot(path: Union[str, Path], payload: Any) -> Path:
    """Atomically write ``payload`` to ``path`` (temp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique per-writer temp name: concurrent writers (two sweep workers
    # racing on the same key) must not clobber each other's temp file.
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{next(_temp_tickets)}.tmp")
    text = dumps(payload)
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    return path


def read_snapshot(path: Union[str, Path]) -> Any:
    """Read and verify a snapshot file, returning the decoded payload."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SnapshotError(
            f"snapshot file {path} does not exist; nothing to restore") from None
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        return loads(text)
    except SnapshotError as exc:
        raise type(exc)(f"{path}: {exc}") from None
