"""Declared component state: one walk behind checkpoints and the warm-up reset.

Every stateful simulator class names each of its instance attributes in
exactly one of three class-level tuples (``COUNTERS`` and ``DERIVED``
default to empty; ``STATE`` marks the class as declared):

* ``STATE`` — carried through a checkpoint;
* ``COUNTERS`` — measurement counters: carried through a checkpoint too,
  and zeroed at the warm-up boundary by :func:`reset_counters`, which
  replaces each value with ``type(value)()`` (an int becomes 0, a stats
  object a fresh one);
* ``DERIVED`` — never saved: caches, wiring and construction inputs the
  constructor rebuilds from the build spec.

A ``STATE`` value that is a declared object, or a list/tuple/deque/dict of
them, is walked into.  Two optional hooks cover what a declaration cannot
say:

* ``on_measurement_reset(now)`` — runs after the object's counters are
  zeroed, where a reset is more than a zeroing;
* ``save_refs(refs)`` / ``load_refs(saved, refs)`` — the checkpoint form of
  identity-carrying ``STATE`` members (requests, work items, operations,
  instructions, in-flight packets): ``save_refs`` returns their entries,
  and ``load_refs`` rebuilds them and pops them from ``saved``.  The
  generic walk carries every other member (``repro.snapshot.state``).

Declarations are plain tuples read only by these walks, so they cost the
hot paths nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator


def declared(value: object) -> bool:
    """Whether ``value`` is an instance of a class that declares its state."""
    return hasattr(type(value), "STATE")


def declared_in(value: object) -> Iterator[object]:
    """The declared objects ``value`` holds: itself, or a container's items."""
    if declared(value):
        yield value
    elif isinstance(value, (list, tuple, deque)):
        for item in value:
            yield from declared_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from declared_in(item)


def reset_counters(root: object, now: int) -> None:
    """Zero the ``COUNTERS`` of every declared object under ``root``."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        for name in getattr(cls, "COUNTERS", ()):
            setattr(obj, name, type(getattr(obj, name))())
        hook = getattr(obj, "on_measurement_reset", None)
        if hook is not None:
            hook(now)
        for name in cls.STATE:
            stack.extend(declared_in(getattr(obj, name)))
