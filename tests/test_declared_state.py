"""Declared component state: reachability and the warm-up reset.

Checkpoints and the warm-up reset are one generic walk over the class-level
``STATE`` / ``COUNTERS`` / ``DERIVED`` declarations (``repro.utils.state``),
so a member nobody declared is a member neither of them sees.  The snapshot
fuzz only catches such a member when its configurations happen to exercise
it; these tests catch it structurally:

* **reachability** — on the snapshot-fuzz configurations, every object
  reachable through saved members from a ``ChopimSystem`` declares each of
  its attributes exactly once, declares nothing it lacks, and is a value
  the checkpoint walk can carry;
* **reset** — the fields the warm-up boundary zeroes are exactly the
  pinned ``WARMUP_COUNTERS``; after a reset each of them is zero and every
  ``STATE`` field is unchanged, apart from the pinned hook effects.
"""

import enum
from collections import deque

import pytest

from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.nda.isa import NdaOpcode
from repro.snapshot.state import _Refs, _value
from repro.utils.state import declared
from test_snapshot import _CYCLES, _EVERY, _SPECS, _build_spec

#: Every field zeroed at the warm-up boundary, by class.  Burst
#: diagnostics, throttle decision counts, FSM event counts, write-buffer
#: totals and traffic-generator counts stay cumulative.
WARMUP_COUNTERS = {
    "Bank": {"row_hits", "row_misses", "row_conflicts", "activates",
             "precharges", "reads", "writes", "nda_reads", "nda_writes"},
    "DramSystem": {"counts"},
    "ChannelController": {"counters", "read_latency"},
    "CoreModel": {"_retired_fp", "_cpu_cycles_fp", "_stall_cycles"},
    "NdaRankController": {"bytes_read", "bytes_written", "commands_issued",
                          "cycles_blocked_by_host",
                          "cycles_blocked_by_throttle",
                          "instructions_completed"},
    "ProcessingElement": {"stats"},
    "NdaHostController": {"operations_launched", "operations_completed",
                          "packets_sent"},
    "ConcurrentAccessScheduler": {"nda_issue_opportunities",
                                  "nda_blocked_cycles"},
    "SimulationStats": {"counters", "cycles_observed"},
    "RankIdleTracker": {"histogram", "busy_cycles", "idle_cycles",
                        "_idle_run"},
}

#: ``STATE`` fields a reset moves on purpose: the hooks where a reset is
#: more than a zeroing, and the measured window's start.
RESET_HOOKED = {
    "CoreModel": {"event_count"},
    "_OutstandingMiss": {"issued_at_instruction_fp"},
    "StatsComponent": {"_cursor", "_rank_cursors"},
    "ChopimSystem": {"_measure_start"},
}

def _repro_objects(value):
    """The repro-defined objects inside a saved member (values, not keys)."""
    if isinstance(value, (enum.Enum, str, bytes)):
        return
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        if not (isinstance(value, tuple) and hasattr(value, "_fields")):
            for item in value:
                yield from _repro_objects(item)
        return
    if isinstance(value, dict):
        for item in value.values():
            yield from _repro_objects(item)
        return
    if type(value).__module__.startswith("repro."):
        yield value


def _attributes(obj):
    names = set(getattr(obj, "__dict__", ()))
    for klass in type(obj).__mro__:
        names.update(slot for slot in getattr(klass, "__slots__", ())
                     if hasattr(obj, slot))
    return names


def _walk(system):
    """Every object reachable through saved members.  Fails on what the
    checkpoint walk could not carry, and on an object two generic members
    reach (a restore would rebuild it twice); the members ``save_refs``
    hooks carry may share objects, which they save by id."""
    found = {}
    stack = [(system, "system", False)]
    while stack:
        obj, path, by_hook = stack.pop()
        if id(obj) in found:
            first, first_by_hook = found[id(obj)][1:]
            assert by_hook or first_by_hook, (
                f"{path} aliases {first}: a restore would rebuild them as "
                "two objects")
            continue
        found[id(obj)] = (obj, path, by_hook)
        cls = type(obj)
        assert declared(obj), (
            f"{path}: {cls.__qualname__} is reachable through saved state "
            "but declares none")
        saved = cls.STATE + getattr(cls, "COUNTERS", ())
        names = saved + getattr(cls, "DERIVED", ())
        assert len(names) == len(set(names)), (
            f"{cls.__qualname__} declares a member twice")
        attributes = _attributes(obj)
        undeclared = attributes - set(names)
        assert not undeclared, (
            f"{path}: {cls.__qualname__} has undeclared members "
            f"{sorted(undeclared)}")
        missing = set(names) - attributes
        assert not missing, (
            f"{path}: {cls.__qualname__} declares members it lacks "
            f"{sorted(missing)}")
        hooked = (set(obj.save_refs(_Refs(None)))
                  if hasattr(obj, "save_refs") else set())
        for name in saved:
            value = getattr(obj, name)
            assert not callable(value) or declared(value), (
                f"{path}.{name} saves a callable")
            for child in _repro_objects(value):
                stack.append((child, f"{path}.{name}",
                              by_hook or name in hooked))
    return [obj for obj, _, _ in found.values()]


class TestReachability:
    @pytest.mark.parametrize("engine", ["cycle", "event"])
    @pytest.mark.parametrize("index", range(len(_SPECS)))
    def test_fuzzed_config(self, index, engine, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_BURST", raising=False)
        spec = _SPECS[index]
        system = _build_spec(spec, engine)
        walked = []
        system.run(cycles=_CYCLES, warmup=spec["warmup"],
                   checkpoint_hook=lambda s: walked.append(len(_walk(s))),
                   checkpoint_every=_EVERY)
        walked.append(len(_walk(system)))
        assert walked and min(walked) > 0


def _shallow(value):
    """A saved member as plain values, declared objects by class name only
    (the walk visits and compares those itself)."""
    if declared(value):
        return type(value).__name__
    if isinstance(value, (list, tuple, deque)):
        return [_shallow(item) for item in value]
    if isinstance(value, dict):
        return {key: _shallow(item) for key, item in value.items()}
    return _value(value, _Refs(None))


def _fields(obj, names):
    return {name: _shallow(getattr(obj, name)) for name in names}


def _reset_system(mode, opcode, throttle):
    system = ChopimSystem(mode=mode, mix="mix5" if mode.has_host_traffic
                          else None, throttle=throttle, engine="event")
    if mode.has_nda_traffic:
        system.set_nda_workload(opcode, elements_per_rank=1 << 11)
    system.run(cycles=900, warmup=0)
    return system


class TestWarmupReset:
    @pytest.mark.parametrize("mode,opcode,throttle", [
        (AccessMode.SHARED, NdaOpcode.COPY, "next_rank"),
        (AccessMode.BANK_PARTITIONED, NdaOpcode.AXPY, "stochastic"),
        (AccessMode.HOST_ONLY, None, "next_rank"),
        (AccessMode.NDA_ONLY, NdaOpcode.DOT, "issue_if_idle"),
    ])
    def test_zeroes_counters_and_keeps_state(self, mode, opcode, throttle):
        system = _reset_system(mode, opcode, throttle)
        objects = _walk(system)
        before = [_fields(obj, type(obj).STATE) for obj in objects]
        counted = 0
        system._reset_measurement()
        for obj, state in zip(objects, before):
            cls = type(obj)
            counters = getattr(cls, "COUNTERS", ())
            assert set(counters) == WARMUP_COUNTERS.get(cls.__name__, set()), (
                f"{cls.__name__} declares {sorted(counters)} as counters")
            for name in counters:
                value = getattr(obj, name)
                assert _value(value, _Refs(None)) == _value(
                    type(value)(), _Refs(None)), f"{cls.__name__}.{name}"
                counted += 1
            after = _fields(obj, cls.STATE)
            moved = {name for name in state if state[name] != after[name]}
            assert moved <= RESET_HOOKED.get(cls.__name__, set()), (
                f"the reset moved {cls.__name__} state {sorted(moved)}")
        assert counted
        if mode is AccessMode.SHARED:  # every component is built
            reached = {type(obj).__name__ for obj in objects}
            assert set(WARMUP_COUNTERS) <= reached
