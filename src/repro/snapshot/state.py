"""Full-system state serialization: ``snapshot_system`` / ``restore_system``.

A snapshot is taken at a **safe point**: an inter-cycle engine boundary
(``SimulationEngine.run_until`` has returned, no cycle is mid-flight).  It
is one generic walk over the components' declared state (see
:mod:`repro.utils.state`): every ``STATE`` and ``COUNTERS`` member is
lowered to the codec vocabulary, declared members and containers of them
recursively, and ``DERIVED`` members are skipped.  A restore builds a fresh
system from the recorded build spec and walks the same declarations,
writing each saved value back in place.  What the walk leaves out:

* live burst plans (pure schedules) — settled-and-dropped first via
  ``stop_burst(now, "checkpoint")``, which is exactly the per-cycle
  fallback every early wake already takes, so the continuing run stays
  bit-identical to the restored one;
* the engine wake calendar — derived; both the checkpointed (continuing)
  system and the restored system rebuild it through ``invalidate_wakes()``;
* the timing probe caches and FR-FCFS scan memos — derived; the
  continuing system drops them at the safe point, so both sides start
  every checkpoint cold and a stale entry shows the same on either side;
* identity-carrying members (requests, instructions and operations, which
  several places reference, and the closures bound to them) — the owning
  classes' ``save_refs`` / ``load_refs`` hooks save them as ids into the
  payload's ``tables`` and re-link them, rebuilding completion and launch
  closures from a request's ``(core_id, is_write)``, the NDA host's
  in-flight packet map and each work item's ``operation_id``.

The three global id counters (requests, instructions, operations) restore
as watermarks so ids never collide after resume.  The payload layout is
versioned by the codec envelope's schema version: a change to any
declaration changes the layout and requires bumping
``repro.snapshot.codec.SCHEMA_VERSION``.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from enum import Enum
from typing import Any, Dict, Optional

from repro.config import SystemConfig
from repro.core.modes import AccessMode
from repro.dram.commands import DramAddress
from repro.memctrl.request import (
    MemoryRequest,
    get_request_id_watermark,
    set_request_id_watermark,
)
from repro.nda.controller import RankWorkItem
from repro.nda.isa import (
    NdaInstruction,
    NdaOpcode,
    get_instruction_id_watermark,
    set_instruction_id_watermark,
)
from repro.nda.launch import (
    NdaOperation,
    get_operation_id_watermark,
    set_operation_id_watermark,
)
from repro.snapshot.codec import SnapshotError
from repro.utils.state import declared

_WATERMARKS = {
    "request": (get_request_id_watermark, set_request_id_watermark),
    "instruction": (get_instruction_id_watermark,
                    set_instruction_id_watermark),
    "operation": (get_operation_id_watermark, set_operation_id_watermark),
}

#: ``ChopimSystem`` constructor arguments recorded in the build spec, by
#: the attribute that holds each.
_BUILD = {
    "mix": "mix", "throttle": "_throttle_name",
    "stochastic_probability": "_stochastic_probability",
    "launch_packets_use_channel": "_launch_packets_use_channel",
    "collect_energy": "collect_energy", "engine": "engine_kind",
    "burst": "burst",
}


#: Types saved as they are (most members are ints).
_PLAIN = {int, float, bool, str, type(None)}


def _value(value: Any, refs: "_Refs") -> Any:
    """A saved member lowered to the codec vocabulary (containers copied, so
    the payload stays frozen while the checkpointed system runs on)."""
    if type(value) in _PLAIN:
        return value
    if declared(value):
        return refs.capture(value)
    if isinstance(value, random.Random):
        return value.getstate()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, list):
        return [item if type(item) in _PLAIN else _value(item, refs)
                for item in value]
    if isinstance(value, tuple):
        return tuple(_value(item, refs) for item in value)
    if isinstance(value, deque):
        return deque((_value(item, refs) for item in value),
                     maxlen=value.maxlen)
    if isinstance(value, dict):
        return {key: _value(item, refs) for key, item in value.items()}
    return value


def _rebuilt(current: Any, saved: Any, refs: "_Refs") -> Any:
    """``saved`` written over the live member ``current``: declared objects
    and containers in place (hot paths hold direct references to several
    of them), anything else by value."""
    if declared(current):
        refs.restore(current, saved)
    elif isinstance(current, random.Random):
        current.setstate(saved)
    elif isinstance(current, Enum):
        return type(current)(saved)
    elif isinstance(current, list):
        if current and declared(current[0]):
            for item, state in zip(current, saved):
                refs.restore(item, state)
        else:
            current[:] = saved
    elif isinstance(current, dict):
        if current and declared(next(iter(current.values()))):
            for key, state in saved.items():
                refs.restore(current[key], state)
        else:
            current.clear()
            current.update(saved)
    elif isinstance(current, deque):
        current.clear()
        current.extend(saved)
    else:
        return saved
    return current


class _Refs:
    """The generic walk, plus the tables of identity-carrying objects that
    the ``save_refs`` / ``load_refs`` hooks save as ids."""

    def __init__(self, system) -> None:
        self.system = system
        #: Capture side: saved state by id.
        self.tables: Dict[str, Dict[int, Any]] = {
            "requests": {}, "instructions": {}, "operations": {}}
        #: Restore side: rebuilt objects by id.
        self.requests: Dict[int, MemoryRequest] = {}
        self.instructions: Dict[int, NdaInstruction] = {}
        self.operations: Dict[int, NdaOperation] = {}

    # -- the walk ---------------------------------------------------------- #

    def capture(self, obj: Any, state: Optional[Dict[str, Any]] = None,
                ) -> Optional[Dict[str, Any]]:
        """``obj``'s saved members: ``state`` (by default its hook's
        entries), then every other ``STATE`` and ``COUNTERS`` member."""
        if obj is None:
            return None
        cls = type(obj)
        if state is None:
            state = obj.save_refs(self) if hasattr(cls, "save_refs") else {}
        for name in cls.STATE + getattr(cls, "COUNTERS", ()):
            if name not in state:
                value = getattr(obj, name)
                state[name] = (value if type(value) in _PLAIN
                               else _value(value, self))
        return state

    def restore(self, obj: Any, saved: Dict[str, Any]) -> None:
        """Write ``saved`` back over ``obj``; its hook consumes its entries
        first."""
        if hasattr(type(obj), "load_refs"):
            saved = dict(saved)
            obj.load_refs(saved, self)
        for name, value in saved.items():
            current = getattr(obj, name)
            if type(current) not in _PLAIN:
                value = _rebuilt(current, value, self)
            setattr(obj, name, value)

    @staticmethod
    def rebuild(cls, saved: Dict[str, Any], **fixes: Any) -> Any:
        """A new ``cls`` from its saved members, without ``__init__``;
        ``fixes`` supply its ``DERIVED`` members and typed values."""
        obj = cls.__new__(cls)
        for name, value in dict(saved, **fixes).items():
            setattr(obj, name, value)
        return obj

    # -- identity tables: capture ----------------------------------------- #

    def _enter(self, table: str, key: int, obj: Any) -> int:
        saved = self.tables[table]
        if key not in saved:
            saved[key] = self.capture(obj)
        return key

    def request(self, request: MemoryRequest) -> int:
        return self._enter("requests", request.request_id, request)

    def instruction(self, instruction: Optional[NdaInstruction]):
        if instruction is None:
            return None
        return self._enter("instructions", instruction.instruction_id,
                           instruction)

    def operation(self, operation: Optional[NdaOperation]):
        if operation is None:
            return None
        if operation.on_complete is not None:
            raise SnapshotError(
                f"cannot snapshot operation #{operation.operation_id}: it "
                "carries a runtime on_complete callback, which is not "
                "serializable — wait for it to finish before checkpointing")
        return self._enter("operations", operation.operation_id, operation)

    def work(self, work: RankWorkItem) -> Dict[str, Any]:
        """A work item, its operation recovered from the completion
        closure's bound ``op=`` default (see
        ``NdaHostController._piece_completion_callback``)."""
        if work.operation_id >= 0:
            self.operation(work.on_complete.__defaults__[0])
        elif work.on_complete is not None:
            raise SnapshotError(
                "cannot snapshot a RankWorkItem with a custom on_complete "
                "hook (no operation_id to rebuild it from); complete "
                "directly enqueued test work before checkpointing")
        return self.capture(
            work, {"instruction": self.instruction(work.instruction)})

    # -- identity tables: restore ----------------------------------------- #

    def load_tables(self, tables: Dict[str, Dict[int, Any]]) -> None:
        system = self.system
        for request_id, state in tables["requests"].items():
            request = self.rebuild(MemoryRequest, state, on_complete=None,
                                   addr=DramAddress._make(state["addr"]))
            if request.core_id >= 0 and not request.is_write:
                request.on_complete = system._demand_read_hook(
                    request.core_id, request.phys)
            # Launch-packet writes get theirs from the NDA host's in-flight
            # map; plain writebacks have none.
            self.requests[request_id] = request
        for iid, state in tables["instructions"].items():
            self.instructions[iid] = self.rebuild(
                NdaInstruction, state, opcode=NdaOpcode(state["opcode"]))
        for oid, state in tables["operations"].items():
            self.operations[oid] = self.rebuild(
                NdaOperation, state, opcode=NdaOpcode(state["opcode"]),
                on_complete=None)

    def load_work(self, saved: Dict[str, Any]) -> RankWorkItem:
        operation_id = saved["operation_id"]
        hook = None
        if operation_id >= 0:
            hook = self.system.nda_host._piece_completion_callback(
                self.operations[operation_id])
        return self.rebuild(RankWorkItem, saved, on_complete=hook,
                            instruction=self.instructions[saved["instruction"]])


# --------------------------------------------------------------------- #
# Snapshot / restore
# --------------------------------------------------------------------- #


def snapshot_system(system) -> Dict[str, Any]:
    """Serialize the full state of ``system`` at an inter-cycle safe point.

    Mutates the running system in three benign ways that the restored
    system mirrors exactly: live burst plans are settled-and-cancelled
    (cause ``"checkpoint"`` — the standard early-wake fallback), the probe
    caches and scan memos start cold, and every cached wake is invalidated.
    The continuing run therefore stays bit-identical to a restore of the
    returned payload.
    """
    if system.cores and system.mix is None:
        raise SnapshotError(
            "cannot snapshot a system built from custom benchmark profiles "
            "(profiles=...): the build spec records only named mixes")
    for controller in system.rank_controllers.values():
        controller.stop_burst(system.now, "checkpoint")
    refs = _Refs(system)
    state = refs.capture(system)
    build = {key: getattr(system, name) for key, name in _BUILD.items()}
    build.update(config=dataclasses.asdict(system.config),
                 mode=system.mode.value)
    payload = {
        "kind": "chopim-system",
        "build": build,
        "watermarks": {kind: get() for kind, (get, _) in _WATERMARKS.items()},
        "tables": refs.tables,
        "system": state,
    }
    # Cancelled plans and (possibly) settled timing left stale calendar
    # entries behind; the continuing run re-derives every wake and re-fills
    # every probe cache, exactly as the restored system will.
    system.dram.timing.clear_probe_caches()
    for controller in system.channel_controllers.values():
        controller.clear_scan_caches()
    system.engine.invalidate_wakes()
    return payload


def _load_config(state: Dict[str, Any]) -> SystemConfig:
    # Each nested config field's default factory is its class.
    return SystemConfig(**{
        field.name: (field.default_factory(**state[field.name])
                     if field.default_factory is not dataclasses.MISSING
                     else state[field.name])
        for field in dataclasses.fields(SystemConfig)})


def restore_system(payload: Dict[str, Any]):
    """Rebuild a :class:`ChopimSystem` from a ``snapshot_system`` payload.

    The system is constructed fresh from the recorded build spec, then
    every saved member is written back in place; derived state (wake
    calendar, scan caches, probe caches) is left cold and recomputes to
    identical values on first use.
    """
    from repro.core.system import ChopimSystem

    if payload.get("kind") != "chopim-system":
        raise SnapshotError(
            f"payload kind {payload.get('kind')!r} is not a chopim-system "
            "snapshot")
    build = payload["build"]
    system = ChopimSystem(config=_load_config(build["config"]),
                          mode=AccessMode(build["mode"]),
                          **{key: build[key] for key in _BUILD})
    for kind, value in payload["watermarks"].items():
        _WATERMARKS[kind][1](value)
    refs = _Refs(system)
    refs.load_tables(payload["tables"])
    refs.restore(system, payload["system"])
    system.engine.invalidate_wakes()
    return system
