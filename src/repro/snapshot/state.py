"""Full-system state serialization: ``snapshot_system`` / ``restore_system``.

A snapshot is taken at a **safe point**: an inter-cycle engine boundary
(``SimulationEngine.run_until`` has returned, no cycle is mid-flight).  At
such a boundary the only state that is not a plain value is

* live burst plans (pure schedules) — settled-and-dropped first via
  ``stop_burst(now, "checkpoint")``, which is exactly the per-cycle
  fallback every early wake already takes, so the continuing run stays
  bit-identical to the restored one;
* the engine wake calendar — derived, never serialized; both the
  checkpointed (continuing) system and the restored system rebuild it
  through ``invalidate_wakes()``;
* completion/launch closures — rebuilt at restore from the request's
  ``(core_id, is_write)`` discriminator, the NDA host's in-flight packet
  map, and each work item's ``operation_id``.

Everything else round-trips as numbers through the tagged-JSON codec
(:mod:`repro.snapshot.codec`), including the three global id counters
(requests, instructions, operations), which restore as watermarks so ids
never collide after resume.

The payload layout is versioned by the codec envelope's schema version;
adding a field to any serialized component requires bumping
``repro.snapshot.codec.SCHEMA_VERSION`` (see ARCHITECTURE.md
"Checkpointing" for the add-a-component recipe).
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Dict, Optional, Tuple

from repro.config import (
    DramOrgConfig,
    DramTimingConfig,
    EnergyConfig,
    HostConfig,
    NdaConfig,
    SchedulerConfig,
    SystemConfig,
)
from repro.core.modes import AccessMode
from repro.dram.bank import BankState
from repro.dram.commands import DramAddress
from repro.host.core import _OutstandingMiss
from repro.memctrl.controller import _PendingCompletion
from repro.memctrl.request import (
    MemoryRequest,
    get_request_id_watermark,
    set_request_id_watermark,
)
from repro.nda.controller import RankWorkItem, _ExecutionState
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

#: Serialized slots of the timing-state objects.
_RANK_SLOTS = (
    "act_allowed", "act_allowed_bg", "faw_window",
    "last_read_cycle", "last_read_bg",
    "last_host_read_cycle", "last_nda_read_cycle",
    "last_write_cycle", "last_write_bg",
    "busy_until", "data_busy_from", "data_busy_until",
    "nda_bus_free", "refresh_due", "refreshing_until",
)
_BANK_SLOTS = ("act_allowed", "pre_allowed", "rd_allowed", "wr_allowed")
_CHANNEL_SLOTS = ("data_bus_free", "last_col_rank", "last_data_end",
                  "last_col_was_write", "last_col_cycle")
_FSM_FIELDS = ("current_instruction", "reads_remaining", "writes_remaining",
               "write_buffer_occupancy", "draining", "instructions_completed")
_PE_STAT_FIELDS = ("instructions_executed", "elements_processed",
                   "fma_operations", "buffer_accesses", "scratchpad_accesses",
                   "bytes_read", "bytes_written", "busy_cycles")
_CORE_FIELDS = ("_retired_fp", "_cpu_cycles_fp", "_stall_cycles",
                "_budget_fp", "_gap_fp", "event_count", "reads_issued",
                "writes_issued", "misses_completed")
_EXEC_FIELDS = ("reads_issued", "writes_staged", "writes_drained",
                "read_classified_idx", "write_classified_idx")
_RC_COUNTER_FIELDS = ("bursts_planned", "burst_commands_planned",
                      "burst_commands_settled", "burst_row_commands",
                      "bursts_completed",
                      "bytes_read", "bytes_written", "commands_issued",
                      "cycles_blocked_by_host", "cycles_blocked_by_throttle",
                      "instructions_completed")


# --------------------------------------------------------------------- #
# Snapshot
# --------------------------------------------------------------------- #


def _config_state(config: SystemConfig) -> Dict[str, Any]:
    return {
        "timing": dataclasses.asdict(config.timing),
        "org": dataclasses.asdict(config.org),
        "host": dataclasses.asdict(config.host),
        "nda": dataclasses.asdict(config.nda),
        "energy": dataclasses.asdict(config.energy),
        "scheduler": dataclasses.asdict(config.scheduler),
        "shared_banks_per_rank": config.shared_banks_per_rank,
        "seed": config.seed,
        "platform": config.platform,
    }


def _request_state(request: MemoryRequest) -> Dict[str, Any]:
    return {
        "addr": tuple(request.addr),
        "is_write": request.is_write,
        "phys": request.phys,
        "core_id": request.core_id,
        "arrival_cycle": request.arrival_cycle,
        "request_id": request.request_id,
        "outcome_recorded": request.outcome_recorded,
        "issued_cycle": request.issued_cycle,
        "completed_cycle": request.completed_cycle,
        "queue_seq": request.queue_seq,
    }


def _queue_state(queue) -> Dict[str, Any]:
    return {
        "ids": [request.request_id for request in queue],
        "next_seq": queue._next_seq,
        "version": queue.version,
    }


def _windowed_state(stat) -> Dict[str, Any]:
    return {"count": stat.count, "total": stat.total,
            "minimum": stat.minimum, "maximum": stat.maximum}


def _instruction_state(instruction: NdaInstruction) -> Dict[str, Any]:
    return {
        "opcode": instruction.opcode.value,
        "num_elements": instruction.num_elements,
        "element_bytes": instruction.element_bytes,
        "cache_blocks": instruction.cache_blocks,
        "scalars": tuple(instruction.scalars),
        "matrix_columns": instruction.matrix_columns,
        "instruction_id": instruction.instruction_id,
    }


def _work_state(work: RankWorkItem) -> Dict[str, Any]:
    if work.on_complete is not None and work.operation_id < 0:
        raise SnapshotError(
            "cannot snapshot a RankWorkItem with a custom on_complete hook "
            "(no operation_id to rebuild it from); complete directly "
            "enqueued test work before checkpointing")
    return {
        "instruction_id": work.instruction.instruction_id,
        "operand_banks": list(work.operand_banks),
        "operand_base_rows": list(work.operand_base_rows),
        "output_bank": work.output_bank,
        "output_base_row": work.output_base_row,
        "launched_cycle": work.launched_cycle,
        "completed_cycle": work.completed_cycle,
        "operation_id": work.operation_id,
        "has_on_complete": work.on_complete is not None,
    }


def _packet_state(packet) -> Dict[str, Any]:
    return {
        "channel": packet.channel,
        "rank": packet.rank,
        "work": _work_state(packet.work),
        "control_address": tuple(packet.control_address),
        "enqueued": packet.enqueued,
    }


def _operation_state(operation: NdaOperation) -> Dict[str, Any]:
    if operation.on_complete is not None:
        raise SnapshotError(
            f"cannot snapshot operation #{operation.operation_id}: it "
            "carries a runtime on_complete callback, which is not "
            "serializable — wait for it to finish before checkpointing")
    return {
        "opcode": operation.opcode.value,
        "total_elements": operation.total_elements,
        "cache_blocks": operation.cache_blocks,
        "element_bytes": operation.element_bytes,
        "scalars": tuple(operation.scalars),
        "matrix_columns": operation.matrix_columns,
        "async_launch": operation.async_launch,
        "operation_id": operation.operation_id,
        "launched_cycle": operation.launched_cycle,
        "completed_cycle": operation.completed_cycle,
        "outstanding_instructions": operation.outstanding_instructions,
    }


def _gather_nda_tables(system) -> Tuple[Dict[int, NdaInstruction],
                                        Dict[int, NdaOperation]]:
    """Collect every live instruction and operation, keyed by id.

    Operations are reachable from the NDA host's queue/active slot and —
    for in-flight pieces — only through work-item completion closures;
    those are recovered from the closure's bound ``op=`` default (see
    ``NdaHostController._piece_completion_callback``).
    """
    instructions: Dict[int, NdaInstruction] = {}
    operations: Dict[int, NdaOperation] = {}
    nda = system.nda_host

    def note_work(work: RankWorkItem) -> None:
        instructions[work.instruction.instruction_id] = work.instruction
        hook = work.on_complete
        if hook is not None and work.operation_id >= 0:
            op = hook.__defaults__[0]
            operations[op.operation_id] = op

    if nda is not None:
        for op in nda._operation_queue:
            operations[op.operation_id] = op
        if nda._active_blocking is not None:
            operations[nda._active_blocking.operation_id] = nda._active_blocking
        for packet in nda._pending_packets:
            note_work(packet.work)
        for packet in nda._inflight.values():
            note_work(packet.work)
    for controller in system.rank_controllers.values():
        for work in controller._queue:
            note_work(work)
        if controller._active is not None:
            note_work(controller._active.work)
        for pe in controller.pes:
            if pe._current is not None:
                instructions[pe._current.instruction_id] = pe._current
    return instructions, operations


def _throttle_state(system) -> Optional[Dict[str, Any]]:
    policy = getattr(system, "throttle_policy", None)
    if policy is None:
        return None
    state: Dict[str, Any] = {"name": policy.name}
    if policy.name == "stochastic_issue":
        state.update(attempts=policy.attempts, allowed=policy.allowed,
                     rng=policy.rng.getstate())
    elif policy.name == "next_rank_prediction":
        state.update(inhibits=policy.inhibits, checks=policy.checks)
    return state


def snapshot_system(system) -> Dict[str, Any]:
    """Serialize the full state of ``system`` at an inter-cycle safe point.

    Mutates the running system in two benign ways that the restored system
    mirrors exactly: live burst plans are settled-and-cancelled (cause
    ``"checkpoint"`` — the standard early-wake fallback), and every cached
    wake is invalidated.  The continuing run therefore stays bit-identical
    to a restore of the returned payload.
    """
    if system.cores and system.mix is None:
        raise SnapshotError(
            "cannot snapshot a system built from custom benchmark profiles "
            "(profiles=...): the build spec records only named mixes")
    for controller in system.rank_controllers.values():
        controller.stop_burst(system.now, "checkpoint")

    timing = system.dram.timing
    requests: Dict[int, Dict[str, Any]] = {}

    def note_request(request: MemoryRequest) -> int:
        requests[request.request_id] = _request_state(request)
        return request.request_id

    channels: Dict[int, Dict[str, Any]] = {}
    for ch, mc in system.channel_controllers.items():
        for request in mc.read_queue:
            note_request(request)
        for request in mc.write_queue:
            note_request(request)
        channels[ch] = {
            "read_queue": _queue_state(mc.read_queue),
            "write_queue": _queue_state(mc.write_queue),
            "counters": dict(mc.counters._counts),
            "read_latency": _windowed_state(mc.read_latency),
            "completions": [(p.cycle, note_request(p.request))
                            for p in mc._completions],
            "completions_min": mc._completions_min,
            "inflight_completions": mc.inflight_completions,
            "draining_writes": mc._draining_writes,
            "last_issue_was_write": mc._last_issue_was_write,
            "last_issue_cycle": mc.last_issue_cycle,
            "last_issue_rank": mc.last_issue_rank,
            "last_tick_cycle": mc.last_tick_cycle,
            "published_wake": mc.published_wake,
            "issue_hint": mc._issue_hint,
        }

    host = system._host_component
    host_state = {
        "cursors": list(host._cursors),
        "completions": [(cycle, seq, note_request(request),
                         controller.channel)
                        for cycle, seq, request, controller
                        in host._completions],
        "completion_seq": host._completion_seq,
        "completion_bound": host.completion_bound,
        "backlog_requests": host.backlog_requests,
        "core_backlog": [[note_request(request) for request in backlog]
                         for backlog in system._core_backlog],
    }

    cores = []
    for core in system.cores:
        state = {field: getattr(core, field) for field in _CORE_FIELDS}
        state["outstanding"] = [(m.phys, m.issued_at_instruction_fp,
                                 m.is_blocking) for m in core._outstanding]
        state["pending_requests"] = [tuple(p) for p in core._pending_requests]
        state["rng"] = core.rng.getstate()
        traffic = core.traffic
        state["traffic"] = {
            "current_line": traffic._current_line,
            "recent_lines": deque(traffic._recent_lines,
                                  maxlen=traffic._recent_lines.maxlen),
            "generated_reads": traffic.generated_reads,
            "generated_writes": traffic.generated_writes,
            "rng": traffic.rng.getstate(),
        }
        cores.append(state)

    instructions, operations = _gather_nda_tables(system)

    nda = system.nda_host
    nda_state: Optional[Dict[str, Any]] = None
    if nda is not None:
        nda_state = {
            "operation_queue": [op.operation_id for op in nda._operation_queue],
            "active_blocking": (nda._active_blocking.operation_id
                                if nda._active_blocking is not None else None),
            "placers": {key: {"row_cursor": dict(placer._row_cursor),
                              "next_bank": placer._next_bank}
                        for key, placer in nda._placers.items()},
            "control_column": nda._control_column,
            "pending_packets": [_packet_state(p) for p in nda._pending_packets],
            "inflight": [(request_id, _packet_state(packet))
                         for request_id, packet in nda._inflight.items()],
            "operations_launched": nda.operations_launched,
            "operations_completed": nda.operations_completed,
            "packets_sent": nda.packets_sent,
        }

    rank_controllers: Dict[Tuple[int, int], Dict[str, Any]] = {}
    for key, rc in system.rank_controllers.items():
        active = None
        if rc._active is not None:
            active = {"work": _work_state(rc._active.work)}
            active.update({field: getattr(rc._active, field)
                           for field in _EXEC_FIELDS})
        wb = rc.write_buffer
        fsm = rc.fsm
        state = {
            "queue": [_work_state(work) for work in rc._queue],
            "active": active,
            # The entries' addresses follow from the active instruction's
            # drain cursor; the buffer itself is its occupancy.
            "write_buffer": {
                "length": wb.length,
                "draining": wb._draining,
                "total_enqueued": wb.total_enqueued,
                "total_drained": wb.total_drained,
            },
            "fsm": {
                "device": {f: getattr(fsm._device, f) for f in _FSM_FIELDS},
                "host": {f: getattr(fsm._host, f) for f in _FSM_FIELDS},
                "events_applied": fsm.events_applied,
                "log": deque(fsm._log, maxlen=fsm._log.maxlen),
            },
            "pes": [{"stats": {f: getattr(pe.stats, f)
                               for f in _PE_STAT_FIELDS},
                     "current": (pe._current.instruction_id
                                 if pe._current is not None else None)}
                    for pe in rc.pes],
            "burst_truncations": dict(rc.burst_truncations),
            "burst_commands_by_class": dict(rc.burst_commands_by_class),
        }
        state.update({field: getattr(rc, field)
                      for field in _RC_COUNTER_FIELDS})
        rank_controllers[key] = state

    stats = system.stats
    payload: Dict[str, Any] = {
        "kind": "chopim-system",
        "build": {
            "config": _config_state(system.config),
            "mode": system.mode.value,
            "mix": system.mix,
            "throttle": system._throttle_name,
            "stochastic_probability": system._stochastic_probability,
            "launch_packets_use_channel": system._launch_packets_use_channel,
            "collect_energy": system.collect_energy,
            "engine": system.engine_kind,
            "burst_enabled": system.burst_enabled,
        },
        "now": system.now,
        "measure_start": system._measure_start,
        "run_end": getattr(system, "_run_end", None),
        "run_cycles": getattr(system, "_run_cycles", None),
        "watermarks": {
            "request": get_request_id_watermark(),
            "instruction": get_instruction_id_watermark(),
            "operation": get_operation_id_watermark(),
        },
        "rng": system.rng.getstate(),
        "requests": requests,
        "instructions": {iid: _instruction_state(instruction)
                         for iid, instruction in instructions.items()},
        "operations": {oid: _operation_state(op)
                       for oid, op in operations.items()},
        "dram": {
            "counts": dataclasses.asdict(system.dram.counts),
            "channel_issue_version": list(system.dram.channel_issue_version),
            "banks": [{
                "state": bank.state.value,
                "open_row": bank.open_row,
                "row_hits": bank.row_hits,
                "row_misses": bank.row_misses,
                "row_conflicts": bank.row_conflicts,
                "activates": bank.activates,
                "precharges": bank.precharges,
                "reads": bank.reads,
                "writes": bank.writes,
                "nda_reads": bank.nda_reads,
                "nda_writes": bank.nda_writes,
            } for bank in system.dram._banks],
        },
        "timing": {
            "ranks": [_rank_timing_state(rt) for rt in timing._ranks],
            "banks": [[getattr(bt, slot) for slot in _BANK_SLOTS]
                      for bt in timing._banks],
            "channels": [{slot: getattr(ct, slot) for slot in _CHANNEL_SLOTS}
                         for ct in timing._channels],
            "channel_refresh_due": list(timing._channel_refresh_due),
            "issue_versions": list(timing._issue_versions),
            "row_versions": list(timing._row_versions),
        },
        "channels": channels,
        "host": host_state,
        "cores": cores,
        "nda_host": nda_state,
        "rank_controllers": rank_controllers,
        "throttle": _throttle_state(system),
        "scheduler": {
            "nda_issue_opportunities": system.scheduler.nda_issue_opportunities,
            "nda_blocked_cycles": system.scheduler.nda_blocked_cycles,
        },
        "stats_component": {
            "cursor": system._stats_component._cursor,
            "rank_cursors": dict(system._stats_component._rank_cursors),
        },
        "stats": {
            "counters": dict(stats.counters._counts),
            "cycles_observed": stats.cycles_observed,
            "trackers": {key: {
                "weights": list(tracker.histogram.weights),
                "counts": list(tracker.histogram.counts),
                "busy_cycles": tracker.busy_cycles,
                "idle_cycles": tracker.idle_cycles,
                "idle_run": tracker._idle_run,
            } for key, tracker in stats.rank_trackers.items()},
        },
        "workload": _workload_state(system),
    }
    # Cancelled plans and (possibly) settled timing left stale calendar
    # entries behind; the continuing run re-derives every wake, exactly as
    # the restored system will.
    system.engine.invalidate_wakes()
    return payload


def _rank_timing_state(rt) -> Dict[str, Any]:
    # Copy the mutable containers so the payload stays frozen while the
    # checkpointed system keeps running.
    state = {slot: getattr(rt, slot) for slot in _RANK_SLOTS}
    state["act_allowed_bg"] = list(rt.act_allowed_bg)
    state["faw_window"] = deque(rt.faw_window, maxlen=rt.faw_window.maxlen)
    return state


def _workload_state(system) -> Dict[str, Any]:
    spec = system._nda_workload
    sequence = system._nda_sequence
    return {
        "spec": None if spec is None else {
            "opcode": spec.opcode.value,
            "elements_per_rank": spec.elements_per_rank,
            "cache_blocks": spec.cache_blocks,
            "async_launch": spec.async_launch,
            "matrix_columns": spec.matrix_columns,
            "continuous": spec.continuous,
            "launches": spec.launches,
        },
        "sequence": None if sequence is None else [{
            "opcode": kernel.opcode.value,
            "elements_per_rank": kernel.elements_per_rank,
            "matrix_columns": kernel.matrix_columns,
            "cache_blocks": kernel.cache_blocks,
            "async_launch": kernel.async_launch,
        } for kernel in sequence],
        "sequence_index": system._nda_sequence_index,
        "sequence_continuous": system._nda_sequence_continuous,
    }


# --------------------------------------------------------------------- #
# Restore
# --------------------------------------------------------------------- #


def _restore_config(state: Dict[str, Any]) -> SystemConfig:
    return SystemConfig(
        timing=DramTimingConfig(**state["timing"]),
        org=DramOrgConfig(**state["org"]),
        host=HostConfig(**state["host"]),
        nda=NdaConfig(**state["nda"]),
        energy=EnergyConfig(**state["energy"]),
        scheduler=SchedulerConfig(**state["scheduler"]),
        shared_banks_per_rank=state["shared_banks_per_rank"],
        seed=state["seed"],
        platform=state["platform"],
    )


def _restore_request(state: Dict[str, Any], system) -> MemoryRequest:
    request = MemoryRequest(
        addr=DramAddress._make(state["addr"]),
        is_write=state["is_write"],
        phys=state["phys"],
        core_id=state["core_id"],
        arrival_cycle=state["arrival_cycle"],
        request_id=state["request_id"],
    )
    request.outcome_recorded = state["outcome_recorded"]
    request.issued_cycle = state["issued_cycle"]
    request.completed_cycle = state["completed_cycle"]
    request.queue_seq = state["queue_seq"]
    if request.core_id >= 0 and not request.is_write:
        # Demand read: the completion routes through the host unit (lazy
        # core sync), exactly as ChopimSystem._make_host_request wires it.
        request.on_complete = (
            lambda cycle, h=system._host_component, i=request.core_id,
            p=request.phys: h.deliver_completion(i, p, cycle))
    # Launch-packet writes (core_id == -2) get their on_complete attached
    # when the NDA host's in-flight map restores; plain writebacks have none.
    return request


def _restore_queue(queue, state: Dict[str, Any], registry) -> None:
    for request_id in state["ids"]:
        request = registry[request_id]
        # push stamps queue_seq from _next_seq; pre-seeding _next_seq per
        # request reproduces the original stamps.
        queue._next_seq = request.queue_seq
        if not queue.push(request):  # pragma: no cover - capacity matches
            raise SnapshotError("queue overflow during restore")
    queue._next_seq = state["next_seq"]
    queue.version = state["version"]


def _restore_instruction(state: Dict[str, Any]) -> NdaInstruction:
    return NdaInstruction(
        opcode=NdaOpcode(state["opcode"]),
        num_elements=state["num_elements"],
        element_bytes=state["element_bytes"],
        cache_blocks=state["cache_blocks"],
        scalars=tuple(state["scalars"]),
        matrix_columns=state["matrix_columns"],
        instruction_id=state["instruction_id"],
    )


def _restore_operation(state: Dict[str, Any]) -> NdaOperation:
    operation = NdaOperation(
        opcode=NdaOpcode(state["opcode"]),
        total_elements=state["total_elements"],
        cache_blocks=state["cache_blocks"],
        element_bytes=state["element_bytes"],
        scalars=tuple(state["scalars"]),
        matrix_columns=state["matrix_columns"],
        async_launch=state["async_launch"],
        operation_id=state["operation_id"],
    )
    operation.launched_cycle = state["launched_cycle"]
    operation.completed_cycle = state["completed_cycle"]
    operation.outstanding_instructions = state["outstanding_instructions"]
    return operation


def _restore_work(state: Dict[str, Any], instructions, operations,
                  nda_host) -> RankWorkItem:
    work = RankWorkItem(
        instruction=instructions[state["instruction_id"]],
        operand_banks=list(state["operand_banks"]),
        operand_base_rows=list(state["operand_base_rows"]),
        output_bank=state["output_bank"],
        output_base_row=state["output_base_row"],
        launched_cycle=state["launched_cycle"],
        completed_cycle=state["completed_cycle"],
        operation_id=state["operation_id"],
    )
    if state["has_on_complete"]:
        work.on_complete = nda_host._piece_completion_callback(
            operations[work.operation_id])
    return work


def _restore_packet(state: Dict[str, Any], instructions, operations,
                    nda_host):
    from repro.nda.launch import NdaPacket

    return NdaPacket(
        channel=state["channel"],
        rank=state["rank"],
        work=_restore_work(state["work"], instructions, operations, nda_host),
        control_address=DramAddress._make(state["control_address"]),
        enqueued=state["enqueued"],
    )


def restore_system(payload: Dict[str, Any]):
    """Rebuild a :class:`ChopimSystem` from a ``snapshot_system`` payload.

    The system is constructed fresh from the recorded build spec, then
    every serialized component is overwritten in place; derived state
    (wake calendar, scan caches, probe caches) is left cold and recomputes
    to identical values on first use.
    """
    from repro.core.system import ChopimSystem, NdaKernelSpec, _NdaWorkloadSpec

    if payload.get("kind") != "chopim-system":
        raise SnapshotError(
            f"payload kind {payload.get('kind')!r} is not a chopim-system "
            "snapshot")
    build = payload["build"]
    config = _restore_config(build["config"])
    system = ChopimSystem(
        config=config,
        mode=AccessMode(build["mode"]),
        mix=build["mix"],
        throttle=build["throttle"],
        stochastic_probability=build["stochastic_probability"],
        launch_packets_use_channel=build["launch_packets_use_channel"],
        collect_energy=build["collect_energy"],
        engine=build["engine"],
    )
    if system.burst_enabled != build["burst_enabled"]:
        raise SnapshotError(
            f"burst-issue mismatch: snapshot taken with burst_enabled="
            f"{build['burst_enabled']}, this process resolves it to "
            f"{system.burst_enabled} (check REPRO_DISABLE_BURST); resumes "
            "must run under the same burst configuration to stay bit-exact")

    watermarks = payload["watermarks"]
    set_request_id_watermark(watermarks["request"])
    set_instruction_id_watermark(watermarks["instruction"])
    set_operation_id_watermark(watermarks["operation"])

    system.now = payload["now"]
    system._measure_start = payload["measure_start"]
    if payload["run_end"] is not None:
        system._run_end = payload["run_end"]
        system._run_cycles = payload["run_cycles"]
    system.rng.setstate(payload["rng"])

    # ---- DRAM device + timing ---------------------------------------- #
    dram = payload["dram"]
    system.dram.counts = type(system.dram.counts)(**dram["counts"])
    system.dram.channel_issue_version[:] = dram["channel_issue_version"]
    for bank, state in zip(system.dram._banks, dram["banks"]):
        bank.state = BankState(state["state"])
        bank.open_row = state["open_row"]
        bank.row_hits = state["row_hits"]
        bank.row_misses = state["row_misses"]
        bank.row_conflicts = state["row_conflicts"]
        bank.activates = state["activates"]
        bank.precharges = state["precharges"]
        bank.reads = state["reads"]
        bank.writes = state["writes"]
        bank.nda_reads = state["nda_reads"]
        bank.nda_writes = state["nda_writes"]
    timing = system.dram.timing
    timing_state = payload["timing"]
    for rt, state in zip(timing._ranks, timing_state["ranks"]):
        for slot in _RANK_SLOTS:
            value = state[slot]
            if slot == "act_allowed_bg":
                value = list(value)
            elif slot == "faw_window":
                value = deque(value, maxlen=value.maxlen)
            setattr(rt, slot, value)
    for bt, values in zip(timing._banks, timing_state["banks"]):
        for slot, value in zip(_BANK_SLOTS, values):
            setattr(bt, slot, value)
    for ct, state in zip(timing._channels, timing_state["channels"]):
        for slot in _CHANNEL_SLOTS:
            setattr(ct, slot, state[slot])
    timing._channel_refresh_due[:] = timing_state["channel_refresh_due"]
    timing._issue_versions[:] = timing_state["issue_versions"]
    timing._row_versions[:] = timing_state["row_versions"]

    # ---- requests ------------------------------------------------------ #
    registry = {request_id: _restore_request(state, system)
                for request_id, state in payload["requests"].items()}

    # ---- channel controllers ------------------------------------------- #
    for ch, state in payload["channels"].items():
        mc = system.channel_controllers[ch]
        _restore_queue(mc.read_queue, state["read_queue"], registry)
        _restore_queue(mc.write_queue, state["write_queue"], registry)
        mc.counters._counts = dict(state["counters"])
        latency = state["read_latency"]
        mc.read_latency.count = latency["count"]
        mc.read_latency.total = latency["total"]
        mc.read_latency.minimum = latency["minimum"]
        mc.read_latency.maximum = latency["maximum"]
        mc._completions = [_PendingCompletion(cycle, registry[request_id])
                           for cycle, request_id in state["completions"]]
        mc._completions_min = state["completions_min"]
        mc.inflight_completions = state["inflight_completions"]
        mc._draining_writes = state["draining_writes"]
        mc._last_issue_was_write = state["last_issue_was_write"]
        mc.last_issue_cycle = state["last_issue_cycle"]
        mc.last_issue_rank = state["last_issue_rank"]
        mc.last_tick_cycle = state["last_tick_cycle"]
        mc.published_wake = state["published_wake"]
        mc._issue_hint = state["issue_hint"]

    # ---- host unit + cores --------------------------------------------- #
    host = system._host_component
    host_state = payload["host"]
    host._cursors[:] = host_state["cursors"]
    host._completions = [
        (cycle, seq, registry[request_id],
         system.channel_controllers[channel])
        for cycle, seq, request_id, channel in host_state["completions"]]
    host._completion_seq = host_state["completion_seq"]
    host.completion_bound = host_state["completion_bound"]
    host.backlog_requests = host_state["backlog_requests"]
    for backlog, ids in zip(system._core_backlog,
                            host_state["core_backlog"]):
        backlog.extend(registry[request_id] for request_id in ids)

    for core, state in zip(system.cores, payload["cores"]):
        for field in _CORE_FIELDS:
            setattr(core, field, state[field])
        core._outstanding = [_OutstandingMiss(phys, issued_fp, blocking)
                             for phys, issued_fp, blocking
                             in state["outstanding"]]
        core._pending_requests = [tuple(p)
                                  for p in state["pending_requests"]]
        core.rng.setstate(state["rng"])
        traffic_state = state["traffic"]
        traffic = core.traffic
        traffic._current_line = traffic_state["current_line"]
        traffic._recent_lines = deque(
            traffic_state["recent_lines"],
            maxlen=traffic._recent_lines.maxlen)
        traffic.generated_reads = traffic_state["generated_reads"]
        traffic.generated_writes = traffic_state["generated_writes"]
        traffic.rng.setstate(traffic_state["rng"])

    # ---- NDA instruction/operation tables ------------------------------- #
    instructions = {iid: _restore_instruction(state)
                    for iid, state in payload["instructions"].items()}
    operations = {oid: _restore_operation(state)
                  for oid, state in payload["operations"].items()}

    nda = system.nda_host
    nda_state = payload["nda_host"]
    if nda is not None and nda_state is not None:
        nda._operation_queue = deque(operations[oid]
                                     for oid in nda_state["operation_queue"])
        active = nda_state["active_blocking"]
        nda._active_blocking = operations[active] if active is not None else None
        for key, placer_state in nda_state["placers"].items():
            placer = nda._placers[key]
            placer._row_cursor = dict(placer_state["row_cursor"])
            placer._next_bank = placer_state["next_bank"]
        nda._control_column = nda_state["control_column"]
        nda._pending_packets = deque(
            _restore_packet(state, instructions, operations, nda)
            for state in nda_state["pending_packets"])
        for request_id, packet_state in nda_state["inflight"]:
            packet = _restore_packet(packet_state, instructions, operations,
                                     nda)
            nda._inflight[request_id] = packet
            # The in-flight control write delivers this exact packet object
            # on completion (identity: _deliver pops the map by it).
            registry[request_id].on_complete = (
                lambda cycle, p=packet, n=nda: n._deliver(p, cycle))
        nda.operations_launched = nda_state["operations_launched"]
        nda.operations_completed = nda_state["operations_completed"]
        nda.packets_sent = nda_state["packets_sent"]

    # ---- rank controllers ----------------------------------------------- #
    for key, state in payload["rank_controllers"].items():
        rc = system.rank_controllers[key]
        # Direct appends: NdaRankController.enqueue would overwrite
        # launched_cycle and fire the wake listener.
        rc._queue = deque(_restore_work(work, instructions, operations, nda)
                          for work in state["queue"])
        if state["active"] is not None:
            work = _restore_work(state["active"]["work"], instructions,
                                 operations, nda)
            exec_state = _ExecutionState(work,
                                         system.dram.org.columns_per_row)
            for field in _EXEC_FIELDS:
                setattr(exec_state, field, state["active"][field])
            rc._active = exec_state
        wb_state = state["write_buffer"]
        wb = rc.write_buffer
        wb.length = wb_state["length"]
        wb._draining = wb_state["draining"]
        wb.total_enqueued = wb_state["total_enqueued"]
        wb.total_drained = wb_state["total_drained"]
        fsm_state = state["fsm"]
        for field in _FSM_FIELDS:
            setattr(rc.fsm._device, field, fsm_state["device"][field])
            setattr(rc.fsm._host, field, fsm_state["host"][field])
        rc.fsm.events_applied = fsm_state["events_applied"]
        rc.fsm._log = deque(fsm_state["log"],
                            maxlen=rc.fsm._log.maxlen)
        for pe, pe_state in zip(rc.pes, state["pes"]):
            for field in _PE_STAT_FIELDS:
                setattr(pe.stats, field, pe_state["stats"][field])
            current = pe_state["current"]
            pe._current = instructions[current] if current is not None else None
        rc.burst_truncations = dict(state["burst_truncations"])
        rc.burst_commands_by_class = dict(state["burst_commands_by_class"])
        for field in _RC_COUNTER_FIELDS:
            setattr(rc, field, state[field])

    # ---- throttle policy ------------------------------------------------- #
    throttle_state = payload["throttle"]
    if throttle_state is not None:
        policy = system.throttle_policy
        if policy.name != throttle_state["name"]:  # pragma: no cover
            raise SnapshotError(
                f"throttle mismatch: snapshot has {throttle_state['name']!r},"
                f" rebuilt system has {policy.name!r}")
        if policy.name == "stochastic_issue":
            policy.attempts = throttle_state["attempts"]
            policy.allowed = throttle_state["allowed"]
            policy.rng.setstate(throttle_state["rng"])
        elif policy.name == "next_rank_prediction":
            policy.inhibits = throttle_state["inhibits"]
            policy.checks = throttle_state["checks"]

    # ---- scheduler / statistics ------------------------------------------ #
    scheduler_state = payload["scheduler"]
    system.scheduler.nda_issue_opportunities = (
        scheduler_state["nda_issue_opportunities"])
    system.scheduler.nda_blocked_cycles = scheduler_state["nda_blocked_cycles"]
    sc_state = payload["stats_component"]
    system._stats_component._cursor = sc_state["cursor"]
    system._stats_component._rank_cursors = dict(sc_state["rank_cursors"])
    stats_state = payload["stats"]
    system.stats.counters._counts = dict(stats_state["counters"])
    system.stats.cycles_observed = stats_state["cycles_observed"]
    for key, tracker_state in stats_state["trackers"].items():
        tracker = system.stats.rank_trackers[key]
        tracker.histogram.weights[:] = tracker_state["weights"]
        tracker.histogram.counts[:] = tracker_state["counts"]
        tracker.busy_cycles = tracker_state["busy_cycles"]
        tracker.idle_cycles = tracker_state["idle_cycles"]
        tracker._idle_run = tracker_state["idle_run"]

    # ---- workload --------------------------------------------------------- #
    workload = payload["workload"]
    spec_state = workload["spec"]
    if spec_state is not None:
        system._nda_workload = _NdaWorkloadSpec(
            opcode=NdaOpcode(spec_state["opcode"]),
            elements_per_rank=spec_state["elements_per_rank"],
            cache_blocks=spec_state["cache_blocks"],
            async_launch=spec_state["async_launch"],
            matrix_columns=spec_state["matrix_columns"],
            continuous=spec_state["continuous"],
            launches=spec_state["launches"],
        )
    sequence_state = workload["sequence"]
    if sequence_state is not None:
        system._nda_sequence = [NdaKernelSpec(
            opcode=NdaOpcode(kernel["opcode"]),
            elements_per_rank=kernel["elements_per_rank"],
            matrix_columns=kernel["matrix_columns"],
            cache_blocks=kernel["cache_blocks"],
            async_launch=kernel["async_launch"],
        ) for kernel in sequence_state]
    system._nda_sequence_index = workload["sequence_index"]
    system._nda_sequence_continuous = workload["sequence_continuous"]

    system.engine.invalidate_wakes()
    return system
