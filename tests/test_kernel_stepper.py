"""Micro-oracles for the resident multi-cycle stepper and compiled core.

The system-level suites (engine equivalence, snapshot fuzz) prove the
stepper end-to-end; these tests localize failures to the fused core:

* **compiled vs pure-Python differential** — ``repro_step`` and ``py_step``
  on identical live state must return the same status, the same issue
  evidence, and leave bit-identical core arrays;
* **fused window vs scalar single-cycle steps** — one ``step(t, t+K)``
  call must equal K successive ``step(t', t'+1)`` calls: same exit, same
  retry cursors, same settled state (the whole point of the fused loop is
  that it changes dispatch count, never results);
* **boundary-exit pin** — the fused call hands control back at *exactly*
  the first cycle holding an issuable request, checked against an
  independent scalar FR-FCFS scan (with the Python settlement replay) over
  every cycle of the window;
* **snapshot through a stepper-active run** — checkpointing a stepper run
  perturbs nothing, restores bit-identically, and restoring under a
  different stepper configuration is refused with an actionable error.
"""

import dataclasses
import random

import pytest

from repro.kernel import compiled_available, kernel_available

if not kernel_available():
    pytest.skip("numpy unavailable: kernel backend off",
                allow_module_level=True)

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.experiments.common import resolve_config
from repro.kernel.core import layout
from repro.kernel.core.pycore import py_step
from repro.kernel.scan import _KIND_COMMANDS
from repro.memctrl.frfcfs import FrFcfsScheduler
from repro.memctrl.request import set_request_id_watermark
from repro.nda.isa import NdaOpcode, set_instruction_id_watermark
from repro.nda.launch import set_operation_id_watermark
from repro.snapshot import (
    SnapshotError,
    dumps,
    loads,
    restore_system,
    snapshot_system,
)

requires_compiled = pytest.mark.skipif(
    not compiled_available(), reason="no C toolchain: compiled core off")


def _stepper_system(seed):
    """A stepper-active system advanced to a seed-dependent live state."""
    rng = random.Random(seed)
    mode, mix, opcode = rng.choice([
        (AccessMode.HOST_ONLY, "mix1", None),
        (AccessMode.SHARED, "mix5", NdaOpcode.AXPY),
        (AccessMode.BANK_PARTITIONED, "mix1", NdaOpcode.DOT),
        (AccessMode.RANK_PARTITIONED, "mix8", NdaOpcode.COPY),
    ])
    platform = rng.choice([None, "ddr4-3200", "ddr5-4800"])
    system = ChopimSystem(
        config=resolve_config(platform, rng.choice([1, 2]), 2),
        mode=mode, mix=mix, engine="event", backend="kernel")
    if opcode is not None:
        system.set_nda_workload(opcode, elements_per_rank=1 << 12)
    system.run(cycles=rng.randrange(300, 900), warmup=0)
    assert system.kernel_stepper is not None
    return system


def _save_core(state):
    """Copies of every mutable core array (the full repro_step footprint)."""
    return {name: getattr(state, name).copy()
            for name in layout.POINTER_CELLS}


def _restore_core(state, saved):
    for name, array in saved.items():
        getattr(state, name)[:] = array


def _core_equal(state, saved):
    return {name: np.array_equal(getattr(state, name), saved[name])
            for name in layout.POINTER_CELLS}


def _compiled_step(stepper, t_start, t_end):
    """One raw ``repro_step`` call; returns (status, out[0:11])."""
    import ctypes

    out = np.zeros(11, dtype=np.int64)
    status = stepper._lib.repro_step(
        stepper._ctx_ptr, t_start, t_end,
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)))
    return status, out


def _python_step(stepper, t_start, t_end):
    out = [0] * 11
    status = py_step(stepper.state, t_start, t_end, out)
    return status, np.asarray(out, dtype=np.int64)


class TestCompiledVsPythonStep:
    """``repro_step`` and ``py_step`` are bit-identical twins."""

    @requires_compiled
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 7), offset=st.integers(0, 40),
           width=st.integers(1, 300))
    def test_status_evidence_and_state_agree(self, seed, offset, width):
        system = _stepper_system(seed)
        stepper = system.kernel_stepper
        stepper._sync_plans()
        state = stepper.state
        t = system.now + offset
        state.next_try[:] = t
        before = _save_core(state)

        status_c, out_c = _compiled_step(stepper, t, t + width)
        after_c = _save_core(state)

        _restore_core(state, before)
        status_py, out_py = _python_step(stepper, t, t + width)

        assert status_c == status_py
        if status_c == 1:
            assert np.array_equal(out_c, out_py), (
                f"issue evidence diverged: C={out_c.tolist()} "
                f"py={out_py.tolist()}")
        mismatch = [name for name, same in _core_equal(state, after_c).items()
                    if not same]
        assert not mismatch, f"core arrays diverged on {mismatch}"


class TestFusedVsScalarSteps:
    """step(t, t+K) == K single-cycle step(t', t'+1) calls."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 7), width=st.integers(1, 200))
    def test_fused_window_equals_single_cycle_loop(self, seed, width):
        system = _stepper_system(seed + 50)
        stepper = system.kernel_stepper
        stepper._sync_plans()
        state = stepper.state
        t = system.now
        state.next_try[:] = t
        before = _save_core(state)

        step = (_compiled_step if stepper.compiled else _python_step)
        status_fused, out_fused = step(stepper, t, t + width)
        after_fused = _save_core(state)

        _restore_core(state, before)
        status_scalar, out_scalar = 0, None
        cycle = t
        while cycle < t + width:
            status_scalar, out_scalar = step(stepper, cycle, cycle + 1)
            if status_scalar:
                break
            cycle += 1

        assert status_fused == status_scalar
        if status_fused == 1:
            assert np.array_equal(out_fused, out_scalar), (
                "fused and single-cycle runs disagree on the issue: "
                f"{out_fused.tolist()} vs {out_scalar.tolist()}")
        # Retry cursors may legitimately differ: the fused loop's cursors
        # are sound bounds derived once, the single-cycle loop re-derives
        # them per call — but the settled DRAM/plan state must match.
        mutable = [name for name in layout.POINTER_CELLS
                   if name != "next_try"]
        mismatch = [name for name in mutable
                    if not np.array_equal(getattr(state, name),
                                          after_fused[name])]
        assert not mismatch, f"settled state diverged on {mismatch}"


class TestBoundaryExitPin:
    """The fused call returns at exactly the first issuable cycle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_exit_is_first_issuable_cycle(self, seed):
        system = _stepper_system(seed + 100)
        stepper = system.kernel_stepper
        stepper._sync_plans()
        state = stepper.state
        t = system.now
        width = 400
        state.next_try[:] = t
        before = _save_core(state)

        step = (_compiled_step if stepper.compiled else _python_step)
        status, out = step(stepper, t, t + width)
        exit_cycle = out[0] if status else t + width
        _restore_core(state, before)

        # Independent oracle: scalar FR-FCFS scan with the Python
        # settlement replay, cycle by cycle.  No cycle before the exit may
        # hold an issuable request; the exit cycle (on an issue exit) must
        # hold exactly the winner the core reported.
        scalar = FrFcfsScheduler(system.dram)
        controllers = list(system.channel_controllers.values())
        for cycle in range(t, exit_cycle):
            for controller in controllers:
                if controller.burst_settler is not None:
                    controller.burst_settler(cycle)
                for queue in (controller.read_queue, controller.write_queue):
                    pick, _, _ = scalar._select_bucketed(queue, cycle)
                    assert pick is None, (
                        f"scalar scan finds an issuable request at {cycle}, "
                        f"but the stepper ran through to {exit_cycle}")
        if status:
            channel, qsel = out[1], out[2]
            controller = system.channel_controllers[channel]
            if controller.burst_settler is not None:
                controller.burst_settler(exit_cycle)
            queue = (controller.write_queue if qsel
                     else controller.read_queue)
            pick, _, _ = scalar._select_bucketed(queue, exit_cycle)
            assert pick is not None, (
                "stepper exited claiming an issue but the scalar scan "
                f"finds nothing issuable at {exit_cycle}")
            request, command = pick
            arrays = controller.scheduler._arrays_for(queue)
            assert request.request_id == arrays.requests[out[3]].request_id
            assert command.kind == _KIND_COMMANDS[out[4]]
            if qsel == 1:
                read_pick, _, _ = scalar._select_bucketed(
                    controller.read_queue, exit_cycle)
                assert read_pick is None, (
                    "write won the window exit while the read queue was "
                    "issuable — read priority violated")


def _drain_run_system():
    """A stepper-active colocated COPY system stopped while some rank holds
    a live mid-instruction write plan (``drain_run``) with at least three
    commands still unsettled; returns (system, rank controller)."""
    config = dataclasses.replace(resolve_config(None, 2, 2),
                                 shared_banks_per_rank=2)
    system = ChopimSystem(config=config, mode=AccessMode.BANK_PARTITIONED,
                          mix="mix1", throttle="next_rank", engine="event",
                          backend="kernel")
    system.set_nda_workload(NdaOpcode.COPY, elements_per_rank=1 << 13)
    system.run(cycles=300, warmup=0)
    for _ in range(400):
        for controller in system.rank_controllers.values():
            plan = controller._plan
            if (plan is not None and plan.cls == "drain_run"
                    and plan.count - plan.idx >= 3
                    and plan.start + (plan.idx + 2) * plan.step + 1
                    < plan.end):
                return system, controller
        # Run boundaries settle but keep live plans.
        system.run(cycles=5, warmup=0)
    raise AssertionError("no live drain_run plan found")


class TestWritePlanSettlement:
    """Mid-instruction write plans settle inside fused windows exactly as
    the scalar settler applies them (compiled core and pure-Python twin)."""

    @pytest.mark.parametrize("implementation", ["python", "compiled"])
    def test_window_settles_drain_run_prefix(self, implementation):
        if implementation == "compiled" and not compiled_available():
            pytest.skip("no C toolchain: compiled core off")
        system, controller = _drain_run_system()
        stepper = system.kernel_stepper
        if implementation == "compiled" and not stepper.compiled:
            pytest.skip("compiled core not bound")
        step = _compiled_step if implementation == "compiled" \
            else _python_step
        stepper._sync_plans()
        state = stepper.state
        plan = controller._plan
        rank = controller._rank_index
        settled = plan.idx
        # One cycle past the plan's third unsettled command.
        boundary = plan.start + (settled + 2) * plan.step + 1
        # Only the plan's own channel is due: the window settles it before
        # scanning, whatever the scan then finds.
        state.next_try[:] = boundary + 1
        state.next_try[controller.channel] = boundary
        before = _save_core(state)

        step(stepper, boundary, boundary + 1)
        assert state.plan_idx[rank] == settled + 3
        assert plan.idx == settled, "the core must not touch the Python plan"
        after_core = _save_core(state)

        _restore_core(state, before)
        # The scalar replay of the same boundary (every plan on the channel).
        system.channel_controllers[controller.channel].burst_settler(boundary)
        assert plan.idx == settled + 3
        mismatch = [name for name in layout.POINTER_CELLS
                    if not name.startswith("plan_") and name != "next_try"
                    and not np.array_equal(getattr(state, name),
                                           after_core[name])]
        assert not mismatch, (
            f"{implementation} core settled {mismatch} differently from "
            "the scalar settler")


def _reset_watermarks():
    set_request_id_watermark(0)
    set_instruction_id_watermark(0)
    set_operation_id_watermark(0)


class TestStepperSnapshot:
    """Checkpoint/restore through a stepper-active run."""

    @staticmethod
    def _build():
        _reset_watermarks()
        system = ChopimSystem(config=resolve_config(None, 2, 2),
                              mode=AccessMode.BANK_PARTITIONED, mix="mix1",
                              engine="event", backend="kernel")
        system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 11)
        assert system.stepper_enabled
        return system

    def test_checkpointed_run_is_bit_identical(self):
        baseline = dataclasses.asdict(
            self._build().run(cycles=1200, warmup=100))
        texts = []
        chunked = dataclasses.asdict(
            self._build().run(cycles=1200, warmup=100,
                              checkpoint_hook=lambda s: texts.append(
                                  dumps(snapshot_system(s))),
                              checkpoint_every=400))
        assert chunked == baseline, "checkpointing perturbed the stepper run"
        assert texts, "no mid-run checkpoint was taken"
        for text in texts:
            restored = restore_system(loads(text))
            assert restored.stepper_enabled, (
                "restore dropped the stepper configuration")
            result = dataclasses.asdict(restored.finish_run())
            assert result == baseline, "restored stepper run diverged"

    def test_restore_refuses_stepper_mismatch(self, monkeypatch):
        system = self._build()
        system.run(cycles=300, warmup=0)
        payload = loads(dumps(snapshot_system(system)))
        monkeypatch.setenv("REPRO_DISABLE_STEPPER", "1")
        with pytest.raises(SnapshotError, match="stepper"):
            restore_system(payload)
