"""End-to-end recovery proofs for the sweep service.

Run from the repository root with ``src`` and ``tests`` on the path (the
proof's point functions are imported by module name, by the child drivers
and by spawned workers alike)::

    PYTHONPATH=src:tests python -m sweep_proofs proof \
        --points 200 --kill-after 25 --fault-rate 0.05 --seed 7

1. A clean **serial** run of a deterministic point function produces the
   expected rows (no faults, no cache — the ground truth).
2. A **child driver** runs the same sweep supervised, with crash/hang/
   corrupt faults injected at the given rate, journaling to a store; the
   parent watches the ledger and ``SIGKILL``'s the child mid-run.
3. The sweep is **resumed** in-process against the same store/plan and
   runs to completion.
4. Verification: final rows bit-identical (JSON) to the clean run, every
   row done before the kill replayed from the store (not recomputed), no
   key leased more than ``1 + max_retries`` times across both driver
   incarnations, and zero exhausted points.  Between the kill and the
   resume, ``status`` (``python -m repro.experiments.sweeprunner status``)
   reads the dead driver's directory and must count as many done keys as
   the ledger holds ``done`` records.

``drive`` is the child-driver entry point (also handy for manual kill -9
experiments); ``proof`` orchestrates the whole thing and exits non-zero on
any violated property.  The point function is pure integer math so the
proof runs anywhere in seconds, including the no-numpy CI legs.

Fault plans are arguments: the parent builds a :class:`FaultPlan` and
hands it to each child driver on the command line (``--fault-rate``,
``--seed`` / ``--fault-seed``, ``--fault-kinds``); the sweep service reads
none from the environment.

``ckpt-proof`` is the checkpoint-recovery variant: one *real simulator*
point (a ChopimSystem run made preemptible via ``run_with_checkpoint``), a
child driver that is SIGKILL'd as soon as its first mid-point checkpoint
lands on disk, and a resume that must (a) journal a ``checkpoint="resume"``
lease and (b) produce a row bit-identical to an uninterrupted run.  The parent also
restores the orphaned checkpoint file directly and finishes it in-process,
pinning the bit-exactness of the very snapshot the kill interrupted.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import repro
from repro.experiments.sweeprunner import (
    FaultPlan,
    SweepOptions,
    make_task,
    run_sweep_outcome,
)
from repro.experiments.sweeprunner import ledger as ledger_module
from repro.experiments.sweeprunner.__main__ import sweep_status
from repro.experiments.sweeprunner.checkpoint import CHECKPOINT_EVERY_ENV
from repro.experiments.sweeprunner.faults import FAULT_KINDS


def wait_until(condition, timeout: float, initial: float = 0.005,
               factor: float = 1.5, max_interval: float = 0.25) -> bool:
    """Deadline-bounded condition polling with exponential backoff.

    Returns True the moment ``condition()`` does, False once ``timeout``
    seconds have elapsed without it.  The backoff starts tight (so fast
    transitions are caught fast) and decays toward ``max_interval`` (so a
    long wait does not busy-spin the way a fixed short sleep would).
    """
    deadline = time.monotonic() + timeout
    interval = initial
    while True:
        if condition():
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        time.sleep(min(interval, remaining, max_interval))
        interval = min(interval * factor, max_interval)


def checksum_point(value: int, spin: int = 2000,
                   sleep: float = 0.0) -> Dict[str, Any]:
    """A deterministic, JSON-pure sweep point: an LCG checksum of ``value``.

    ``spin`` sets the work per point, ``sleep`` stretches wall-clock so a
    parent has time to kill a driver mid-sweep.
    """
    acc = value & 0xFFFFFFFFFFFFFFFF
    for _ in range(spin):
        acc = (acc * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
    if sleep > 0:
        time.sleep(sleep)
    return {"value": value, "checksum": acc, "spin": spin}


def proof_params(points: int, spin: int, sleep: float) -> List[Dict[str, Any]]:
    return [{"value": v, "spin": spin, "sleep": sleep}
            for v in range(points)]


def _result_row(result, cycles: int, elements: int, seed: int
                ) -> Dict[str, Any]:
    """Flatten a SimulationResult into a JSON-pure row with a full-state
    digest, so "bit-identical" covers every field, not just the flat ones."""
    import dataclasses
    import hashlib

    state = dataclasses.asdict(result)
    digest = hashlib.sha256(
        repr(sorted(state.items())).encode("utf-8")).hexdigest()
    row = {key: value for key, value in state.items()
           if isinstance(value, (int, float, str, bool))}
    row.update(cycles=cycles, elements=elements, seed=seed, digest=digest)
    return row


def simulation_point(cycles: int, elements: int,
                     seed: int = 12345) -> Dict[str, Any]:
    """A real-simulator sweep point, preemptible when checkpointing is on."""
    from repro.config import default_config
    from repro.core.modes import AccessMode
    from repro.core.system import ChopimSystem
    from repro.experiments.sweeprunner.checkpoint import run_with_checkpoint
    from repro.nda.isa import NdaOpcode

    # Fresh executions must be self-deterministic no matter what ran in
    # this process before; a checkpoint restore re-overrides the
    # watermarks.
    _reset_sim_watermarks()

    def build():
        config = default_config()
        config.seed = seed
        system = ChopimSystem(config=config, mode=AccessMode.BANK_PARTITIONED,
                              mix="mix5")
        system.set_nda_workload(NdaOpcode.AXPY, elements_per_rank=elements)
        return system

    result = run_with_checkpoint(build, cycles, warmup=100)
    return _result_row(result, cycles, elements, seed)


def _normalized(rows: List[Dict[str, Any]]) -> str:
    """JSON normal form, so store-replayed and fresh rows compare equal."""
    return json.dumps(rows, sort_keys=True, default=str)


def drive(store: Path, points: int, spin: int, sleep: float,
          fault_plan: Optional[FaultPlan], workers: int, max_retries: int,
          task_timeout: float):
    """One driver incarnation over the proof sweep (killable, resumable)."""
    options = SweepOptions(
        processes=workers, cache_dir=store, max_retries=max_retries,
        task_timeout=task_timeout, retry_backoff=0.05,
        fault_plan=fault_plan)
    return run_sweep_outcome(checksum_point,
                             proof_params(points, spin, sleep),
                             options=options)


def _reset_sim_watermarks() -> None:
    """Zero the global id counters so in-process simulator runs are
    reproducible regardless of what ran earlier in this process."""
    from repro.memctrl.request import set_request_id_watermark
    from repro.nda.isa import set_instruction_id_watermark
    from repro.nda.launch import set_operation_id_watermark

    set_request_id_watermark(0)
    set_instruction_id_watermark(0)
    set_operation_id_watermark(0)


def drive_ckpt(store: Path, cycles: int, elements: int, seed: int,
               max_retries: int = 3):
    """One driver incarnation over the single checkpoint-proof point."""
    options = SweepOptions(processes=1, cache_dir=store,
                           max_retries=max_retries, retry_backoff=0.05)
    return run_sweep_outcome(
        simulation_point,
        [{"cycles": cycles, "elements": elements, "seed": seed}],
        options=options)


def _ledger_file(store: Path) -> Optional[Path]:
    candidates = sorted((store / "ledger").glob("sweep-*.jsonl"))
    return candidates[0] if candidates else None


def make_plan(rate: float, seed: int,
              kinds: Sequence[str] = FAULT_KINDS) -> Optional[FaultPlan]:
    """The plan a driver runs under; None (no faults) at rate 0."""
    return FaultPlan(rate=rate, seed=seed, kinds=tuple(kinds)) \
        if rate > 0 else None


def plan_argv(plan: Optional[FaultPlan], seed_flag: str) -> List[str]:
    """The driver arguments :func:`make_plan` rebuilds ``plan`` from."""
    if plan is None:
        return []
    return ["--fault-rate", repr(plan.rate), seed_flag, str(plan.seed),
            "--fault-kinds", *plan.kinds]


def _spawn_driver(command: Sequence[str], **env: str) -> subprocess.Popen:
    """Start ``python -m sweep_proofs <command>`` with ``src`` and
    ``tests`` on its path, plus the extra environment ``env``."""
    child_env = dict(os.environ, **env)
    roots = [str(Path(repro.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parents[1])]
    if child_env.get("PYTHONPATH"):
        roots.append(child_env["PYTHONPATH"])
    child_env["PYTHONPATH"] = os.pathsep.join(roots)
    return subprocess.Popen([sys.executable, "-m", "sweep_proofs", *command],
                            env=child_env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _kill_mid_run(child: subprocess.Popen, store: Path, kill_after: int,
                  deadline_seconds: float = 120.0) -> int:
    """SIGKILL the child once its ledger shows ``kill_after`` done rows."""
    done = 0

    def ripe() -> bool:
        nonlocal done
        if child.poll() is not None:
            return True  # finished before we could kill it — still a run
        path = _ledger_file(store)
        if path is not None:
            done = ledger_module.count_events(path, "done")
            return done >= kill_after
        return False

    wait_until(ripe, deadline_seconds, initial=0.01, max_interval=0.05)
    if child.poll() is None:
        child.send_signal(signal.SIGKILL)
    child.wait(timeout=30)
    return done


def run_proof(points: int = 200, fault_rate: float = 0.05, seed: int = 7,
              kill_after: int = 25, workers: int = 4, max_retries: int = 3,
              task_timeout: float = 2.0, spin: int = 2000,
              sleep: float = 0.01, store_dir: Optional[Path] = None,
              verbose: bool = True) -> Dict[str, Any]:
    """The full crash/fault/resume proof; returns a verdict report dict."""
    import tempfile

    plan = make_plan(fault_rate, seed)
    clean = run_sweep_outcome(
        checksum_point, proof_params(points, spin, sleep=0.0),
        options=SweepOptions(processes=1, cache_dir=""))
    assert clean.ok and len(clean.rows) == points
    # sleep only pads the faulty run's wall clock; rows don't include it.
    expected = _normalized(clean.rows)

    with tempfile.TemporaryDirectory(prefix="repro-sweep-proof-") as tmp:
        store = Path(store_dir) if store_dir is not None else Path(tmp)
        child = _spawn_driver([
            "drive", "--store", str(store), "--points", str(points),
            "--spin", str(spin), "--sleep", str(sleep),
            "--workers", str(workers), "--max-retries", str(max_retries),
            "--task-timeout", str(task_timeout),
            *plan_argv(plan, "--seed")])
        done_at_kill = _kill_mid_run(child, store, kill_after)
        child_finished = child.returncode == 0
        # What the dead driver left, as the status command reads it.
        status_done = sum(report["totals"]["done"]
                          for report in sweep_status(store))
        ledger_path = _ledger_file(store)
        done_records = (ledger_module.count_events(ledger_path, "done")
                        if ledger_path is not None else 0)

        resumed = drive(store, points, spin, sleep, plan, workers,
                        max_retries, task_timeout)

        ledger_path = _ledger_file(store)
        leases = (ledger_module.lease_counts(ledger_path)
                  if ledger_path is not None else {})
        tasks = [make_task(checksum_point, p)
                 for p in proof_params(points, spin, sleep)]
        keys = {t.cache_key() for t in tasks}

        report = {
            "points": points,
            "fault_rate": fault_rate,
            "seed": seed,
            "done_at_kill": done_at_kill,
            "child_finished_before_kill": child_finished,
            "status_done_at_kill": status_done,
            "ledger_done_records_at_kill": done_records,
            "rows_match": _normalized(resumed.rows) == expected,
            "failures": len(resumed.failures),
            "resumed_flag": resumed.stats.resumed,
            "cache_hits_on_resume": resumed.stats.cache_hits,
            "recovered_at_least_kill_count":
                resumed.stats.cache_hits >= min(done_at_kill, points),
            "max_leases_observed": max(leases.values()) if leases else 0,
            "lease_bound": 1 + max_retries,
            "lease_bound_held":
                all(count <= 1 + max_retries for count in leases.values()),
            "leases_on_known_keys": all(key in keys for key in leases),
            "retries": resumed.stats.retries,
            "worker_respawns": resumed.stats.worker_respawns,
            "timeouts": resumed.stats.timeouts,
            "crashes": resumed.stats.crashes,
            "corrupt_rows": resumed.stats.corrupt_rows,
        }
        report["ok"] = bool(
            report["rows_match"]
            and report["failures"] == 0
            and report["lease_bound_held"]
            and report["leases_on_known_keys"]
            and (child_finished or report["resumed_flag"])
            and (child_finished or report["recovered_at_least_kill_count"])
            and (child_finished or status_done == done_records))
    if verbose:
        print(json.dumps(report, indent=2))
    return report


def run_ckpt_proof(cycles: int = 12000, elements: int = 1 << 12,
                   seed: int = 12345, every: int = 400,
                   max_retries: int = 3, store_dir: Optional[Path] = None,
                   verbose: bool = True) -> Dict[str, Any]:
    """Kill a driver mid-point, resume from its checkpoint, prove bit-exactness."""
    import tempfile

    from repro.snapshot import SnapshotError, read_snapshot, restore_system

    # Direct call, no slot armed: the uninterrupted ground truth.
    _reset_sim_watermarks()
    baseline = simulation_point(cycles=cycles, elements=elements, seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-ckpt-proof-") as tmp:
        store = Path(store_dir) if store_dir is not None else Path(tmp)
        ckpt_dir = store / "checkpoints"

        child = _spawn_driver(
            ["drive-ckpt", "--store", str(store), "--cycles", str(cycles),
             "--elements", str(elements), "--seed", str(seed),
             "--max-retries", str(max_retries)],
            **{CHECKPOINT_EVERY_ENV: str(every)})

        # Kill the driver the moment its first mid-point checkpoint is
        # durable — the sharpest possible "crashed mid-point" cut.
        wait_until(lambda: child.poll() is not None
                   or (ckpt_dir.is_dir() and any(ckpt_dir.glob("*.ckpt"))),
                   180.0, initial=0.005, max_interval=0.05)
        killed = child.poll() is None
        if killed:
            child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child_finished = child.returncode == 0

        # Leg 1: restore the orphaned checkpoint file directly and finish
        # it in-process — the snapshot itself must be bit-exact.
        direct_match = None
        orphan = sorted(ckpt_dir.glob("*.ckpt")) if ckpt_dir.is_dir() else []
        if orphan:
            try:
                restored = restore_system(read_snapshot(orphan[0]))
                direct_row = _result_row(restored.finish_run(),
                                         cycles, elements, seed)
                direct_match = direct_row == baseline
            except SnapshotError as exc:
                direct_match = False
                if verbose:
                    print(f"direct restore failed: {exc}", file=sys.stderr)

        # Leg 2: resume through the sweep service.
        previous_every = os.environ.get(CHECKPOINT_EVERY_ENV)
        os.environ[CHECKPOINT_EVERY_ENV] = str(every)
        _reset_sim_watermarks()  # restore overrides these; fresh runs need 0
        try:
            resumed = drive_ckpt(store, cycles, elements, seed, max_retries)
        finally:
            if previous_every is None:
                os.environ.pop(CHECKPOINT_EVERY_ENV, None)
            else:
                os.environ[CHECKPOINT_EVERY_ENV] = previous_every

        ledger_path = _ledger_file(store)
        leases = (ledger_module.lease_counts(ledger_path)
                  if ledger_path is not None else {})
        resumes = (ledger_module.lease_counts(ledger_path, "resume")
                   if ledger_path is not None else {})

        report = {
            "cycles": cycles,
            "checkpoint_every": every,
            "child_finished_before_kill": child_finished,
            "killed_mid_point": killed and not child_finished,
            "checkpoint_seen": bool(orphan),
            "direct_restore_match": direct_match,
            "rows_match": _normalized(resumed.rows) == _normalized([baseline]),
            "failures": len(resumed.failures),
            "resumed_leases": max(resumes.values()) if resumes else 0,
            "max_leases_observed": max(leases.values()) if leases else 0,
            "lease_bound": 1 + max_retries,
            "lease_bound_held":
                all(count <= 1 + max_retries for count in leases.values()),
            "checkpoint_cleaned":
                not (ckpt_dir.is_dir() and any(ckpt_dir.glob("*.ckpt"))),
            "ledger_compacted":
                ledger_path is not None
                and ledger_module.count_events(ledger_path, "snapshot") == 1,
        }
        report["ok"] = bool(
            report["rows_match"]
            and report["failures"] == 0
            and report["lease_bound_held"]
            and report["ledger_compacted"]
            and (child_finished
                 or (report["checkpoint_seen"]
                     and report["direct_restore_match"]
                     and report["resumed_leases"] >= 1
                     and report["checkpoint_cleaned"])))
    if verbose:
        print(json.dumps(report, indent=2))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m sweep_proofs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    proof = sub.add_parser("proof", help="full crash/fault/resume proof")
    proof.add_argument("--points", type=int, default=200)
    proof.add_argument("--fault-rate", type=float, default=0.05)
    proof.add_argument("--seed", type=int, default=7, help="fault seed")
    proof.add_argument("--kill-after", type=int, default=25,
                       help="done rows in the ledger before the driver "
                            "is SIGKILLed")
    proof.add_argument("--workers", type=int, default=4)
    proof.add_argument("--max-retries", type=int, default=3)
    proof.add_argument("--task-timeout", type=float, default=2.0)
    proof.add_argument("--spin", type=int, default=2000)
    proof.add_argument("--sleep", type=float, default=0.01)

    driver = sub.add_parser("drive", help="one killable driver incarnation")
    driver.add_argument("--store", type=Path, required=True)
    driver.add_argument("--points", type=int, default=200)
    driver.add_argument("--spin", type=int, default=2000)
    driver.add_argument("--sleep", type=float, default=0.01)
    driver.add_argument("--workers", type=int, default=4)
    driver.add_argument("--max-retries", type=int, default=3)
    driver.add_argument("--task-timeout", type=float, default=2.0)
    driver.add_argument("--fault-rate", type=float, default=0.0)
    driver.add_argument("--seed", type=int, default=0, help="fault seed")
    driver.add_argument("--fault-kinds", nargs="+", choices=FAULT_KINDS,
                        default=FAULT_KINDS)

    ckpt = sub.add_parser("ckpt-proof",
                          help="kill-mid-point checkpoint/resume proof")
    ckpt.add_argument("--cycles", type=int, default=12000)
    ckpt.add_argument("--elements", type=int, default=1 << 12)
    ckpt.add_argument("--seed", type=int, default=12345)
    ckpt.add_argument("--every", type=int, default=400,
                      help="checkpoint interval in simulated cycles")
    ckpt.add_argument("--max-retries", type=int, default=3)

    ckpt_driver = sub.add_parser(
        "drive-ckpt", help="one killable driver over the checkpoint point")
    ckpt_driver.add_argument("--store", type=Path, required=True)
    ckpt_driver.add_argument("--cycles", type=int, default=12000)
    ckpt_driver.add_argument("--elements", type=int, default=1 << 12)
    ckpt_driver.add_argument("--seed", type=int, default=12345)
    ckpt_driver.add_argument("--max-retries", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "proof":
            report = run_proof(
                points=args.points, fault_rate=args.fault_rate,
                seed=args.seed, kill_after=args.kill_after,
                workers=args.workers, max_retries=args.max_retries,
                task_timeout=args.task_timeout,
                spin=args.spin, sleep=args.sleep)
            return 0 if report["ok"] else 1
        if args.command == "ckpt-proof":
            report = run_ckpt_proof(
                cycles=args.cycles, elements=args.elements, seed=args.seed,
                every=args.every, max_retries=args.max_retries)
            return 0 if report["ok"] else 1
        if args.command == "drive-ckpt":
            outcome = drive_ckpt(args.store, args.cycles, args.elements,
                                 args.seed, args.max_retries)
            print(f"drive-ckpt: {outcome.stats.completed} completed, "
                  f"{len(outcome.failures)} failed")
            return 0 if outcome.ok else 1
        outcome = drive(args.store, args.points, args.spin, args.sleep,
                        make_plan(args.fault_rate, args.seed, args.fault_kinds),
                        args.workers, args.max_retries, args.task_timeout)
        print(f"drive: {outcome.stats.completed} completed, "
              f"{len(outcome.failures)} failed")
        return 0 if outcome.ok else 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
