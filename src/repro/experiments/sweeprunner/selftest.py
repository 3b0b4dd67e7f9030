"""End-to-end recovery proof for the sweep service.

The proof the ISSUE/CI demand, runnable as one command::

    python -m repro.experiments.sweeprunner.selftest proof \
        --points 200 --fault-rate 0.05 --kill-after 25

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
   incarnations, and zero exhausted points.

``drive`` is the child-driver entry point (also handy for manual kill -9
experiments); ``proof`` orchestrates the whole thing and exits non-zero on
any violated property.  The point function is pure integer math so the
proof runs anywhere in seconds, including the no-numpy CI legs.

``ckpt-proof`` is the checkpoint-recovery variant: one *real simulator*
point (a ChopimSystem run made preemptible via
:func:`..checkpoint.run_with_checkpoint`), a child driver that is
SIGKILL'd as soon as its first mid-point checkpoint lands on disk, and a
resume that must (a) journal a ``checkpoint="resume"`` lease and (b)
produce a row bit-identical to an uninterrupted run.  The parent also
restores the orphaned checkpoint file directly and finishes it in-process,
pinning the bit-exactness of the very snapshot the kill interrupted.

``shard-proof`` is the multi-host variant (see :mod:`.cluster`): three
driver processes with distinct host identities share one sweep directory
over real simulator points; the parent SIGKILLs one host right after its
first mid-point checkpoint lands, the survivors steal its lease (resuming
the orphaned checkpoint it left in the shared store), and the verdict
demands rows bit-identical to a clean single-host run, the global lease
bound held across every host's ledger, at least one
``checkpoint="migrated"`` lease, and a final in-process verifier pass that
executes nothing (every row served by the store).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.sweeprunner import ledger as ledger_module
from repro.experiments.sweeprunner.checkpoint import CHECKPOINT_EVERY_ENV
from repro.experiments.sweeprunner.cluster import ClusterOptions
from repro.experiments.sweeprunner.faults import (
    FAULT_RATE_ENV,
    FAULT_SEED_ENV,
    FaultPlan,
)
from repro.experiments.sweeprunner.service import (
    SweepOptions,
    run_sweep_outcome,
)
from repro.experiments.sweeprunner.tasks import make_task


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
    # this process before (multi-point shard sweeps execute several points
    # back to back); a checkpoint restore re-overrides the watermarks.
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
          task_timeout: float, progress: Optional[float] = None):
    """One driver incarnation over the proof sweep (killable, resumable)."""
    options = SweepOptions(
        processes=workers, cache_dir=store, max_retries=max_retries,
        task_timeout=task_timeout, retry_backoff=0.05,
        fault_plan=fault_plan, progress=progress)
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


def _claim_holder(store: Path, key: str) -> Optional[str]:
    """The host holding ``key``'s newest epoch claim (None while unreadable)."""
    claims = sorted((store / "claims").glob(f"{key}.epoch-*"),
                    key=lambda path: int(path.name.rsplit("-", 1)[1]))
    try:
        return json.loads(claims[-1].read_text(encoding="utf-8"))["host"]
    except (IndexError, OSError, ValueError, KeyError, TypeError):
        return None


def _spawn_child_driver(store: Path, args, env_plan: FaultPlan
                        ) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(env_plan.to_env())
    src_root = str(Path(__file__).resolve().parents[3])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro.experiments.sweeprunner.selftest",
        "drive", "--store", str(store), "--points", str(args.points),
        "--spin", str(args.spin), "--sleep", str(args.sleep),
        "--workers", str(args.workers),
        "--max-retries", str(args.max_retries),
        "--task-timeout", str(args.task_timeout),
    ]
    return subprocess.Popen(command, env=env,
                            stdout=subprocess.DEVNULL,
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

    plan = FaultPlan(rate=fault_rate, seed=seed)
    clean = run_sweep_outcome(
        checksum_point, proof_params(points, spin, sleep=0.0),
        options=SweepOptions(processes=1, cache_dir="",
                             fault_plan=FaultPlan(rate=0.0)))
    assert clean.ok and len(clean.rows) == points
    # sleep only pads the faulty run's wall clock; rows don't include it.
    expected = _normalized(clean.rows)

    with tempfile.TemporaryDirectory(prefix="repro-sweep-proof-") as tmp:
        store = Path(store_dir) if store_dir is not None else Path(tmp)
        args = argparse.Namespace(points=points, spin=spin, sleep=sleep,
                                  workers=workers, max_retries=max_retries,
                                  task_timeout=task_timeout)
        child = _spawn_child_driver(store, args, plan)
        done_at_kill = _kill_mid_run(child, store, kill_after)
        child_finished = child.returncode == 0

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
            and (child_finished or report["recovered_at_least_kill_count"]))
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

        env = dict(os.environ)
        env[CHECKPOINT_EVERY_ENV] = str(every)
        src_root = str(Path(__file__).resolve().parents[3])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-m",
             "repro.experiments.sweeprunner.selftest", "drive-ckpt",
             "--store", str(store), "--cycles", str(cycles),
             "--elements", str(elements), "--seed", str(seed),
             "--max-retries", str(max_retries)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

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


def shard_params(points: int, cycles: int, elements: int,
                 seed: int) -> List[Dict[str, Any]]:
    """Distinct real-simulator points (per-point seeds) for the shard proof."""
    return [{"cycles": cycles, "elements": elements, "seed": seed + i}
            for i in range(points)]


def drive_shard(store: Path, host: str, points: int, cycles: int,
                elements: int, seed: int, max_retries: int = 3,
                staleness: float = 1.0, heartbeat: float = 0.1,
                poll: float = 0.1,
                fault_plan: Optional[FaultPlan] = None):
    """One host's driver incarnation over the shared shard-proof sweep."""
    options = SweepOptions(
        processes=1, cache_dir=store, max_retries=max_retries,
        retry_backoff=0.05, fault_plan=fault_plan,
        cluster=ClusterOptions(host=host, heartbeat_interval=heartbeat,
                               staleness=staleness, steal_stagger=0.25,
                               poll_interval=poll))
    return run_sweep_outcome(simulation_point,
                             shard_params(points, cycles, elements, seed),
                             options=options)


def run_shard_proof(points: int = 4, cycles: int = 9000,
                    elements: int = 1 << 11, seed: int = 12345,
                    every: int = 300, hosts: int = 3, max_retries: int = 3,
                    staleness: float = 1.0, fault_rate: float = 0.1,
                    fault_seed: int = 7, store_dir: Optional[Path] = None,
                    verbose: bool = True) -> Dict[str, Any]:
    """Kill one of N cooperating hosts mid-point; prove the survivors win.

    The verdict (``report["ok"]``) requires rows bit-identical to a clean
    single-host run, zero failed points, the global lease bound held over
    the merged per-host ledgers, at least one migrated-checkpoint lease
    (unless the victim finished before the kill could land), survivors
    exiting cleanly, and a final verifier host that executes nothing.
    """
    import tempfile

    plan = (FaultPlan(rate=fault_rate, seed=fault_seed,
                      kinds=("netsplit", "steal-race"))
            if fault_rate > 0 else FaultPlan(rate=0.0))
    params = shard_params(points, cycles, elements, seed)
    clean = run_sweep_outcome(
        simulation_point, params,
        options=SweepOptions(processes=1, cache_dir="",
                             fault_plan=FaultPlan(rate=0.0)))
    assert clean.ok and len(clean.rows) == points
    expected = _normalized(clean.rows)

    with tempfile.TemporaryDirectory(prefix="repro-shard-proof-") as tmp:
        store = Path(store_dir) if store_dir is not None else Path(tmp)
        ckpt_root = store / "checkpoints"

        env = dict(os.environ)
        env.update(plan.to_env())
        env[CHECKPOINT_EVERY_ENV] = str(every)
        src_root = str(Path(__file__).resolve().parents[3])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        children: Dict[str, subprocess.Popen] = {}
        for n in range(hosts):
            host = f"shard{n}"
            children[host] = subprocess.Popen(
                [sys.executable, "-m",
                 "repro.experiments.sweeprunner.selftest", "drive-shard",
                 "--store", str(store), "--host", host,
                 "--points", str(points), "--cycles", str(cycles),
                 "--elements", str(elements), "--seed", str(seed),
                 "--max-retries", str(max_retries),
                 "--staleness", str(staleness)],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)

        # SIGKILL the first live host holding a key whose mid-point
        # checkpoint landed: its claim outlives it, and a survivor must
        # steal the lease and resume the checkpoint.
        victim: Optional[str] = None

        def checkpoint_seen() -> bool:
            nonlocal victim
            if all(c.poll() is not None for c in children.values()):
                return True  # everyone finished before any checkpoint
            for ckpt in ckpt_root.glob("*.ckpt"):
                host = _claim_holder(store, ckpt.stem)
                if host in children and children[host].poll() is None:
                    victim = host
                    return True
            return False

        wait_until(checkpoint_seen, 240.0, initial=0.005, max_interval=0.05)
        if victim is not None:
            children[victim].send_signal(signal.SIGKILL)
            children[victim].wait(timeout=30)

        survivors_ok = True
        for host, child in children.items():
            if host == victim:
                continue
            try:
                child.wait(timeout=300)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait(timeout=30)
            survivors_ok = survivors_ok and child.returncode == 0

        # Verifier host: every row must come back from the store without
        # executing anything — cross-host results are first-class.
        verifier = run_sweep_outcome(
            simulation_point, params,
            options=SweepOptions(
                processes=1, cache_dir=store, max_retries=max_retries,
                retry_backoff=0.05,
                cluster=ClusterOptions(host="verifier",
                                       heartbeat_interval=0.1,
                                       staleness=staleness,
                                       poll_interval=0.05)))

        ledger_dir = store / "ledger"
        leases = ledger_module.merged_counts(ledger_dir,
                                             ledger_module.lease_counts)
        migrated = ledger_module.merged_counts(
            ledger_dir, functools.partial(ledger_module.lease_counts,
                                          provenance="migrated"))
        keys = {make_task(simulation_point, p).cache_key() for p in params}

        report = {
            "points": points,
            "hosts": hosts,
            "victim": victim,
            "killed_mid_point": victim is not None,
            "survivors_ok": survivors_ok,
            "rows_match": _normalized(verifier.rows) == expected,
            "failures": len(verifier.failures),
            "verifier_executed": verifier.stats.executed,
            "verifier_peer_rows": verifier.stats.peer_rows,
            "ledger_files": len(
                ledger_module.sweep_ledger_paths(ledger_dir)),
            "max_leases_observed": max(leases.values()) if leases else 0,
            "lease_bound": 1 + max_retries,
            "lease_bound_held":
                all(count <= 1 + max_retries for count in leases.values()),
            "leases_on_known_keys": all(key in keys for key in leases),
            "migrated_leases": sum(migrated.values()),
        }
        report["ok"] = bool(
            report["rows_match"]
            and report["failures"] == 0
            and report["survivors_ok"]
            and report["verifier_executed"] == 0
            and report["lease_bound_held"]
            and report["leases_on_known_keys"]
            and (report["migrated_leases"] >= 1
                 or not report["killed_mid_point"]))
    if verbose:
        print(json.dumps(report, indent=2))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    proof = sub.add_parser("proof", help="full crash/fault/resume proof")
    proof.add_argument("--points", type=int, default=200)
    proof.add_argument("--fault-rate", type=float,
                       default=float(os.environ.get(FAULT_RATE_ENV) or 0.05))
    proof.add_argument("--seed", type=int,
                       default=int(os.environ.get(FAULT_SEED_ENV) or 7))
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

    shard = sub.add_parser(
        "shard-proof", help="multi-host steal/migrate proof")
    shard.add_argument("--points", type=int, default=4)
    shard.add_argument("--cycles", type=int, default=9000)
    shard.add_argument("--elements", type=int, default=1 << 11)
    shard.add_argument("--seed", type=int, default=12345)
    shard.add_argument("--every", type=int, default=300,
                       help="checkpoint interval in simulated cycles")
    shard.add_argument("--hosts", type=int, default=3)
    shard.add_argument("--max-retries", type=int, default=3)
    shard.add_argument("--staleness", type=float, default=1.0)
    shard.add_argument("--fault-rate", type=float, default=0.1,
                       help="rate for the netsplit/steal-race schedule "
                            "the child hosts run under (0 disables)")
    shard.add_argument("--fault-seed", type=int, default=7)

    shard_driver = sub.add_parser(
        "drive-shard", help="one killable host over the shared shard sweep")
    shard_driver.add_argument("--store", type=Path, required=True)
    shard_driver.add_argument("--host", required=True)
    shard_driver.add_argument("--points", type=int, default=4)
    shard_driver.add_argument("--cycles", type=int, default=9000)
    shard_driver.add_argument("--elements", type=int, default=1 << 11)
    shard_driver.add_argument("--seed", type=int, default=12345)
    shard_driver.add_argument("--max-retries", type=int, default=3)
    shard_driver.add_argument("--staleness", type=float, default=1.0)

    args = parser.parse_args(argv)
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
        if args.command == "shard-proof":
            report = run_shard_proof(
                points=args.points, cycles=args.cycles,
                elements=args.elements, seed=args.seed, every=args.every,
                hosts=args.hosts, max_retries=args.max_retries,
                staleness=args.staleness, fault_rate=args.fault_rate,
                fault_seed=args.fault_seed)
            return 0 if report["ok"] else 1
        if args.command == "drive-shard":
            outcome = drive_shard(args.store, args.host, args.points,
                                  args.cycles, args.elements, args.seed,
                                  args.max_retries, args.staleness,
                                  fault_plan=FaultPlan.from_env())
            print(f"drive-shard[{args.host}]: "
                  f"{outcome.stats.completed} completed, "
                  f"{outcome.stats.executed} executed, "
                  f"{outcome.stats.steals} stolen, "
                  f"{len(outcome.failures)} failed")
            return 0 if outcome.ok else 1
        outcome = drive(args.store, args.points, args.spin, args.sleep,
                        FaultPlan.from_env(), args.workers, args.max_retries,
                        args.task_timeout, progress=1.0)
        print(f"drive: {outcome.stats.completed} completed, "
              f"{len(outcome.failures)} failed")
        return 0 if outcome.ok else 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
