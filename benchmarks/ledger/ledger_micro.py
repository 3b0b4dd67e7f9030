"""Isolated per-layer microbenchmarks on state from a short ``colo_write`` run.

Each figure is the median over ``ROUNDS`` rounds of one public call (or a
short batch of calls divided by its length), so a single preempted round
does not move it.  They are independent of the workload being traced and
are reported beside every traced run.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict

from repro.addressing.bank_partition import BankPartitionMapping
from repro.addressing.mapping import skylake_mapping
from repro.dram.commands import RequestSource
from repro.experiments.sweeprunner import RunLedger, SweepCache, make_task
from repro.snapshot import (
    dumps,
    read_snapshot,
    restore_system,
    snapshot_system,
    write_snapshot,
)

import ledger_workloads

ROUNDS = 9
#: Cycles the ``colo_write`` system runs before its state is probed.
POPULATE_CYCLES = 3000
DECODE_ADDRESSES = 100_000


def median_seconds(call: Callable[[], object], rounds: int = ROUNDS) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _populated_system(seed: int):
    """A ``colo_write`` system stopped with a non-empty host read queue."""
    system = ledger_workloads.build_sim(ledger_workloads.SIMS["colo_write"],
                                        seed)
    system.run(cycles=POPULATE_CYCLES, warmup=0)
    for _ in range(POPULATE_CYCLES):
        if any(len(c.read_queue) >= 2
               for c in system.channel_controllers.values()):
            break
        system.step()
    return system


def run(seed: int, scratch: Path, smoke: bool) -> Dict[str, float]:
    """All ``*_ns`` / ``*_us`` / ``*_ms`` per-layer metrics."""
    batch = 200 if smoke else 2000
    addresses = 5000 if smoke else DECODE_ADDRESSES
    system = _populated_system(seed)
    now = system.now
    out: Dict[str, float] = {}

    # memctrl: one FR-FCFS scan of the fullest read queue (a pure function
    # of queue and DRAM state, so repeating it changes nothing).
    controller = max(system.channel_controllers.values(),
                     key=lambda c: len(c.read_queue))
    scan = controller.scheduler.select_or_horizon
    queue = controller.read_queue

    def scans() -> None:
        for _ in range(batch):
            scan(queue, now)

    out["memctrl.scan_ns"] = median_seconds(scans) / batch * 1e9

    # dram: the timing probe over the commands the queued reads need next.
    dram = system.dram
    probes = [(dram.required_command(r.addr, r.is_write), r.addr)
              for r in queue]

    sweeps = batch // len(probes) + 1

    def probe() -> None:
        earliest = dram.earliest_issue_at
        host = RequestSource.HOST
        for _ in range(sweeps):
            for kind, addr in probes:
                earliest(kind, addr, host, now)

    out["dram.probe_ns"] = (median_seconds(probe) / (sweeps * len(probes))
                            * 1e9)

    # addressing: physical -> DRAM decode, both mappings the workloads use.
    org = system.config.org
    cacheline = org.cacheline_bytes
    per_decode = []
    for mapping in (skylake_mapping(org),
                    BankPartitionMapping(
                        org, reserved_banks_per_rank=system.config
                        .shared_banks_per_rank)):
        capacity = getattr(mapping, "host_capacity_bytes",
                           mapping.capacity_bytes)
        stride = max(cacheline, (capacity // addresses) // cacheline
                     * cacheline)
        physical = [(i * stride) % capacity for i in range(addresses)]

        def decode(to_dram=mapping.to_dram, physical=physical) -> None:
            for phys in physical:
                to_dram(phys)

        per_decode.append(median_seconds(decode, rounds=3) / addresses)
    out["addressing.decode_ns"] = statistics.mean(per_decode) * 1e9

    # snapshot / sweeprunner: durable-write costs, in a scratch directory.
    directory = Path(tempfile.mkdtemp(prefix="micro-", dir=scratch))
    try:
        payload = snapshot_system(system)
        path = directory / "probe.ckpt"
        out["snapshot.capture_ms"] = median_seconds(
            lambda: snapshot_system(system)) * 1e3
        out["snapshot.encode_ms"] = median_seconds(
            lambda: dumps(payload)) * 1e3
        out["snapshot.write_ms"] = median_seconds(
            lambda: write_snapshot(path, payload)) * 1e3
        out["snapshot.restore_ms"] = median_seconds(
            lambda: restore_system(read_snapshot(path))) * 1e3

        ledger = RunLedger(directory / "ledger" / "probe.jsonl")
        attempt = itertools.count(1)

        def lease_and_done() -> None:
            number = next(attempt)
            ledger.append_leased("probe-key", number)
            ledger.append_done("probe-key", number)

        out["sweeprunner.ledger_append_us"] = median_seconds(
            lease_and_done, rounds=2 * ROUNDS) * 1e6
        ledger.close()

        store = SweepCache(directory / "store", fsync=True)
        task = make_task(ledger_workloads.ckpt_point,
                         {"seed": seed, "cycles": 0, "warmup": 0})
        row = {"seed": seed, "host_ipc": 1.0, "nda_bandwidth_gbs": 2.0}
        out["sweeprunner.store_put_us"] = median_seconds(
            lambda: store.store(task, row), rounds=2 * ROUNDS) * 1e6
        out["sweeprunner.store_get_us"] = median_seconds(
            lambda: store.load(task), rounds=2 * ROUNDS) * 1e6
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out
