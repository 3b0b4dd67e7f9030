"""Names, units, directions and bounds of the perf ledger.

The one place a workload or metric is declared: ``run.py`` emits exactly
these names, ``run.py manifest`` renders them into ``BENCHMARK.json``, and
the smoke test asserts the three agree.
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: Seconds of timed repetitions per run (closed loop: the next repetition
#: starts when the previous one returns, until this much time has passed).
RUN_SECONDS = 12

#: (name, why it is here).  Order is the order a full suite runs them in.
WORKLOADS = [
    ("colo_read",
     "host mix1 + NDA DOT read streams sharing 2ch x 4rk: the paper's "
     "concurrent-access case; memctrl, engine loop, host and dram do the "
     "work, nda little (read streaks settle through burst plans)"),
    ("colo_write",
     "same system with NDA COPY: write buffer, throttle, drain tails and "
     "read/write turnaround put nda first; a read-streak gain that costs "
     "the write path shows here"),
    ("host_only",
     "no NDA at all (2ch x 2rk, mix1): host, FR-FCFS, dram timing and "
     "address decode do everything; an nda-layer change predicts no move"),
    ("nda_only_hbm2",
     "no host traffic, HBM2 8ch x 1rk COPY: fast-forward, burst planning "
     "and the wake calendar on a non-DDR4 geometry; a host or FR-FCFS "
     "change predicts no move"),
    ("fig_regen",
     "fig11+fig12+fig13+fig14 main() cold through the sweep service (48 "
     "real points, journal + store + workers): the unit users feel, "
     "simulator and sweeprunner both on the blocking path"),
    ("sweep_ckpt",
     "8 short preemptible points with a 1000-cycle checkpoint interval: "
     "the only workload where snapshot does real work and ledger fsyncs "
     "are not amortised over long points"),
    ("svrg_fig15",
     "fig15 main(): numpy SVRG training through the sweep service, the "
     "simulator does nothing; every simulator optimisation predicts no "
     "move, apps and worker scheduling do"),
]

#: End-to-end metrics (host time).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
]


def _layer(layer: str, *specs: str) -> List[Dict[str, str]]:
    """``"name unit better"`` triples of one layer, prefixed with its name."""
    out = []
    for spec in specs:
        name, unit, better = spec.split()
        out.append({"name": f"{layer}.{name}", "unit": unit, "better": better})
    return out


#: Per-layer metrics, one group per package of ``src/repro``.  ``calls`` are
#: boundary crossings into the layer, ``self_s`` its spans' self time and
#: ``share`` that self time over the traced repetition's wall time.
PER_LAYER = (
    _layer("trace",
           "overhead_ratio ratio lower")
    + _layer("engine",
             "cycles_processed count lower", "cycles_skipped count higher",
             "skip_ratio ratio higher", "wake_probes count lower",
             "dirty_notifications count lower", "self_s s lower",
             "share ratio lower", "ns_per_processed_cycle ns lower")
    + _layer("memctrl",
             "calls count lower", "self_s s lower", "share ratio lower",
             "scan_ns ns lower", "avg_read_latency_cyc cycles lower")
    + _layer("dram",
             "probe_calls count lower", "issue_calls count lower",
             "self_s s lower", "share ratio lower", "probe_ns ns lower",
             "activates count lower", "precharges count lower",
             "refreshes count lower", "host_row_hit_rate ratio higher",
             "nda_row_hit_rate ratio higher")
    + _layer("addressing",
             "decode_calls count lower", "self_s s lower",
             "decode_ns ns lower")
    + _layer("host",
             "calls count lower", "self_s s lower", "share ratio lower",
             "ipc 1/cycle higher", "reads count higher",
             "writes count higher")
    + _layer("nda",
             "calls count lower", "self_s s lower", "share ratio lower",
             "bursts_planned count higher", "cmds_per_burst count higher",
             "burst_cmd_frac ratio higher",
             "blocked_by_host_cyc cycles lower",
             "blocked_by_throttle_cyc cycles lower", "bw_gbs GB/s higher",
             "bytes B higher")
    + _layer("core",
             "stats_self_s s lower")
    + _layer("snapshot",
             "saves count lower", "bytes B lower", "capture_ms ms lower",
             "encode_ms ms lower", "write_ms ms lower", "restore_ms ms lower",
             "overhead_frac ratio lower")
    + _layer("sweeprunner",
             "executed count lower", "cache_hits count higher",
             "cache_misses count lower", "retries count lower",
             "driver_busy_s s lower", "ledger_append_us us lower",
             "store_put_us us lower", "store_get_us us lower",
             "ledger_bytes B lower", "cached_pass_ms ms lower")
    + _layer("apps",
             "train_calls count lower", "train_s s lower")
)

#: Per-layer metrics that are counts made by the program and therefore
#: repeat exactly for the same seed (``compare`` lists any that differ).
EXACT_REPEAT = [
    "engine.cycles_processed", "engine.cycles_skipped", "engine.skip_ratio",
    "engine.wake_probes", "engine.dirty_notifications",
    "memctrl.calls", "memctrl.avg_read_latency_cyc",
    "dram.probe_calls", "dram.issue_calls", "dram.activates",
    "dram.precharges", "dram.refreshes", "dram.host_row_hit_rate",
    "dram.nda_row_hit_rate",
    "addressing.decode_calls",
    "host.calls", "host.ipc", "host.reads", "host.writes",
    "nda.calls", "nda.bursts_planned", "nda.cmds_per_burst",
    "nda.burst_cmd_frac", "nda.blocked_by_host_cyc",
    "nda.blocked_by_throttle_cyc", "nda.bw_gbs", "nda.bytes",
    "snapshot.saves",
    "sweeprunner.executed", "sweeprunner.cache_hits",
    "sweeprunner.cache_misses", "sweeprunner.retries",
    "apps.train_calls",
]


def manifest() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }
