#!/usr/bin/env python3
"""Perf ledger: named workloads, end-to-end metrics, per-layer trace.

    python benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/ledger/run.py [--workload NAME]... [--trace] [--out DIR]
    python benchmarks/ledger/run.py compare A.json B.json
    python benchmarks/ledger/run.py manifest > BENCHMARK.json

With exactly one ``--workload`` this process *is* the workload's fresh
interpreter: it runs the closed loop, prints every metric by name with its
unit, and ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``) — end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  With none or several, each workload runs in its own
child interpreter, one after another, and the results are gathered into
``<out>/ledger.json`` for ``compare``.

The model is unvalidated: the repository holds no reference results, so no
accuracy figure is printed.  Simulated statistics are reported only so that
a change meant to speed the simulator up can be shown to leave them alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import ledger_compare
import ledger_defs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: BLAS thread pools are pinned to one thread: unpinned, the two sweep
#: workers of ``svrg_fig15`` oversubscribe the reference box's two cores and
#: repetitions land anywhere between 7 and 13 s (see README).
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

#: Fresh-interpreter import samples, taken before and after the timed loop
#: so that one slow stretch of the box cannot cover all of them.
IMPORT_SAMPLES_BEFORE = 2
IMPORT_SAMPLES_AFTER = 3


def clean_environment() -> Dict[str, str]:
    """The environment every workload runs under.

    Drops every ``REPRO_*`` variable (workloads measure the path a user
    gets with none set), pins the BLAS pools, and puts ``src`` on the path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in BLAS_ENV:
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def describe_environment(seed: int) -> Dict[str, Any]:
    import numpy

    from repro.kernel import kernel_available

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "kernel_available": kernel_available(),
        # compiled_available() builds the C core into a cache outside the
        # checkout on first call; the default path never loads it.
        "compiled_available": "not probed",
        "seed": seed,
    }


# --------------------------------------------------------------------- #
# One workload, in this interpreter
# --------------------------------------------------------------------- #

def time_imports(modules: Sequence[str], samples: int) -> List[float]:
    """Wall time of fresh interpreters that import the workload's modules."""
    code = "import " + ", ".join(modules)
    env = clean_environment()
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        out.append(time.perf_counter() - start)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process, max with its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def typical(samples: Sequence[float]) -> float:
    """Median of the faster half of the samples.

    Load from outside the sandbox only ever slows a repetition down, and on
    the reference box it does so for stretches of 10-30 s (see README): the
    slower half of a run's samples measures the neighbours, not the
    program.  With five samples this is the second fastest, so one lucky
    repetition does not set the value either.
    """
    ordered = sorted(samples)
    return statistics.median(ordered[:(len(ordered) + 1) // 2])


def time_stats(samples: Sequence[float]) -> Dict[str, Any]:
    return {"value": typical(samples), "unit": "s",
            "median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples), "samples": list(samples)}


class Repetitions:
    """The closed loop: prepare (setup) / execute (timed) / finish."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.wall: List[float] = []
        self.prepare: List[float] = []
        self.failed = 0
        self.state: Any = None
        self.output: Any = None

    def one(self) -> float:
        workload = self.workload
        if self.state is not None:
            workload.finish(self.state)
        start = time.perf_counter()
        self.state = workload.prepare()
        self.prepare.append(time.perf_counter() - start)
        start = time.perf_counter()
        self.output, failed = workload.execute(self.state)
        elapsed = time.perf_counter() - start
        self.wall.append(elapsed)
        self.failed += failed
        return elapsed

    def run_for(self, seconds: float) -> None:
        """One repetition after another until ``seconds`` have been timed."""
        while sum(self.wall) < seconds:
            self.one()

    @property
    def attempted(self) -> int:
        return len(self.wall) * (1 + self.workload.points)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out: Path) -> int:
    """Run one workload here; print its metrics; returns the exit code."""
    import ledger_workloads  # needs src/ on the path and a clean environment

    out.mkdir(parents=True, exist_ok=True)
    environment = describe_environment(seed)
    workload = ledger_workloads.make_workload(name, seed, out, smoke)
    print(f"# workload {name}  seed {seed}  trace {int(trace)}  "
          f"work unit: {workload.work_unit}")
    print(f"# environment {json.dumps(environment, sort_keys=True)}")
    print("# model unvalidated: no reference results in the repository, "
          "no accuracy figure")

    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": int(trace),
        "smoke": smoke, "environment": environment,
    }
    if trace:
        metrics, reps, checks, trace_record = run_traced(workload, name, seed,
                                                         smoke, out)
        record.update(trace_record)
        declared = ledger_defs.PER_LAYER
    else:
        import_samples = time_imports(workload.imports,
                                      1 if smoke else IMPORT_SAMPLES_BEFORE)
        checks = workload.warm_up()
        reps = Repetitions(workload)
        if smoke:
            reps.one()
        else:
            reps.run_for(seconds)
            import_samples += time_imports(workload.imports,
                                           IMPORT_SAMPLES_AFTER)
        checks += workload.verify(reps.state, reps.output)
        workload.finish(reps.state)
        work = workload.work
        wall = time_stats(reps.wall)
        # Import time plus prepare time; the range pairs the two fastest
        # and the two slowest samples.
        setup = {
            "value": typical(import_samples) + typical(reps.prepare),
            "unit": "s",
            "min": min(import_samples) + min(reps.prepare),
            "max": max(import_samples) + max(reps.prepare),
            "n": len(import_samples),
        }
        rss = peak_rss_mb()
        # Same interval as wall_s, so printed and recorded but not a bounded
        # metric of its own: work per repetition is fixed by the workload.
        record["work_per_s"] = work / wall["value"]
        print(f"{'work_per_s':34s} {record['work_per_s']:.6g} 1/s "
              f"({workload.work_unit})")
        metrics = {
            "wall_s": wall,
            "setup_s": setup,
            "peak_rss_mb": {"value": rss, "unit": "MiB", "min": rss,
                            "max": rss, "n": 1},
        }
        declared = ledger_defs.END_TO_END

    failed_checks = [label for label, ok in checks if not ok]
    attempted = reps.attempted + len(checks)
    failed = reps.failed + len(failed_checks)
    record.update({
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "checks": {label: ok for label, ok in checks},
        "model_digest": ledger_workloads.digest(reps.output),
        "metrics": metrics,
    })

    for spec in declared:
        entry = metrics[spec["name"]]
        extra = ""
        if entry.get("n", 1) > 1:
            extra = (f"  (min {entry['min']:.6g}, max {entry['max']:.6g}, "
                     f"n={entry['n']})")
        print(f"{spec['name']:34s} {entry['value']:.6g} {entry['unit']}{extra}")
    print(f"{'failed_frac':34s} {failed}/{attempted}")
    print(f"{'model_digest':34s} {record['model_digest'][:16]}")
    for label, ok in checks:
        print(f"check {label}: {'ok' if ok else 'FAILED'}")

    (out / f"{name}.trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {spec["name"]: {"value": metrics[spec["name"]]["value"],
                                   "unit": spec["unit"]}
                    for spec in declared},
    }))
    return 0 if record["correct"] and failed == 0 else 1


def run_traced(workload, name: str, seed: int, smoke: bool, out: Path):
    """Untraced repetition, microbenchmarks, then one traced repetition."""
    import ledger_micro
    import ledger_trace

    # Sweep workloads run serially in both repetitions: worker-side spans
    # must land in this process, and the traced/untraced ratio should not
    # also compare one worker with two.
    workload.serial = True
    if workload.points:
        print("# sweep workload traced with processes=1 (worker-side spans "
              "land in the traced process)")
    checks = workload.warm_up()
    reps = Repetitions(workload)
    untraced = reps.one()
    checks += workload.verify(reps.state, reps.output)

    values = {spec["name"]: 0.0 for spec in ledger_defs.PER_LAYER}
    values.update(ledger_micro.run(seed, out, smoke))
    if name == "fig_regen":
        values["sweeprunner.cached_pass_ms"] = ledger_micro.median_seconds(
            lambda: workload.execute(reps.state),
            rounds=5 if smoke else 50) * 1e3
    if name == "sweep_ckpt":
        reference = workload.reference_wall_s
        values["snapshot.overhead_frac"] = (untraced - reference) / reference

    harvest = Harvest()
    tracer = ledger_trace.Tracer(hooks={
        "ChopimSystem.run": harvest.system_ran,
        "run_sweep_outcome": harvest.sweep_ran,
        "write_snapshot": harvest.snapshot_written,
    })
    tracer.install()
    traced = reps.one()
    values["sweeprunner.ledger_bytes"] = workload.ledger_bytes(reps.state)
    workload.finish(reps.state)

    summary = tracer.aggregate()
    values["trace.overhead_ratio"] = traced / untraced
    harvest.fill(values)
    fill_from_trace(values, summary, traced)
    trace_path = out / f"trace_{name}.jsonl"
    tracer.write(trace_path, name, summary)
    print(f"# traced wall {traced:.4f} s / untraced {untraced:.4f} s = "
          f"{traced / untraced:.3f} tracing overhead ratio; "
          f"{len(tracer.span_start)} spans -> {trace_path.name}")
    for span, entry in sorted(summary["names"].items(),
                              key=lambda item: -item[1]["self_s"]):
        if entry["count"]:
            print(f"#   {span:38s} calls={entry['count']:<8d} "
                  f"total={entry['total_s']:.4f}s self={entry['self_s']:.4f}s")
    unseen = [span for span, entry in summary["names"].items()
              if not entry["count"]]
    print(f"# boundaries with calls=0 (not reached, or not visible to the "
          f"wrapper): {', '.join(sorted(unseen)) or 'none'}")
    units = {spec["name"]: spec["unit"] for spec in ledger_defs.PER_LAYER}
    metrics = {key: {"value": value, "unit": units[key]}
               for key, value in values.items()}
    return metrics, reps, checks, {"trace_summary": summary,
                                   "wall_untraced_s": untraced,
                                   "wall_traced_s": traced}


class Harvest:
    """Counters read from the program's public stat surfaces.

    Filled by tracer hooks after ``ChopimSystem.run``, ``run_sweep_outcome``
    and ``write_snapshot`` return, so sweep workloads — whose systems live
    inside point functions — are covered the same way as single simulations.
    Every system in the seven workloads is run exactly once.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.sums: Counter = Counter()

    def add(self, key: str, amount: float) -> None:
        self.sums[key] += amount

    def system_ran(self, args, result) -> None:
        system = args[0]
        self.runs += 1
        engine = system.engine
        self.add("engine.cycles_processed", engine.cycles_processed)
        self.add("engine.cycles_skipped", engine.cycles_skipped)
        for unit in engine.wake_stats():
            self.add("engine.wake_probes", unit["wake_probes"])
            self.add("engine.dirty_notifications", unit["dirty_notifications"])
        for controller in system.channel_controllers.values():
            self.add("read_latency_total", controller.read_latency.total)
            self.add("read_latency_count", controller.read_latency.count)
        counts = system.dram.counts
        for field in ("activates", "precharges", "refreshes"):
            self.add(f"dram.{field}", getattr(counts, field))
        for field in ("host_row_hits", "host_row_conflicts", "nda_row_hits",
                      "nda_row_conflicts"):
            self.add(field, getattr(counts, field))
        self.add("host_ipc", result.host_ipc)
        self.add("host.reads", result.host_reads)
        self.add("host.writes", result.host_writes)
        self.add("nda_bw", result.nda_bandwidth_gbs)
        self.add("nda.bytes", result.nda_bytes)
        for controller in system.rank_controllers.values():
            burst = controller.burst_stats()
            stats = controller.stats()
            self.add("nda.bursts_planned", burst["bursts_planned"])
            self.add("burst_commands", burst["commands_settled"])
            self.add("nda_commands", stats["commands"])
            self.add("nda.blocked_by_host_cyc", stats["blocked_by_host"])
            self.add("nda.blocked_by_throttle_cyc",
                     stats["blocked_by_throttle"])

    def sweep_ran(self, args, outcome) -> None:
        stats = outcome.stats
        for field in ("executed", "cache_hits", "cache_misses", "retries"):
            self.add(f"sweeprunner.{field}", getattr(stats, field))

    def snapshot_written(self, args, path) -> None:
        self.add("snapshot.bytes", Path(path).stat().st_size)

    def fill(self, values: Dict[str, float]) -> None:
        sums = self.sums
        for key, value in sums.items():
            if key in values:
                values[key] = value

        def ratio(numerator: str, *denominator: str) -> float:
            total = sum(sums[key] for key in denominator)
            return sums[numerator] / total if total else 0.0

        values["engine.skip_ratio"] = ratio(
            "engine.cycles_skipped", "engine.cycles_skipped",
            "engine.cycles_processed")
        values["memctrl.avg_read_latency_cyc"] = ratio(
            "read_latency_total", "read_latency_count")
        values["dram.host_row_hit_rate"] = ratio(
            "host_row_hits", "host_row_hits", "host_row_conflicts")
        values["dram.nda_row_hit_rate"] = ratio(
            "nda_row_hits", "nda_row_hits", "nda_row_conflicts")
        # Plan counters accumulate from cycle 0 while the command count
        # restarts at the warm-up boundary (<1% of any workload's cycles).
        values["nda.cmds_per_burst"] = ratio("burst_commands",
                                             "nda.bursts_planned")
        values["nda.burst_cmd_frac"] = ratio("burst_commands", "nda_commands")
        if self.runs:
            values["host.ipc"] = sums["host_ipc"] / self.runs
            values["nda.bw_gbs"] = sums["nda_bw"] / self.runs


def fill_from_trace(values: Dict[str, float], summary: Dict[str, Any],
                    wall: float) -> None:
    """``calls`` / ``self_s`` / ``share`` metrics from the span aggregates."""
    layers = summary["layers"]
    names = summary["names"]
    for layer in ("engine", "memctrl", "dram", "addressing", "host", "nda"):
        entry = layers[layer]
        values[f"{layer}.self_s"] = entry["self_s"]
        if f"{layer}.share" in values:
            values[f"{layer}.share"] = entry["self_s"] / wall
    values["memctrl.calls"] = layers["memctrl"]["calls"]
    values["host.calls"] = layers["host"]["calls"]
    values["nda.calls"] = layers["nda"]["calls"]
    values["addressing.decode_calls"] = layers["addressing"]["calls"]
    values["dram.probe_calls"] = sum(
        entry["crossings"] for span, entry in names.items()
        if span.endswith(("earliest_issue_at", "can_issue_at")))
    values["dram.issue_calls"] = sum(
        entry["crossings"] for span, entry in names.items()
        if span.endswith((".issue", ".issue_trusted")))
    processed = values["engine.cycles_processed"]
    if processed:
        values["engine.ns_per_processed_cycle"] = (
            layers["engine"]["self_s"] / processed * 1e9)
    values["core.stats_self_s"] = sum(
        entry["self_s"] for span, entry in names.items()
        if span.startswith("StatsComponent."))
    values["snapshot.saves"] = names["write_snapshot"]["count"]
    values["sweeprunner.driver_busy_s"] = layers["sweeprunner"]["self_s"]
    values["apps.train_calls"] = layers["apps"]["calls"]
    values["apps.train_s"] = layers["apps"]["self_s"]


# --------------------------------------------------------------------- #
# Several workloads, each in a child interpreter
# --------------------------------------------------------------------- #

def run_suite(names: Sequence[str], seed: int, seconds: float, trace: bool,
              smoke: bool, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    ledger: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                              "smoke": smoke, "workloads": {}}
    status = 0
    for name in names:
        entry: Dict[str, Any] = {}
        for traced in ([0, 1] if trace else [0]):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(traced),
                       "--out", str(out)]
            if smoke:
                command.append("--smoke")
            print(f"== {name} (trace {traced})", flush=True)
            path = out / f"{name}.trace{traced}.json"
            path.unlink(missing_ok=True)  # never gather a stale record
            code = subprocess.run(command, env=clean_environment()).returncode
            status = status or code
            if path.exists():
                record = json.loads(path.read_text())
                ledger.setdefault("environment", record["environment"])
                key = "per_layer" if traced else "end_to_end"
                entry[key] = record["metrics"]
                if not traced:
                    for field in ("correct", "attempted", "failed",
                                  "failed_frac", "model_digest", "checks"):
                        entry[field] = record[field]
        ledger["workloads"][name] = entry
    path = out / "ledger.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"ledger written to {path}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["manifest"]:
        print(json.dumps(ledger_defs.manifest(), indent=2))
        return 0
    if argv[:1] == ["compare"]:
        return ledger_compare.main(argv[1:])

    known = [name for name, _ in ledger_defs.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=known,
                        help="repeatable; default: all seven, one child "
                             "interpreter each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=ledger_defs.RUN_SECONDS,
                        help="timed seconds per workload run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="2000-cycle budgets, 1 repetition, 4 sweep points")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"{SRC / 'repro'} not found: the benchmark measures the "
              "repository's own source", file=sys.stderr)
        return 2
    names = args.workload or known
    if len(names) != 1:
        return run_suite(names, args.seed, args.seconds, bool(args.trace),
                         args.smoke, args.out)
    # This process is the workload's interpreter: same environment a suite
    # child gets, set before anything of the program is imported.
    os.environ.clear()
    os.environ.update(clean_environment())
    sys.path.insert(0, str(SRC))
    return run_workload(names[0], args.seed, args.seconds, bool(args.trace),
                        args.smoke, args.out.resolve())


if __name__ == "__main__":
    sys.exit(main())
