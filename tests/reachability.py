"""Entry-point reachability: which functions of ``src/repro`` the entry points call.

    PYTHONPATH=src python tests/reachability.py

Unit tests keep every island of code alive, so reachability is measured from
the entry points instead: the nine figure ``main()``s, the five examples,
the seven ledger workloads (smoke budgets, read through
``benchmarks/ledger/ledger_workloads.py``) and the sweep ``status`` command,
run on each sweep workload's directory.  Everything runs in this process
under a ``sys.settrace`` hook that records call events only; sweeps run
in-process (one worker), figure points at a 1 500-cycle budget.

A call counts when its code object is a ``def`` in ``src/repro``; class
bodies and ``<module>`` code do not.  The script prints every function no
entry point called, then fails (exit 1) when a module that defines a
function has none of them called and is not in :data:`ALLOWLIST`, when an
allowlisted module is called after all, or when more functions than
:data:`MAX_UNREACHED` are unreached; it then names the unreached functions
:data:`REVIEWED` does not list.  Needs numpy (fig15 and the SVRG example
train with it).
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import runpy
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LEDGER = ROOT / "benchmarks" / "ledger"

#: Modules allowed to stay unreached, each with its reason.
ALLOWLIST: Dict[str, str] = {
    "experiments/sweeprunner/faults.py":
        "fault injection: no entry point injects faults; a FaultPlan reaches "
        "a sweep only as SweepOptions.fault_plan, which the sweep proofs "
        "(tests/sweep_proofs/) and the sweep tests pass",
    "snapshot/compare.py":
        "state diff: no entry point compares two systems; the oracle tests "
        "and the first-divergence bisector (tests/bisector/) do",
    "kernel/__init__.py":
        "shim read only by benchmarks/ledger/run.py; it goes with the next "
        "change to the ledger",
}

#: The ratchet: the most functions that may stay unreached, which is the
#: count the last review left.  Lower it when a change leaves fewer.
MAX_UNREACHED = 115

#: The unreached functions that review kept, as ``module name ...`` lines
#: (a name once per unreached ``def`` of it), grouped by reason.  It only
#: names the new ones when :data:`MAX_UNREACHED` is exceeded.
REVIEWED = """
# Names the frozen ledger harness calls or wraps as trace boundaries.
dram/device.py required_command earliest_issue_at issue
dram/timing.py can_issue_at
memctrl/frfcfs.py select_or_horizon
nda/controller.py burst_stats stats
nda/write_buffer.py __len__
engine/core.py next_event_cycle on_wake advance run_until wake_stats
engine/components.py advance advance
kernel/__init__.py kernel_available
experiments/sweeprunner/service.py default_processes
# The restore path: the collector never restores a snapshot.
core/system.py load_refs
engine/components.py load_refs
host/core.py load_refs
memctrl/controller.py load_refs
memctrl/request.py load_refs set_request_id_watermark
nda/controller.py load_refs
nda/isa.py set_instruction_id_watermark
nda/launch.py set_operation_id_watermark load_refs packet packet
nda/pe.py load_refs
snapshot/codec.py decode loads read_snapshot
snapshot/state.py _rebuilt restore rebuild load_tables load_work
snapshot/state.py _load_config restore_system
# Oracles, the command observer and fault hooks the tests use.
core/stats.py observe observe_cycle
dram/device.py next_host_free_cycle
dram/timing.py next_host_free_cycle
apps/svrg.py sample_gradient
nda/fsm.py apply_device_only
nda/burst.py command_at columns commands
dram/commands.py with_column of
snapshot/compare.py diff walk
# Value semantics: stamped and unstamped addresses compare and hash alike;
# the popcount fallback serves Python 3.9.
dram/commands.py __ne__ __hash__
addressing/mapping.py _POPCOUNT
# Error reports: illegal-command and request reprs.
dram/commands.py __repr__
memctrl/request.py __repr__
# Sweep error, retry, interrupt and worker-pool paths (the collector runs
# sweeps in-process and fault-free).
experiments/sweeprunner/checkpoint.py arm_die
experiments/sweeprunner/claims.py __init__
experiments/sweeprunner/faults.py active decide corrupt_row hang_forever
experiments/sweeprunner/ledger.py append_failed lease_counts count_events
experiments/sweeprunner/report.py failure_report __init__
experiments/sweeprunner/service.py _backoff_delay _exhaust _record_failure
experiments/sweeprunner/service.py _handler _on_interrupt
experiments/sweeprunner/store.py _quarantine
experiments/sweeprunner/supervisor.py default_start_method _describe_error
experiments/sweeprunner/supervisor.py _claim_thread_share _worker_main
experiments/sweeprunner/supervisor.py __init__ submit kill stop __init__
experiments/sweeprunner/supervisor.py idle_count submit poll _accept
experiments/sweeprunner/supervisor.py _sweep_processes _respawn shutdown
experiments/sweeprunner/tasks.py describe_key_derivation
experiments/cli.py run_experiment_cli
# Figure helpers the benchmarks/test_fig*.py checks call.
experiments/fig13_opsize.py write_intensity_correlation
experiments/fig14_scaling.py scaling_factor
experiments/fig15_svrg.py run_svrg_convergence
# Left to the open items that need them (ROADMAP items 2 and 3).
apps/workloads.py cg_kernel_sequence streamcluster_kernel_sequence
config.py write_to_read_same_rank_same_bg write_to_read_same_rank_diff_bg
config.py write_to_read_diff_rank
# Tested public API kept by review (ROADMAP item 7 names each reason).
host/profiles.py make_synthetic_profile
nda/fsm.py idle state storage_overhead_bytes
nda/throttle.py oldest_pending_read_rank
runtime.py completion_cycle copy axpby axpbypcz dot nrm2
apps/datasets.py split
utils/histogram.py total_weight fractions
"""

FIGURES = ("fig02_idle", "fig10_coarse", "fig11_bankpart", "fig12_throttle",
           "fig13_opsize", "fig14_platforms", "fig14_scaling", "fig15_svrg",
           "power_table")
EXAMPLES = ("quickstart.py", "platform_quickstart.py", "colocation_study.py",
            "nda_api_average_gradient.py", "svrg_training.py")
FIGURE_CYCLES = 1500

Key = Tuple[str, int, str]  # (module path, first line, function name)


def defined_functions() -> Dict[str, List[Key]]:
    """Every ``def`` under the package, by module path (relative)."""
    modules: Dict[str, List[Key]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        keys = []
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                keys.append((name, first, node.name))
        if keys:
            modules[name] = sorted(keys, key=lambda key: key[1])
    return modules


class CallRecorder:
    """Collects the code object of every Python call while installed."""

    def __init__(self) -> None:
        self.codes: Dict[int, object] = {}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        self.codes[id(code)] = code  # keeps the code alive, so ids stay unique

    def __enter__(self) -> "CallRecorder":
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def called(self) -> Set[Key]:
        root = str(PACKAGE) + os.sep
        keys = set()
        for code in self.codes.values():
            if code.co_filename.startswith(root):
                name = Path(code.co_filename).relative_to(PACKAGE).as_posix()
                keys.add((name, code.co_firstlineno, code.co_name))
        return keys


def run_figures() -> None:
    import repro.experiments.common as common

    common.DEFAULT_CYCLES = FIGURE_CYCLES  # before any figure module binds it
    for name in FIGURES:
        importlib.import_module(f"repro.experiments.{name}").main()


def run_examples() -> None:
    argv = sys.argv
    try:
        for name in EXAMPLES:
            path = ROOT / "examples" / name
            sys.argv = [str(path)]
            try:
                runpy.run_path(str(path), run_name="__main__")
            except SystemExit as exit_:
                # An example that checks its result exits through sys.exit.
                if exit_.code:
                    raise SystemExit(f"example {name} exited {exit_.code}")
    finally:
        sys.argv = argv


def run_status(directory: Path) -> None:
    from repro.experiments.sweeprunner.__main__ import main

    if main(["status", str(directory)]):
        raise SystemExit(f"status found no sweep journal in {directory}")


def run_ledger_workloads(scratch: Path) -> None:
    sys.path.insert(0, str(LEDGER))
    import ledger_defs
    import ledger_workloads

    for name, _ in ledger_defs.WORKLOADS:
        workload = ledger_workloads.make_workload(name, 1, scratch, True)
        workload.serial = True
        checks = workload.warm_up()
        state = workload.prepare()
        output, failed = workload.execute(state)
        checks += workload.verify(state, output)
        if isinstance(state, Path):  # a sweep workload's cache directory
            run_status(state)
        workload.finish(state)
        bad = [check for check, ok in checks if not ok]
        if failed or bad:
            raise SystemExit(f"ledger workload {name}: {failed} failed "
                             f"points, failed checks {bad}")


def reviewed() -> Counter:
    """:data:`REVIEWED` as a multiset of ``(module, name)``."""
    names: Counter = Counter()
    for line in REVIEWED.splitlines():
        words = line.partition("#")[0].split()
        if words:
            names.update((words[0], function) for function in words[1:])
    return names


def main() -> int:
    # A REPRO_SWEEP_CACHE left set would serve figure rows from a store
    # instead of calling the simulator.
    for variable in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[variable]
    from repro.experiments.sweeprunner import service

    service.default_processes = lambda task_count: 1
    with tempfile.TemporaryDirectory() as scratch, CallRecorder() as recorder:
        with contextlib.redirect_stdout(io.StringIO()):
            run_figures()
            run_examples()
            run_ledger_workloads(Path(scratch))

    called = recorder.called()
    modules = defined_functions()
    unreached_modules = []
    total = sum(len(keys) for keys in modules.values())
    missed: List[Key] = []
    print("Functions no entry point calls:")
    for name, keys in modules.items():
        unreached = [key for key in keys if key not in called]
        missed += unreached
        if len(unreached) == len(keys):
            unreached_modules.append(name)
        for _, line, function in unreached:
            print(f"  {name}:{line} {function}")
    print(f"{total - len(missed)} of {total} functions called; "
          f"{len(unreached_modules)} of {len(modules)} modules unreached")

    errors = [f"{name}: no function called by any entry point"
              for name in unreached_modules if name not in ALLOWLIST]
    errors += [f"{name}: allowlisted but called; drop it from ALLOWLIST"
               for name in ALLOWLIST if name not in unreached_modules]
    if len(missed) > MAX_UNREACHED:
        errors.append(f"{len(missed)} functions unreached, more than "
                      f"MAX_UNREACHED = {MAX_UNREACHED}")
        unreviewed = Counter((name, function) for name, _, function in missed)
        unreviewed -= reviewed()
        errors += [f"unreached and not in REVIEWED: {name}:{line} {function}"
                   for name, line, function in missed
                   if unreviewed[name, function] > 0]
    for name in unreached_modules:
        if name in ALLOWLIST:
            print(f"allowlisted {name}: {ALLOWLIST[name]}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
