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
function has none of them called and is not in :data:`ALLOWLIST`, or when an
allowlisted module is called after all.  Needs numpy (fig15 and the SVRG
example train with it).
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
    missed = 0
    print("Functions no entry point calls:")
    for name, keys in modules.items():
        unreached = [key for key in keys if key not in called]
        missed += len(unreached)
        if len(unreached) == len(keys):
            unreached_modules.append(name)
        for _, line, function in unreached:
            print(f"  {name}:{line} {function}")
    print(f"{total - missed} of {total} functions called; "
          f"{len(unreached_modules)} of {len(modules)} modules unreached")

    errors = [f"{name}: no function called by any entry point"
              for name in unreached_modules if name not in ALLOWLIST]
    errors += [f"{name}: allowlisted but called; drop it from ALLOWLIST"
               for name in ALLOWLIST if name not in unreached_modules]
    for name in unreached_modules:
        if name in ALLOWLIST:
            print(f"allowlisted {name}: {ALLOWLIST[name]}")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
