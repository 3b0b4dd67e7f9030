"""The seven ledger workloads.

Each workload is a closed loop of repetitions: ``prepare`` builds what one
repetition needs (a configured system, a fresh cache directory) and is
timed into ``setup_s``; ``execute`` is the timed call into the program's
public entry point; ``finish`` removes what ``prepare`` made.  ``warm_up``
runs before the loop and ``verify`` after it; both return named output
checks.  Nothing here sets a ``REPRO_*`` variable other than the two a
workload's definition names (``REPRO_SWEEP_CACHE``, ``REPRO_CHECKPOINT_EVERY``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.experiments import (
    fig11_bankpart,
    fig12_throttle,
    fig13_opsize,
    fig14_scaling,
    fig15_svrg,
)
from repro.experiments.common import build_system, resolve_config
from repro.experiments.sweeprunner import (
    SweepOptions,
    SweepPointsFailed,
    run_sweep_outcome,
    service,
)
from repro.experiments.sweeprunner.checkpoint import (
    CHECKPOINT_EVERY_ENV,
    run_with_checkpoint,
)
from repro.experiments.sweeprunner.tasks import CACHE_ENV_VAR
from repro.nda.isa import NdaOpcode

Check = Tuple[str, bool]

#: Cycle budget of the engine-equivalence output check (and of smoke runs).
PREFIX_CYCLES = 3000
SMOKE_CYCLES = 2000


def digest(value: Any) -> str:
    """sha256 over the JSON-normalised value (sorted keys)."""
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def normalised(rows: Any) -> Any:
    return json.loads(json.dumps(rows, sort_keys=True, default=str))


# --------------------------------------------------------------------- #
# Single-simulation workloads
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class SimSpec:
    platform: Optional[str]
    channels: Optional[int]
    ranks: Optional[int]
    mode: AccessMode
    mix: Optional[str]
    opcode: Optional[NdaOpcode]
    cycles: int
    warmup: int = 500


SIMS: Dict[str, SimSpec] = {
    "colo_read": SimSpec(None, 2, 4, AccessMode.BANK_PARTITIONED, "mix1",
                         NdaOpcode.DOT, 60_000),
    "colo_write": SimSpec(None, 2, 4, AccessMode.BANK_PARTITIONED, "mix1",
                          NdaOpcode.COPY, 40_000),
    "host_only": SimSpec(None, 2, 2, AccessMode.HOST_ONLY, "mix1",
                         None, 80_000),
    "nda_only_hbm2": SimSpec("hbm2", None, None, AccessMode.NDA_ONLY, None,
                             NdaOpcode.COPY, 48_000),
}


def build_sim(spec: SimSpec, seed: int, engine: str = "event") -> ChopimSystem:
    """The configured system of one simulation workload (``run`` not called)."""
    config = dataclasses.replace(
        resolve_config(spec.platform, spec.channels, spec.ranks), seed=seed)
    system = build_system(spec.mode, spec.mix, config=config,
                          throttle="next_rank", engine=engine)
    if spec.opcode is not None:
        system.set_nda_workload(spec.opcode, elements_per_rank=1 << 14)
    return system


class Workload:
    """What the runner calls; subclasses add ``prepare`` and ``execute``."""

    #: Sweep points per repetition (each an attempted operation).
    points = 0
    #: Set for traced runs: one in-process sweep worker, so that
    #: worker-side spans land in the traced process.
    serial = False

    def warm_up(self) -> List[Check]:
        return []

    def finish(self, state: Any) -> None:
        pass

    def verify(self, state: Any, output: Any) -> List[Check]:
        return []

    def ledger_bytes(self, state: Any) -> int:
        return 0


class SimWorkload(Workload):
    """One simulation per repetition; work is simulated DRAM cycles."""

    imports = ("repro.experiments.common", "repro.nda.isa")
    work_unit = "simulated DRAM cycles (warm-up + measured)"

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        spec = SIMS[name]
        if smoke:
            spec = dataclasses.replace(spec, cycles=SMOKE_CYCLES)
        self.spec = spec
        self.seed = seed
        self.work = spec.cycles + spec.warmup

    def warm_up(self) -> List[Check]:
        """The default engine and ``engine="cycle"`` must agree on a prefix."""
        cycles = min(PREFIX_CYCLES, self.spec.cycles)
        results = [
            build_sim(self.spec, self.seed, engine).run(
                cycles=cycles, warmup=self.spec.warmup)
            for engine in ("event", "cycle")
        ]
        return [("default_engine_equals_cycle_engine",
                 dataclasses.asdict(results[0])
                 == dataclasses.asdict(results[1]))]

    def prepare(self) -> ChopimSystem:
        return build_sim(self.spec, self.seed)

    def execute(self, system: ChopimSystem) -> Tuple[Any, int]:
        result = system.run(cycles=self.spec.cycles, warmup=self.spec.warmup)
        return dataclasses.asdict(result), 0


# --------------------------------------------------------------------- #
# Sweep-service workloads
# --------------------------------------------------------------------- #

class SweepWorkload(Workload):
    """Base of the workloads that go through the sweep service.

    A repetition gets a fresh cache directory (store, ledger, checkpoints)
    inside the benchmark's scratch directory; work is sweep points.
    """

    work_unit = "sweep points"
    checkpoint_every = 0

    def __init__(self, seed: int, scratch: Path, smoke: bool) -> None:
        self.seed = seed
        self.scratch = scratch

    @property
    def work(self) -> int:
        return self.points

    def prepare(self, checkpoint_every: Optional[int] = None) -> Path:
        if checkpoint_every is None:
            checkpoint_every = self.checkpoint_every
        directory = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        os.environ[CACHE_ENV_VAR] = str(directory)
        if checkpoint_every:
            os.environ[CHECKPOINT_EVERY_ENV] = str(checkpoint_every)
        else:
            os.environ.pop(CHECKPOINT_EVERY_ENV, None)
        return directory

    def finish(self, directory: Path) -> None:
        shutil.rmtree(directory, ignore_errors=True)

    def ledger_bytes(self, directory: Path) -> int:
        return sum(path.stat().st_size
                   for path in (directory / "ledger").glob("*")
                   if path.is_file())


class FigureWorkload(SweepWorkload):
    """Figure ``main()``s at their defaults, cold store."""

    mains: Tuple[Any, ...] = ()

    def _run_mains(self, mains) -> Tuple[Optional[str], int]:
        """Returns (captured stdout, failed points)."""
        default_processes = service.default_processes
        if self.serial:
            service.default_processes = lambda task_count: 1
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                for main in mains:
                    main()
        except SweepPointsFailed as exc:
            return None, max(1, exc.outcome.stats.failed_points)
        finally:
            service.default_processes = default_processes
        return captured.getvalue(), 0

    def execute(self, directory: Path) -> Tuple[Any, int]:
        return self._run_mains(self.mains)

    def verify(self, directory: Path, output: Any) -> List[Check]:
        """An all-hit rerun on the same store must print the same tables."""
        rerun, failed = self._run_mains(self.mains)
        return [("cached_rerun_equals_cold_run",
                 failed == 0 and output is not None and rerun == output)]


class FigRegen(FigureWorkload):
    """fig11 + fig12 + fig13 + fig14 ``main()``."""

    imports = ("repro.experiments.fig11_bankpart",
               "repro.experiments.fig12_throttle",
               "repro.experiments.fig13_opsize",
               "repro.experiments.fig14_scaling")
    mains = (fig11_bankpart.main, fig12_throttle.main, fig13_opsize.main,
             fig14_scaling.main)
    points = 48  # 6 + 12 + 18 + 12 at the figure defaults

    def warm_up(self) -> List[Check]:
        """One figure through the service, untimed: forks, store and ledger
        code paths are warm before the first timed repetition."""
        directory = self.prepare()
        self._run_mains(self.mains[:1])
        self.finish(directory)
        return []


class SvrgFig15(FigureWorkload):
    """fig15 ``main()``: three NDA counts of numpy SVRG training.

    No warm-up: workers are forked fresh per sweep and numpy is imported
    with the module, so nothing lazy is left, and a full repetition would
    cost a quarter of the run's time budget.
    """

    imports = ("repro.experiments.fig15_svrg",)
    mains = (fig15_svrg.main,)
    points = 3


def ckpt_point(seed: int, cycles: int, warmup: int) -> Dict[str, object]:
    """One preemptible sweep point: the ``colo_write`` system, shortened.

    Module-level so sweep workers can import it by name.
    """
    spec = SIMS["colo_write"]
    result = run_with_checkpoint(lambda: build_sim(spec, seed), cycles,
                                 warmup)
    return dict(dataclasses.asdict(result), seed=seed)


class SweepCkpt(SweepWorkload):
    """Short preemptible points with a 1000-cycle checkpoint interval."""

    imports = ("repro.experiments.sweeprunner", "repro.snapshot",
               "repro.experiments.common")
    checkpoint_every = 1000

    def __init__(self, seed: int, scratch: Path, smoke: bool) -> None:
        super().__init__(seed, scratch, smoke)
        self.points = 4 if smoke else 8
        cycles = SMOKE_CYCLES if smoke else 12_000
        self.params = [{"seed": seed + offset, "cycles": cycles,
                        "warmup": SIMS["colo_write"].warmup}
                       for offset in range(self.points)]
        self.reference_rows: Any = None
        #: Wall time of the no-checkpoint sweep (``snapshot.overhead_frac``).
        self.reference_wall_s = 0.0

    def _sweep(self, directory: Path):
        options = SweepOptions(processes=1 if self.serial else None,
                               cache_dir=directory)
        return run_sweep_outcome(ckpt_point, self.params, options=options)

    def warm_up(self) -> List[Check]:
        """The same sweep without a checkpoint interval: the reference rows."""
        directory = self.prepare(checkpoint_every=0)
        start = time.perf_counter()
        outcome = self._sweep(directory)
        self.reference_wall_s = time.perf_counter() - start
        self.finish(directory)
        self.reference_rows = normalised(outcome.rows)
        return [("no_checkpoint_sweep_ok",
                 outcome.ok and outcome.stats.failed_points == 0)]

    def execute(self, directory: Path) -> Tuple[Any, int]:
        outcome = self._sweep(directory)
        failed = outcome.stats.failed_points
        if not outcome.ok:
            failed = max(failed, 1)
        return normalised(outcome.rows), failed

    def verify(self, directory: Path, output: Any) -> List[Check]:
        rerun = self._sweep(directory)
        return [
            ("cached_rerun_equals_cold_run",
             rerun.stats.cache_hits == self.points
             and normalised(rerun.rows) == output),
            ("checkpointed_rows_equal_no_checkpoint_rows",
             output == self.reference_rows),
        ]


def make_workload(name: str, seed: int, scratch: Path, smoke: bool):
    if name in SIMS:
        return SimWorkload(name, seed, smoke)
    return {"fig_regen": FigRegen, "sweep_ckpt": SweepCkpt,
            "svrg_fig15": SvrgFig15}[name](seed, scratch, smoke)
