"""Import layers: each entry point loads only the layers it runs.

Every case imports in a fresh interpreter (``PYTHONPATH=src``, no
``REPRO_*`` variable) and asserts on the ``repro.*`` entries of
``sys.modules``.  ARCHITECTURE.md ("Import layers") mirrors these cases as
a table.  The run checks then execute an entry point's work after its
import and require that the work loads no further layer, so no import
cost moves from setup into a timed run.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
{setup}
before = loaded()
{run}
print(json.dumps({{"before": before, "after": loaded(),
                  "numpy": "numpy" in sys.modules}}))
"""


class Probe(NamedTuple):
    before: Set[str]   # repro modules loaded by the setup (the import)
    after: Set[str]    # ... and by the run that follows it
    numpy: bool        # numpy loaded by the end


def _probe(setup: str, run: str = "pass") -> Probe:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(setup=setup, run=run)],
        env=env, capture_output=True, text=True, check=True).stdout
    record = json.loads(out.strip().splitlines()[-1])
    return Probe(set(record["before"]), set(record["after"]), record["numpy"])


def _under(modules: Set[str], *packages: str) -> Set[str]:
    return {m for m in modules
            if any(m == p or m.startswith(p + ".") for p in packages)}


FIGURE_MODULES = {
    "repro.experiments.fig02_idle", "repro.experiments.fig10_coarse",
    "repro.experiments.fig11_bankpart", "repro.experiments.fig12_throttle",
    "repro.experiments.fig13_opsize", "repro.experiments.fig14_platforms",
    "repro.experiments.fig14_scaling", "repro.experiments.fig15_svrg",
    "repro.experiments.power_table",
}


def test_import_repro_loads_only_repro():
    assert _probe("import repro").before == {"repro"}


def test_config_does_not_load_the_simulator():
    assert "repro.core.system" not in _probe("import repro.config").before


def test_simulator_loads_no_harness_layer():
    loaded = _probe("import repro.core.system").before
    assert not _under(loaded, "repro.experiments", "repro.snapshot",
                      "repro.apps", "repro.runtime")


def test_simulation_harness_loads_the_simulator_only():
    loaded = _probe("import repro.experiments.common").before
    assert "repro.core.system" in loaded
    assert not _under(loaded, "repro.experiments.sweeprunner",
                      "repro.snapshot", "repro.apps")
    assert not loaded & FIGURE_MODULES


def test_fig15_module_loads_no_simulator():
    probe = _probe("import repro.experiments.fig15_svrg")
    assert not _under(probe.before, "repro.core.system", "repro.dram",
                      "repro.memctrl", "repro.nda.controller",
                      "repro.snapshot.state")
    assert not probe.numpy


def test_sweep_service_loads_no_simulator():
    loaded = _probe("import repro.experiments.sweeprunner").before
    assert not _under(loaded, "repro.core.system", "repro.snapshot.state")


def test_simulation_run_loads_nothing_new():
    probe = _probe(
        "import repro.experiments.common\n"
        "from repro.core.modes import AccessMode\n"
        "from repro.nda.isa import NdaOpcode",
        "system = repro.experiments.common.build_system(\n"
        "    AccessMode.BANK_PARTITIONED, 'mix1', channels=2,\n"
        "    ranks_per_channel=2)\n"
        "system.set_nda_workload(NdaOpcode.DOT, elements_per_rank=1 << 12)\n"
        "system.run(cycles=500, warmup=0)")
    assert probe.after == probe.before


def test_fig15_point_loads_only_the_svrg_model():
    pytest.importorskip("numpy")
    probe = _probe(
        "import repro.experiments.fig15_svrg as fig15",
        "fig15._point(num_ndas=4, outer_iterations=2, measure=False)")
    assert probe.after - probe.before <= {
        "repro.apps", "repro.apps.svrg", "repro.apps.datasets"}


_CHECKPOINTING_SWEEP = """
import os, sys, tempfile
os.environ["REPRO_CHECKPOINT_EVERY"] = "1000"
from repro.experiments.sweeprunner import SweepOptions, run_sweep
def point(i):
    return {{"i": i, "preloaded": "repro.snapshot.state" in sys.modules}}
with tempfile.TemporaryDirectory() as directory:
    rows = run_sweep(point, [{{"i": 0}}, {{"i": 1}}], options=SweepOptions(
        processes={processes}, start_method="fork", cache_dir=directory))
"""


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "forked"])
def test_checkpointing_sweep_loads_snapshot_before_its_points(processes):
    # A point that snapshots its system must not import the snapshot layer
    # on its first save, inside the timed run: the serial driver and forked
    # workers alike find it loaded when the point starts.
    probe = _probe("import repro.experiments.common",
                   _CHECKPOINTING_SWEEP.format(processes=processes)
                   + "assert all(row['preloaded'] for row in rows), rows")
    assert "repro.snapshot.state" not in probe.before
    assert "repro.snapshot.state" in probe.after


def test_analytic_checkpointing_sweep_loads_no_snapshot():
    # Without a simulator loaded no point can snapshot one: an interval
    # set in the environment does not pull the layer into an analytic sweep
    # such as fig15.
    probe = _probe("import repro.experiments.sweeprunner",
                   _CHECKPOINTING_SWEEP.format(processes=2))
    assert not _under(probe.after, "repro.core.system", "repro.snapshot")


@pytest.mark.parametrize("module, absent", [
    ("repro.core.modes", "repro.core.system"),
    ("repro.nda.isa", "repro.nda.controller"),
])
def test_leaf_module_loads_no_package_siblings(module, absent):
    # The lazy package inits of repro.core and repro.nda let a leaf module
    # load alone; an eager re-export would pull the simulator in with it.
    loaded = _probe(f"import {module}").before
    assert loaded == {"repro", module.rpartition(".")[0], module}
    assert absent not in loaded


@pytest.mark.parametrize("package", ["repro", "repro.core", "repro.nda",
                                     "repro.experiments", "repro.apps"])
def test_every_lazy_export_resolves(package):
    if package == "repro.apps":
        pytest.importorskip("numpy")
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_export")
