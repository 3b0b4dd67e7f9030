"""Experiment harnesses: one module per paper figure/table.

Every module exposes a ``run_*`` function that returns plain data structures
(lists of row dicts) mirroring the series plotted in the paper, plus a
``format_table`` helper that renders them for the terminal.  The benchmark
suite under ``benchmarks/`` regenerates every figure/table through these
entry points.
"""

from repro.experiments import common
from repro.experiments.fig02_idle import run_idle_histogram
from repro.experiments.fig10_coarse import run_coarse_grain_sweep
from repro.experiments.fig11_bankpart import run_bank_partitioning
from repro.experiments.fig12_throttle import run_write_throttling
from repro.experiments.fig13_opsize import run_operation_size_sweep
from repro.experiments.fig14_platforms import run_platform_comparison
from repro.experiments.fig14_scaling import run_scalability_comparison
from repro.experiments.fig15_svrg import run_svrg_convergence, run_svrg_scaling
from repro.experiments.power_table import run_power_analysis

__all__ = [
    "common",
    "run_idle_histogram",
    "run_coarse_grain_sweep",
    "run_bank_partitioning",
    "run_write_throttling",
    "run_operation_size_sweep",
    "run_scalability_comparison",
    "run_platform_comparison",
    "run_svrg_convergence",
    "run_svrg_scaling",
    "run_power_analysis",
]
