"""Experiment harnesses: one module per paper figure/table.

Every module exposes a ``run_*`` function that returns plain data structures
(lists of row dicts) mirroring the series plotted in the paper, plus a
``format_table`` helper that renders them for the terminal.  The benchmark
suite under ``benchmarks/`` regenerates every figure/table through these
entry points.

Importing this package loads nothing: the re-exports resolve on first
access, so a figure CLI loads its own module's layers and no other
figure's (see ARCHITECTURE.md, "Import layers").
"""

from repro import export_lazily

_EXPORTS = {
    "common": "repro.experiments.common",
    "run_idle_histogram": "repro.experiments.fig02_idle",
    "run_coarse_grain_sweep": "repro.experiments.fig10_coarse",
    "run_bank_partitioning": "repro.experiments.fig11_bankpart",
    "run_write_throttling": "repro.experiments.fig12_throttle",
    "run_operation_size_sweep": "repro.experiments.fig13_opsize",
    "run_scalability_comparison": "repro.experiments.fig14_scaling",
    "run_platform_comparison": "repro.experiments.fig14_platforms",
    "run_svrg_convergence": "repro.experiments.fig15_svrg",
    "run_svrg_scaling": "repro.experiments.fig15_svrg",
    "run_power_analysis": "repro.experiments.power_table",
}

__all__ = list(_EXPORTS)

__getattr__ = export_lazily(globals(), _EXPORTS)
