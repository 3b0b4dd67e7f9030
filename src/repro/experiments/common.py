"""Simulation harness: default cycle budgets and system construction.

Every experiment point is built through :func:`build_system`, which carries
the **platform axis**: pass ``platform="lpddr4-3200"`` (or any name from
:func:`repro.platform.platform_names`), or set the ``REPRO_PLATFORM``
environment variable to retarget every figure sweep wholesale.  Unset, the
paper's DDR4-2400 baseline is used, bit-exactly as before.

Importing this module loads the simulator but not the sweep service: the
platform resolution, table rendering and CLI harness live in
:mod:`repro.experiments.cli` and are re-exported here.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.core.modes import AccessMode
from repro.core.system import ChopimSystem
from repro.experiments.cli import (
    format_table,
    resolve_config,
    resolve_platform,
    run_experiment_cli,
)
from repro.nda.throttle import DEFAULT_STOCHASTIC_PROBABILITY

__all__ = [
    "DEFAULT_CYCLES",
    "DEFAULT_ELEMENTS_PER_RANK",
    "DEFAULT_WARMUP",
    "QUICK_MIXES",
    "build_system",
    "format_table",
    "resolve_config",
    "resolve_platform",
    "run_experiment_cli",
]

#: Default measured window per configuration point, in DRAM cycles.  Long
#: enough for the memory system to reach steady state; short enough that a
#: full figure regenerates in minutes on a laptop.  Every ``run_*`` function
#: accepts an override.
DEFAULT_CYCLES = 6000

#: Default warm-up cycles excluded from measurement.
DEFAULT_WARMUP = 500

#: The mix subset used by "quick" figure regenerations (spans the highest,
#: a middle and the lowest memory intensity).
QUICK_MIXES = ["mix1", "mix5", "mix8"]

#: Per-rank NDA operand size (elements) used by the microbenchmark figures.
DEFAULT_ELEMENTS_PER_RANK = 1 << 14


def build_system(mode: AccessMode, mix: Optional[str],
                 channels: Optional[int] = None,
                 ranks_per_channel: Optional[int] = None,
                 throttle: str = "next_rank",
                 stochastic_probability: float = DEFAULT_STOCHASTIC_PROBABILITY,
                 config: Optional[SystemConfig] = None,
                 engine: str = "event",
                 platform: Optional[str] = None) -> ChopimSystem:
    """Construct a system for one experiment point.

    ``engine`` selects the simulation driver: the event-driven engine
    (default) fast-forwards over idle cycles; ``"cycle"`` is the
    cycle-by-cycle regression baseline with identical results.  ``platform``
    names a memory-platform preset (see :mod:`repro.platform`); it is
    ignored when an explicit ``config`` is supplied.  ``channels`` and
    ``ranks_per_channel`` default to the platform's native organization
    (the paper's 2x2 on the baseline).
    """
    cfg = config or resolve_config(platform, channels, ranks_per_channel)
    return ChopimSystem(config=cfg, mode=mode, mix=mix, throttle=throttle,
                        stochastic_probability=stochastic_probability,
                        engine=engine)
