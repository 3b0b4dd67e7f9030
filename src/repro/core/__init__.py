"""Chopim core: full-system assembly, access modes, statistics and energy.

This package ties the substrates together into the simulated system of the
paper's evaluation: a multi-core host with FR-FCFS memory controllers and
NDA-enabled DDR4 ranks accessed concurrently, under one of several access
modes (shared, bank-partitioned, rank-partitioned, host-only, NDA-only).

Importing this package loads nothing: the re-exports resolve on first
access, so ``repro.core.modes`` does not pull in the simulator.
"""

from repro import export_lazily

_EXPORTS = {
    "AccessMode": "repro.core.modes",
    "SimulationResult": "repro.core.stats",
    "SimulationStats": "repro.core.stats",
    "EnergyBreakdown": "repro.core.energy",
    "EnergyModel": "repro.core.energy",
    "ConcurrentAccessScheduler": "repro.core.scheduler",
    "ChopimSystem": "repro.core.system",
}

__all__ = list(_EXPORTS)

__getattr__ = export_lazily(globals(), _EXPORTS)
