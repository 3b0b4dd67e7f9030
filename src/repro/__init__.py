"""Chopim reproduction: near-data acceleration with concurrent host access.

This package is a from-scratch, full-system Python reproduction of

    Benjamin Y. Cho, Yongkee Kwon, Sangkug Lym, Mattan Erez,
    "Near Data Acceleration with Concurrent Host Access", ISCA 2020.

The public API is intentionally small; most users interact with:

* :class:`repro.config.SystemConfig` — system/DRAM/NDA configuration (Table II).
* :class:`repro.core.system.ChopimSystem` — the full-system simulator.
* :mod:`repro.runtime` — the Table I NDA operations over numpy arrays
  (the Figure 8 runtime API), used by the example applications.
* :mod:`repro.experiments` — one module per paper figure/table.
* :mod:`repro.platform` — named memory-platform presets (DDR4/DDR5/LPDDR4/
  HBM2-class) whose clocks and cycle counts are derived from raw
  nanosecond parameters; ``ddr4-2400`` is the paper baseline.

Importing this package loads nothing: the re-exports below resolve on first
access (PEP 562), so an entry point pays only for the layers it runs (see
ARCHITECTURE.md, "Import layers").  :func:`export_lazily` builds the same
module ``__getattr__`` for the subpackages that re-export.
"""

import importlib
from typing import Any, Callable, Dict

__version__ = "1.0.0"


def export_lazily(namespace: Dict[str, Any],
                  exports: Dict[str, str]) -> Callable[[str], Any]:
    """A PEP 562 module ``__getattr__`` over ``name -> defining module``.

    ``namespace`` is the package's ``globals()``.  A name whose module is
    ``<package>.<name>`` is that submodule itself; any other name is read
    from its module.  The first access caches the value in ``namespace``,
    so later reads are plain attribute lookups.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        target = exports.get(name)
        if target is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(target)
        value = (module if target == f"{package}.{name}"
                 else getattr(module, name))
        namespace[name] = value
        return value

    return __getattr__


_EXPORTS = {
    "DramTimingConfig": "repro.config",
    "DramOrgConfig": "repro.config",
    "EnergyConfig": "repro.config",
    "HostConfig": "repro.config",
    "NdaConfig": "repro.config",
    "SystemConfig": "repro.config",
    "ChopimSystem": "repro.core.system",
    "AccessMode": "repro.core.modes",
    "PlatformSpec": "repro.platform",
    "get_platform": "repro.platform",
    "platform_config": "repro.platform",
    "platform_names": "repro.platform",
}

__all__ = list(_EXPORTS) + ["__version__"]

__getattr__ = export_lazily(globals(), _EXPORTS)
