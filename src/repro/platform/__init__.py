"""Pluggable DRAM platform layer: named device presets with derived clocks.

Public API::

    from repro.platform import get_platform, platform_config, platform_names

    cfg = platform_config("lpddr4-3200")            # SystemConfig
    cfg = platform_config("ddr5-4800", channels=2, ranks_per_channel=4)

Every preset declares raw nanosecond / organization parameters; cycle
counts, command clocks, host tick ratios and energy constants are derived
(see :mod:`repro.platform.spec`).  ``ddr4-2400`` reproduces the paper's
Table II baseline bit-exactly.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SystemConfig
from repro.platform.presets import (
    DDR4_2400,
    DDR4_3200,
    DDR5_4800,
    DEFAULT_PLATFORM,
    HBM2,
    LPDDR4_3200,
    PLATFORM_REGISTRY,
    get_platform,
    platform_names,
    register_platform,
)
from repro.platform.spec import PlatformSpec, ns_to_cycles

__all__ = [
    "PlatformSpec",
    "PLATFORM_REGISTRY",
    "DEFAULT_PLATFORM",
    "DDR4_2400",
    "DDR4_3200",
    "LPDDR4_3200",
    "DDR5_4800",
    "HBM2",
    "get_platform",
    "platform_names",
    "register_platform",
    "platform_config",
    "ns_to_cycles",
]


def platform_config(name: str = DEFAULT_PLATFORM,
                    channels: Optional[int] = None,
                    ranks_per_channel: Optional[int] = None) -> SystemConfig:
    """A validated :class:`SystemConfig` for the named preset.

    ``channels`` / ``ranks_per_channel`` rescale the preset's organization
    (``None`` keeps its native geometry); everything else is derived from
    the preset's raw parameters.  Every experiment point is built here, the
    DDR4-2400 baseline included: for it this equals
    :func:`repro.config.scaled_config` at the same geometry.
    """
    return get_platform(name).system_config(
        channels=channels, ranks_per_channel=ranks_per_channel)
