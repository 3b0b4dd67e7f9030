"""Platform specifications: raw device parameters → derived configurations.

A :class:`PlatformSpec` describes a memory platform the way a datasheet
does — a per-pin data rate, a geometry, and analog timing parameters in
*nanoseconds* — and derives everything the simulator consumes from them:

* :class:`~repro.config.DramTimingConfig` — command-clock cycle counts,
  quantized with ``ceil(ns * clock)`` exactly as a memory controller's
  initialization firmware would;
* :class:`~repro.config.DramOrgConfig` — geometry plus the derived command
  clock (``data_rate_mtps / 2000`` GHz: one command clock per two
  transfers, the DDR convention every supported class follows);
* :class:`~repro.config.HostConfig` — the host core parameters with the
  fixed-point DRAM tick ratio derived from the platform clock;
* :class:`~repro.config.EnergyConfig` — per-event energy representative of
  the device class.

Parameters that are *defined* in clock cycles by the standard (burst
length, tCCD, tRTRS) are declared in cycles; everything analog is declared
in nanoseconds.  Derivation is the single source of truth: no preset
hand-enters a cycle count for an analog parameter, so retiming a platform
is a one-line data-rate change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.config import (
    DramOrgConfig,
    DramTimingConfig,
    EnergyConfig,
    HostConfig,
    SystemConfig,
)

#: Guard band for ns → cycle quantization: raw parameters are specified to
#: two decimal places and clocks to three, so true products sit far more
#: than 1e-9 from any integer they should not cross; the epsilon only
#: absorbs float representation error in products that are *meant* to be
#: integral (e.g. 7800 ns * 1.2 GHz = 9360.000000000002).
_QUANT_EPS = 1e-9


def ns_to_cycles(ns: float, clock_ghz: float) -> int:
    """Quantize a nanosecond parameter to command-clock cycles (>= 1)."""
    cycles = math.ceil(ns * clock_ghz - _QUANT_EPS)
    return cycles if cycles > 1 else 1


@dataclass(frozen=True)
class PlatformSpec:
    """One named memory platform: raw parameters, derived configuration."""

    name: str
    description: str

    # ---- clocking ---------------------------------------------------- #
    #: Per-pin data rate in mega-transfers per second; the command clock is
    #: half of it (double data rate).
    data_rate_mtps: int
    #: Transfers per column command (BL8 for DDR4, BL16 for DDR5/LPDDR4,
    #: BL4 for HBM2-class stacks); tBL = burst_transfers / 2 clock cycles.
    burst_transfers: int = 8

    # ---- organization ------------------------------------------------- #
    channels: int = 2
    ranks_per_channel: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 1 << 16
    #: Byte lanes of the data interface (8 for a x8 DDR4 rank, 4 for a
    #: 32-bit LPDDR channel, 16 for a 128-bit HBM channel); one byte per
    #: lane per transfer edge.
    chips_per_rank: int = 8
    row_bytes_per_chip: int = 1024
    cacheline_bytes: int = 64

    # ---- clock-domain timing (command-clock cycles by definition) ----- #
    tCCDS_ck: int = 4
    tCCDL_ck: int = 6
    tRTRS_ck: int = 2

    # ---- analog timing (nanoseconds) ---------------------------------- #
    tCL_ns: float = 13.32
    tRCD_ns: float = 13.32
    tRP_ns: float = 13.32
    tCWL_ns: float = 10.0
    tRAS_ns: float = 32.0
    #: None derives tRC as tRAS + tRP in cycles (the common datasheet
    #: identity); set explicitly only when the device defines it apart.
    tRC_ns: Optional[float] = 45.32
    tRTP_ns: float = 7.5
    tWTRS_ns: float = 2.5
    tWTRL_ns: float = 7.5
    tWR_ns: float = 15.0
    tRRDS_ns: float = 3.3
    tRRDL_ns: float = 4.9
    tFAW_ns: float = 21.0
    tREFI_ns: float = 7800.0
    tRFC_ns: float = 350.0

    # ---- host --------------------------------------------------------- #
    cpu_clock_ghz: float = 4.0

    # ---- energy (representative of the device class, Table II units) -- #
    activate_nj: float = 1.0
    host_access_pj_per_bit: float = 25.7
    pe_access_pj_per_bit: float = 11.3
    dram_background_mw_per_rank: float = 350.0

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #

    @property
    def dram_clock_ghz(self) -> float:
        """DRAM command-clock frequency in GHz (data rate / 2)."""
        return self.data_rate_mtps / 2000.0

    @property
    def tBL_ck(self) -> int:
        """Data-burst occupancy in command-clock cycles."""
        return self.burst_transfers // 2

    def timing_config(self) -> DramTimingConfig:
        """Derive the cycle-count timing parameters for this platform."""
        clock = self.dram_clock_ghz
        tRAS = ns_to_cycles(self.tRAS_ns, clock)
        tRP = ns_to_cycles(self.tRP_ns, clock)
        tRC = (ns_to_cycles(self.tRC_ns, clock)
               if self.tRC_ns is not None else tRAS + tRP)
        return DramTimingConfig(
            tBL=self.tBL_ck,
            tCCDS=self.tCCDS_ck,
            tCCDL=self.tCCDL_ck,
            tRTRS=self.tRTRS_ck,
            tCL=ns_to_cycles(self.tCL_ns, clock),
            tRCD=ns_to_cycles(self.tRCD_ns, clock),
            tRP=tRP,
            tCWL=ns_to_cycles(self.tCWL_ns, clock),
            tRAS=tRAS,
            tRC=tRC,
            tRTP=ns_to_cycles(self.tRTP_ns, clock),
            tWTRS=ns_to_cycles(self.tWTRS_ns, clock),
            tWTRL=ns_to_cycles(self.tWTRL_ns, clock),
            tWR=ns_to_cycles(self.tWR_ns, clock),
            tRRDS=ns_to_cycles(self.tRRDS_ns, clock),
            tRRDL=ns_to_cycles(self.tRRDL_ns, clock),
            tFAW=ns_to_cycles(self.tFAW_ns, clock),
            tREFI=ns_to_cycles(self.tREFI_ns, clock),
            tRFC=ns_to_cycles(self.tRFC_ns, clock),
        )

    def org_config(self, channels: Optional[int] = None,
                   ranks_per_channel: Optional[int] = None) -> DramOrgConfig:
        """Derive the organization, optionally rescaled (fig14-style)."""
        return DramOrgConfig(
            channels=self.channels if channels is None else channels,
            ranks_per_channel=(self.ranks_per_channel
                               if ranks_per_channel is None
                               else ranks_per_channel),
            bank_groups=self.bank_groups,
            banks_per_group=self.banks_per_group,
            rows_per_bank=self.rows_per_bank,
            chips_per_rank=self.chips_per_rank,
            row_bytes_per_chip=self.row_bytes_per_chip,
            cacheline_bytes=self.cacheline_bytes,
            dram_clock_ghz=self.dram_clock_ghz,
        )

    def host_config(self) -> HostConfig:
        return HostConfig(cpu_clock_ghz=self.cpu_clock_ghz,
                          dram_clock_ghz=self.dram_clock_ghz)

    def energy_config(self) -> EnergyConfig:
        return EnergyConfig(
            activate_nj=self.activate_nj,
            host_access_pj_per_bit=self.host_access_pj_per_bit,
            pe_access_pj_per_bit=self.pe_access_pj_per_bit,
            dram_background_mw_per_rank=self.dram_background_mw_per_rank,
        )

    def system_config(self, channels: Optional[int] = None,
                      ranks_per_channel: Optional[int] = None) -> SystemConfig:
        """A validated :class:`SystemConfig` for this platform.

        ``channels``/``ranks_per_channel`` rescale the system the
        way :func:`repro.config.scaled_config` does for the baseline, so
        every scaling experiment has a platform axis for free.
        """
        cfg = SystemConfig(
            timing=self.timing_config(),
            org=self.org_config(channels, ranks_per_channel),
            host=self.host_config(),
            energy=self.energy_config(),
            platform=self.name,
        )
        cfg.validate()
        return cfg
