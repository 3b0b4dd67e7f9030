"""System configuration objects (paper Table II).

Every simulator component is configured from one of the dataclasses in this
module.  The defaults reproduce the evaluation configuration of the paper:

* out-of-order x86 host at 4 GHz, one core per benchmark of the mix (4;
  8 for mix0),
* DDR4-2400 (1.2 GHz command clock), 8 Gb x8 devices, 2 channels x 2 ranks,
* FR-FCFS host memory controller with 32-entry read/write queues, open-page
  policy and the Intel Skylake address mapping,
* one processing element (PE) per DRAM chip at 1.2 GHz with a 128-entry
  write buffer,
* the Table II DRAM timing parameters and energy components.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DramTimingConfig:
    """DDR4 timing parameters in DRAM command-clock cycles (Table II)."""

    tBL: int = 4
    tCCDS: int = 4
    tCCDL: int = 6
    tRTRS: int = 2
    tCL: int = 16
    tRCD: int = 16
    tRP: int = 16
    tCWL: int = 12
    tRAS: int = 39
    tRC: int = 55
    tRTP: int = 9
    tWTRS: int = 3
    tWTRL: int = 9
    tWR: int = 18
    tRRDS: int = 4
    tRRDL: int = 6
    tFAW: int = 26
    # Refresh parameters are not listed in Table II; standard DDR4 8 Gb
    # values at 1.2 GHz are used.
    tREFI: int = 9360
    tRFC: int = 420

    @property
    def read_to_write(self) -> int:
        """Minimum read-command to write-command spacing on one channel.

        The raw sum ``tCL + tBL + tRTRS - tCWL`` can go non-positive for
        device classes whose write latency approaches the read latency;
        the property clamps at zero (column spacing and data-bus occupancy
        are enforced separately, so a zero here means "no extra gap").
        :meth:`validate` rejects such parameter sets up front — the clamp
        only protects consumers of unvalidated hand-built configs.
        """
        raw = self.tCL + self.tBL + self.tRTRS - self.tCWL
        return raw if raw > 0 else 0

    @property
    def write_to_read_same_rank_same_bg(self) -> int:
        """Write-to-read turnaround within one rank, same bank group."""
        return self.tCWL + self.tBL + self.tWTRL

    @property
    def write_to_read_same_rank_diff_bg(self) -> int:
        """Write-to-read turnaround within one rank, different bank group."""
        return self.tCWL + self.tBL + self.tWTRS

    @property
    def write_to_read_diff_rank(self) -> int:
        """Write-to-read spacing across ranks of the same channel.

        Clamped at zero like :attr:`read_to_write`: short-burst device
        classes (small tBL relative to the CL/CWL gap) legitimately derive
        a non-positive raw spacing, which :meth:`validate` rejects.
        """
        raw = self.tCWL + self.tBL + self.tRTRS - self.tCL
        return raw if raw > 0 else 0

    def validate(self) -> None:
        """Sanity-check the parameter set; raises ``ValueError`` on nonsense."""
        for name, value in dataclasses.asdict(self).items():
            if value <= 0:
                raise ValueError(f"timing parameter {name} must be positive, got {value}")
        if self.tRC < self.tRAS + self.tRP:
            raise ValueError("tRC must be at least tRAS + tRP")
        if self.tCCDL < self.tCCDS:
            raise ValueError("tCCD_L must be >= tCCD_S")
        if self.tWTRL < self.tWTRS:
            raise ValueError("tWTR_L must be >= tWTR_S")
        if self.tRRDL < self.tRRDS:
            raise ValueError("tRRD_L must be >= tRRD_S")
        # Derived turnaround spacings.  These are sums the timing engine
        # snapshots and applies directly; a non-positive derivation means
        # the parameter set describes a device this DDR-style model cannot
        # represent, so fail at construction with the formula spelled out
        # rather than silently mis-simulating (the properties clamp at 0,
        # which would weaken the constraint without complaint).
        raw_rtw = self.tCL + self.tBL + self.tRTRS - self.tCWL
        if raw_rtw <= 0:
            raise ValueError(
                "derived read_to_write spacing tCL + tBL + tRTRS - tCWL = "
                f"{self.tCL} + {self.tBL} + {self.tRTRS} - {self.tCWL} = "
                f"{raw_rtw} is not positive; increase tRTRS (bus turnaround) "
                "or check the tCL/tCWL values of this platform")
        raw_w2r = self.tCWL + self.tBL + self.tRTRS - self.tCL
        if raw_w2r <= 0:
            raise ValueError(
                "derived write_to_read_diff_rank spacing tCWL + tBL + tRTRS "
                f"- tCL = {self.tCWL} + {self.tBL} + {self.tRTRS} - "
                f"{self.tCL} = {raw_w2r} is not positive; platforms with a "
                "large read/write latency gap need a larger tRTRS (slow "
                "unterminated buses genuinely do) or a longer burst")

    @property
    def write_to_precharge(self) -> int:
        """Write-command to precharge spacing for the written bank."""
        return self.tCWL + self.tBL + self.tWR


@dataclass(frozen=True)
class DramOrgConfig:
    """DRAM organization: geometry of channels/ranks/banks/rows/columns.

    Defaults model the paper's 2-channel x 2-rank DDR4 system built from
    8 Gb x8 devices (8 chips per rank, 64-bit data bus, 1 KiB page per chip,
    i.e. an 8 KiB row per rank and 128 cache lines per row).
    """

    channels: int = 2
    ranks_per_channel: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 1 << 16
    chips_per_rank: int = 8
    row_bytes_per_chip: int = 1024
    cacheline_bytes: int = 64
    dram_clock_ghz: float = 1.2

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups * self.banks_per_group

    @property
    def row_bytes(self) -> int:
        """Bytes of one DRAM row across all chips of a rank (the "page")."""
        return self.row_bytes_per_chip * self.chips_per_rank

    @property
    def cachelines_per_row(self) -> int:
        return self.row_bytes // self.cacheline_bytes

    @property
    def columns_per_row(self) -> int:
        """Column (cache-line granularity) count per row."""
        return self.cachelines_per_row

    @property
    def rank_bytes(self) -> int:
        return self.row_bytes * self.rows_per_bank * self.banks_per_rank

    @property
    def channel_bytes(self) -> int:
        return self.rank_bytes * self.ranks_per_channel

    @property
    def total_bytes(self) -> int:
        return self.channel_bytes * self.channels

    @property
    def total_ranks(self) -> int:
        return self.channels * self.ranks_per_channel

    @property
    def system_row_bytes(self) -> int:
        """A "system row": one DRAM row from every bank in the system.

        Section III-A's coarse-allocation granularity (2 MiB for the paper's
        1 TiB reference system, computed from the geometry here).  The
        simulator aligns each host core's traffic region to it
        (``ChopimSystem._build_cores``); nothing allocates at run time.
        """
        return self.row_bytes * self.banks_per_rank * self.total_ranks

    @property
    def peak_channel_bandwidth_gbs(self) -> float:
        """Peak data bandwidth of one channel in GB/s (DDR: 2 transfers/cycle)."""
        bus_bytes = self.chips_per_rank  # x8 devices -> 8 bytes per transfer edge
        return self.dram_clock_ghz * 2.0 * bus_bytes

    @property
    def peak_host_bandwidth_gbs(self) -> float:
        return self.peak_channel_bandwidth_gbs * self.channels

    @property
    def peak_rank_internal_bandwidth_gbs(self) -> float:
        """Peak internal bandwidth available to the NDA of one rank."""
        return self.peak_channel_bandwidth_gbs

    def validate(self) -> None:
        for name in ("channels", "ranks_per_channel", "bank_groups",
                     "banks_per_group", "rows_per_bank", "chips_per_rank",
                     "row_bytes_per_chip", "cacheline_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"organization parameter {name} must be positive")
        if self.row_bytes % self.cacheline_bytes != 0:
            raise ValueError("row size must be a multiple of the cache-line size")
        for name in ("channels", "ranks_per_channel", "bank_groups",
                     "banks_per_group", "rows_per_bank"):
            value = getattr(self, name)
            if value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")


@dataclass(frozen=True)
class HostConfig:
    """Host processor configuration (Table II).

    The core count is not a field: the host runs one core per benchmark of
    its mix (:mod:`repro.host.mixes`).
    """

    cpu_clock_ghz: float = 4.0
    fetch_width: int = 8
    rob_entries: int = 224
    #: DRAM command-clock frequency the host is paired with.  Kept in sync
    #: with ``DramOrgConfig.dram_clock_ghz`` by ``SystemConfig`` so the
    #: fixed-point host tick ratio is derived, never hand-entered (the
    #: paper baseline is DDR4-2400's 1.2 GHz).
    dram_clock_ghz: float = 1.2

    @property
    def cycles_per_dram_cycle(self) -> float:
        """CPU cycles elapsing per DRAM command-clock cycle."""
        return self.cpu_clock_ghz / self.dram_clock_ghz


@dataclass(frozen=True)
class NdaConfig:
    """Near-data accelerator configuration (Table II and Section V)."""

    pes_per_chip: int = 1
    write_buffer_entries: int = 128
    access_granularity_bytes: int = 8
    scalar_registers: int = 5
    # Granularity (cache blocks per NDA instruction) used when an operation
    # does not specify one; Figure 10 sweeps this value.
    default_cache_blocks_per_instruction: int = 1024


@dataclass(frozen=True)
class EnergyConfig:
    """Energy components (Table II)."""

    activate_nj: float = 1.0
    pe_access_pj_per_bit: float = 11.3
    host_access_pj_per_bit: float = 25.7
    pe_fma_pj_per_op: float = 20.0
    pe_buffer_pj_per_access: float = 20.0
    pe_buffer_leakage_mw: float = 11.0
    # Background DRAM power (standby/refresh) per rank, a standard DDR4
    # figure used to complete the power accounting of Section VII.
    dram_background_mw_per_rank: float = 350.0

    def host_access_nj(self, num_bytes: int) -> float:
        """Energy for the host to transfer ``num_bytes`` over the channel."""
        return self.host_access_pj_per_bit * num_bytes * 8 / 1000.0

    def pe_access_nj(self, num_bytes: int) -> float:
        """Energy for a PE to transfer ``num_bytes`` from its local DRAM."""
        return self.pe_access_pj_per_bit * num_bytes * 8 / 1000.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Host memory-scheduler knobs (FR-FCFS, open page)."""

    read_queue_entries: int = 32
    write_queue_entries: int = 32
    write_drain_high_watermark: float = 0.75
    write_drain_low_watermark: float = 0.25
    refresh_enabled: bool = True


@dataclass
class SystemConfig:
    """Aggregate configuration for a full Chopim simulation."""

    timing: DramTimingConfig = field(default_factory=DramTimingConfig)
    org: DramOrgConfig = field(default_factory=DramOrgConfig)
    host: HostConfig = field(default_factory=HostConfig)
    nda: NdaConfig = field(default_factory=NdaConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    # Banks per rank reserved for the shared (NDA-accessible) region when
    # bank partitioning is enabled.  The paper reserves one bank per rank.
    shared_banks_per_rank: int = 1
    seed: int = 12345
    #: Name of the platform preset this configuration was derived from.
    #: The model never reads it: it is the preset's identity, which
    #: ``tests/test_platform.py`` uses to check platform resolution
    #: ("ddr4-2400" is the paper's Table II baseline).
    platform: str = "ddr4-2400"

    def __post_init__(self) -> None:
        # The host's fixed-point tick ratio is derived from the DRAM command
        # clock; keep the two in sync so swapping the organization (e.g. a
        # platform preset) can never leave a stale clock ratio behind.
        if self.host.dram_clock_ghz != self.org.dram_clock_ghz:
            self.host = dataclasses.replace(
                self.host, dram_clock_ghz=self.org.dram_clock_ghz)

    def validate(self) -> None:
        self.timing.validate()
        self.org.validate()
        if not 0 < self.shared_banks_per_rank < self.org.banks_per_rank:
            raise ValueError("shared_banks_per_rank out of range")
        if self.host.dram_clock_ghz != self.org.dram_clock_ghz:
            raise ValueError(
                "host.dram_clock_ghz diverged from org.dram_clock_ghz; "
                "derive HostConfig through SystemConfig or a platform preset")

    def with_ranks(self, channels: int, ranks_per_channel: int) -> "SystemConfig":
        """Return a copy with a different channel/rank organization."""
        new_org = dataclasses.replace(
            self.org, channels=channels, ranks_per_channel=ranks_per_channel
        )
        return dataclasses.replace(self, org=new_org)


def default_config() -> SystemConfig:
    """The paper's baseline system configuration (Table II)."""
    cfg = SystemConfig()
    cfg.validate()
    return cfg


def scaled_config(channels: int = 2, ranks_per_channel: int = 2) -> SystemConfig:
    """A baseline configuration scaled to a different rank count.

    Used by the scalability experiments (Figures 10, 14, 15b).
    """
    cfg = default_config().with_ranks(channels, ranks_per_channel)
    cfg.validate()
    return cfg
