"""Named platform presets.

``ddr4-2400`` is the paper's Table II evaluation platform and derives
*bit-exactly* to the legacy hand-entered defaults in :mod:`repro.config`
(pinned by ``tests/test_platform.py``).  The other presets are
representative members of their device class: timing follows the JEDEC
speed-bin values where the class defines them, geometry and energy are
modeled at class-typical points (not one vendor's datasheet).

Add a platform by registering a :class:`~repro.platform.spec.PlatformSpec`
(see the "Platform layer" section of ARCHITECTURE.md for the recipe); the
derivation and :meth:`DramTimingConfig.validate` reject parameter sets the
timing model cannot represent (e.g. turnaround spacings that go
non-positive) at construction time.
"""

from __future__ import annotations

from typing import Dict, List

from repro.platform.spec import PlatformSpec

#: The paper's evaluation platform (Table II): DDR4-2400, 8 Gb x8 devices,
#: 2 channels x 2 ranks.  Nanosecond values are the JEDEC DDR4-2400 CL16
#: speed bin; at 1.2 GHz they quantize to exactly the Table II cycle
#: counts.
DDR4_2400 = PlatformSpec(
    name="ddr4-2400",
    description="Paper Table II baseline: DDR4-2400 CL16, 8Gb x8, 2ch x 2rk",
    data_rate_mtps=2400,
)

#: The same DDR4 die retimed to the 3200 MT/s bin (CL22).  tCCD_L is 5 ns
#: by JEDEC, i.e. 8 cycles at 1.6 GHz; tRTRS grows with the clock (it is a
#: bus-settling time, roughly 1.9 ns on a terminated DIMM bus).
DDR4_3200 = PlatformSpec(
    name="ddr4-3200",
    description="DDR4-3200 CL22 speed bin, same organization as the baseline",
    data_rate_mtps=3200,
    tCCDL_ck=8,
    tRTRS_ck=3,
    tCL_ns=13.75,
    tRCD_ns=13.75,
    tRP_ns=13.75,
    tRC_ns=45.75,
    tRRDS_ns=2.5,
    tFAW_ns=21.0,
)

#: LPDDR4-3200-class: 32-bit channels (4 byte lanes), BL16, no bank
#: groups, slower analog core, and a long bus-turnaround gap (the
#: unterminated low-power bus needs settling time — this is also what
#: keeps the derived cross-rank turnarounds representable).
LPDDR4_3200 = PlatformSpec(
    name="lpddr4-3200",
    description="LPDDR4-3200-class: 32-bit channels, BL16, no bank groups",
    data_rate_mtps=3200,
    burst_transfers=16,
    channels=2,
    ranks_per_channel=2,
    bank_groups=1,
    banks_per_group=8,
    rows_per_bank=1 << 15,
    chips_per_rank=4,
    tCCDS_ck=8,
    tCCDL_ck=8,
    tRTRS_ck=8,
    tCL_ns=17.5,
    tRCD_ns=18.0,
    tRP_ns=21.0,
    tCWL_ns=8.75,
    tRAS_ns=42.0,
    tRC_ns=None,
    tWTRS_ns=10.0,
    tWTRL_ns=10.0,
    tWR_ns=18.0,
    tRRDS_ns=10.0,
    tRRDL_ns=10.0,
    tFAW_ns=40.0,
    tREFI_ns=3904.0,
    tRFC_ns=280.0,
    activate_nj=0.8,
    host_access_pj_per_bit=15.0,
    pe_access_pj_per_bit=8.0,
    dram_background_mw_per_rank=180.0,
)

#: DDR5-4800-class: BL16, 8 bank groups, CL40, 16 Gb devices.  A DDR5
#: DIMM splits into independent 32-bit subchannels (modeled as channels
#: here, 4 byte lanes each) so a BL16 burst carries exactly one 64-byte
#: cache line — the advertised peak is cadence-achievable, as on every
#: other preset.  tCCD_S is 8 clocks by definition at BL16; tCCD_L is
#: 5 ns.
DDR5_4800 = PlatformSpec(
    name="ddr5-4800",
    description="DDR5-4800 CL40 class: BL16, 32-bit subchannels, 8 bank groups",
    data_rate_mtps=4800,
    burst_transfers=16,
    chips_per_rank=4,
    bank_groups=8,
    banks_per_group=4,
    tCCDS_ck=8,
    tCCDL_ck=12,
    tRTRS_ck=4,
    tCL_ns=16.66,
    tRCD_ns=16.66,
    tRP_ns=16.66,
    tCWL_ns=15.83,
    tRAS_ns=32.0,
    tRC_ns=None,
    tWTRS_ns=2.5,
    tWTRL_ns=10.0,
    tWR_ns=30.0,
    tRRDS_ns=3.33,
    tRRDL_ns=5.0,
    tFAW_ns=13.33,
    tREFI_ns=3900.0,
    tRFC_ns=410.0,
    activate_nj=0.9,
    host_access_pj_per_bit=21.0,
    pe_access_pj_per_bit=10.0,
    dram_background_mw_per_rank=320.0,
)

#: HBM2-class stack: 8 independent 128-bit channels (16 byte lanes), one
#: rank each, BL4, 2 KiB rows, 1 GHz command clock.  tRTRS is irrelevant
#: at one rank per channel but is kept large enough that the derived
#: cross-rank turnaround stays representable.
HBM2 = PlatformSpec(
    name="hbm2",
    description="HBM2-class stack: 8 x 128-bit channels, BL4, 1 rank each",
    data_rate_mtps=2000,
    burst_transfers=4,
    channels=8,
    ranks_per_channel=1,
    bank_groups=4,
    banks_per_group=4,
    rows_per_bank=1 << 14,
    chips_per_rank=16,
    row_bytes_per_chip=128,
    tCCDS_ck=2,
    tCCDL_ck=4,
    tRTRS_ck=6,
    tCL_ns=14.0,
    tRCD_ns=14.0,
    tRP_ns=14.0,
    tCWL_ns=7.0,
    tRAS_ns=33.0,
    tRC_ns=None,
    tWTRS_ns=2.5,
    tWTRL_ns=7.5,
    tWR_ns=15.0,
    tRRDS_ns=4.0,
    tRRDL_ns=6.0,
    tFAW_ns=16.0,
    tREFI_ns=3900.0,
    tRFC_ns=260.0,
    activate_nj=0.9,
    host_access_pj_per_bit=7.0,
    pe_access_pj_per_bit=6.0,
    dram_background_mw_per_rank=450.0,
)

#: Registry of named presets, in declaration order (the paper baseline
#: first).
PLATFORM_REGISTRY: Dict[str, PlatformSpec] = {
    spec.name: spec
    for spec in (DDR4_2400, DDR4_3200, LPDDR4_3200, DDR5_4800, HBM2)
}

#: The preset every un-parameterized code path uses — the paper baseline.
DEFAULT_PLATFORM = DDR4_2400.name


def get_platform(name: str) -> PlatformSpec:
    """Look a preset up by name; raises ``KeyError`` with the valid names."""
    try:
        return PLATFORM_REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(PLATFORM_REGISTRY))
        raise KeyError(f"unknown platform {name!r}; valid: {valid}") from None


def platform_names() -> List[str]:
    """All registered preset names, baseline first."""
    return list(PLATFORM_REGISTRY)
