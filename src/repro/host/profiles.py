"""Synthetic memory-behaviour profiles for the SPEC benchmarks of Table II.

Each profile characterizes a benchmark's post-LLC memory traffic: how many
misses per kilo-instruction it produces, the read/write split, how much
spatial locality the miss stream has, how large its footprint is, and how
much memory-level parallelism the core can extract.  The MPKI values follow
the intensity classes reported in Table II (H/M/L); the remaining parameters
are representative values for each benchmark's well-known behaviour
(pointer-chasing mcf vs. streaming lbm/bwaves, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class BenchmarkProfile:
    """Post-LLC memory traffic profile of one benchmark."""

    name: str
    #: LLC misses per kilo-instruction (memory intensity class of Table II).
    mpki: float
    #: Memory-intensity class label: "H", "M" or "L".
    intensity: str
    #: Fraction of memory traffic that is a demand read (vs. writeback).
    read_fraction: float
    #: Probability that a miss continues a sequential (next-line) run.
    sequential_fraction: float
    #: Resident footprint in bytes that misses are spread over.
    footprint_bytes: int
    #: Cycles per instruction assuming a perfect (zero-latency) memory system.
    base_cpi: float
    #: Maximum outstanding LLC misses the core sustains (MSHR/MLP limit).
    mlp: int

    def instructions_per_miss(self) -> float:
        if self.mpki <= 0:
            return float("inf")
        return 1000.0 / self.mpki


_MIB = 1 << 20

#: Profiles for every benchmark named in Table II's mixes.
SPEC_PROFILES: Dict[str, BenchmarkProfile] = {
    # High memory intensity
    "mcf_r": BenchmarkProfile("mcf_r", 32.0, "H", 0.78, 0.15, 512 * _MIB, 0.9, 10),
    "lbm_r": BenchmarkProfile("lbm_r", 28.0, "H", 0.62, 0.80, 384 * _MIB, 0.7, 12),
    "omnetpp_r": BenchmarkProfile("omnetpp_r", 23.0, "H", 0.80, 0.25, 160 * _MIB, 0.8, 8),
    "gemsFDTD": BenchmarkProfile("gemsFDTD", 24.0, "H", 0.70, 0.70, 512 * _MIB, 0.7, 12),
    "soplex": BenchmarkProfile("soplex", 22.0, "H", 0.75, 0.45, 256 * _MIB, 0.8, 10),
    # Medium memory intensity
    "milc": BenchmarkProfile("milc", 10.0, "M", 0.72, 0.60, 384 * _MIB, 0.6, 8),
    "bwaves_r": BenchmarkProfile("bwaves_r", 9.0, "M", 0.68, 0.85, 512 * _MIB, 0.6, 10),
    "leslie3d": BenchmarkProfile("leslie3d", 11.0, "M", 0.70, 0.75, 256 * _MIB, 0.6, 10),
    "astar": BenchmarkProfile("astar", 6.0, "M", 0.82, 0.30, 128 * _MIB, 0.7, 6),
    "cactusBSSN_r": BenchmarkProfile("cactusBSSN_r", 7.0, "M", 0.70, 0.70, 384 * _MIB, 0.7, 8),
    # Low memory intensity
    "leela_r": BenchmarkProfile("leela_r", 1.0, "L", 0.85, 0.40, 32 * _MIB, 0.6, 4),
    "deepsjeng_r": BenchmarkProfile("deepsjeng_r", 1.2, "L", 0.85, 0.35, 64 * _MIB, 0.6, 4),
    "xchange2_r": BenchmarkProfile("xchange2_r", 0.6, "L", 0.85, 0.40, 32 * _MIB, 0.6, 4),
}


def profile_by_name(name: str) -> BenchmarkProfile:
    """Look up a profile, accepting SPEC suffix variations (``_r``)."""
    if name in SPEC_PROFILES:
        return SPEC_PROFILES[name]
    for candidate in (name + "_r", name.rstrip("_r"), name.replace("_r", "")):
        if candidate in SPEC_PROFILES:
            return SPEC_PROFILES[candidate]
    raise KeyError(f"unknown benchmark profile {name!r}")


def make_synthetic_profile(name: str, mpki: float, read_fraction: float = 0.7,
                           sequential_fraction: float = 0.5,
                           footprint_bytes: int = 256 * _MIB,
                           base_cpi: float = 0.7, mlp: int = 10) -> BenchmarkProfile:
    """Create a custom profile (used by microbenchmarks and tests)."""
    if mpki < 0:
        raise ValueError("mpki must be non-negative")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    intensity = "H" if mpki >= 15 else ("M" if mpki >= 3 else "L")
    return BenchmarkProfile(name, mpki, intensity, read_fraction,
                            sequential_fraction, footprint_bytes, base_cpi, mlp)
