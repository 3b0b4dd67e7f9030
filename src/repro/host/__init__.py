"""Host-processor model: cores, benchmark profiles and mixes.

The paper drives its evaluation with SPEC2006/2017 multi-programmed mixes run
on gem5 out-of-order cores.  This package substitutes a limited-outstanding-
miss (ROB/MLP) core model driven by per-benchmark synthetic memory profiles
calibrated to the same H/M/L memory-intensity classes (Table II).  The
traffic generators emit LLC-miss streams directly, so the cache hierarchy
is not modelled (ARCHITECTURE.md, "Table II values the model abstracts
away").
"""

from repro.host.profiles import BenchmarkProfile, SPEC_PROFILES, profile_by_name
from repro.host.traffic import AddressStreamGenerator
from repro.host.core import CoreModel
from repro.host.mixes import MIXES, mix_profiles, mix_names

__all__ = [
    "BenchmarkProfile",
    "SPEC_PROFILES",
    "profile_by_name",
    "AddressStreamGenerator",
    "CoreModel",
    "MIXES",
    "mix_profiles",
    "mix_names",
]
