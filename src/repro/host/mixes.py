"""The nine multi-programmed application mixes of Table II.

mix0 runs eight benchmarks on eight cores (the under-provisioned-bandwidth
extreme); mix1–mix8 run four benchmarks on four cores, ordered from highest
to lowest aggregate memory intensity.
"""

from __future__ import annotations

from typing import Dict, List

from repro.host.profiles import BenchmarkProfile, profile_by_name

#: Benchmark names per mix, exactly as listed in Table II.
MIXES: Dict[str, List[str]] = {
    "mix0": ["mcf_r", "lbm_r", "omnetpp_r", "gemsFDTD",
             "bwaves_r", "milc", "soplex", "leslie3d"],
    "mix1": ["mcf_r", "lbm_r", "omnetpp_r", "gemsFDTD"],
    "mix2": ["mcf_r", "lbm_r", "gemsFDTD", "soplex"],
    "mix3": ["lbm_r", "omnetpp_r", "gemsFDTD", "soplex"],
    "mix4": ["omnetpp_r", "gemsFDTD", "soplex", "milc"],
    "mix5": ["gemsFDTD", "soplex", "milc", "bwaves_r"],
    "mix6": ["soplex", "milc", "bwaves_r", "leslie3d"],
    "mix7": ["milc", "bwaves_r", "astar", "cactusBSSN_r"],
    "mix8": ["leslie3d", "leela_r", "deepsjeng_r", "xchange2_r"],
}

#: Intensity-class string per mix, as reported in Table II.
MIX_INTENSITY: Dict[str, str] = {
    "mix0": "H:H:H:H + H:M:M:M",
    "mix1": "H:H:H:H",
    "mix2": "H:H:H:H",
    "mix3": "H:H:H:H",
    "mix4": "H:H:H:M",
    "mix5": "H:H:M:M",
    "mix6": "H:M:M:M",
    "mix7": "M:M:M:M",
    "mix8": "M:L:L:L",
}


def mix_names() -> List[str]:
    """All mix identifiers, mix0 through mix8."""
    return list(MIXES.keys())


def mix_profiles(mix: str) -> List[BenchmarkProfile]:
    """The benchmark profiles composing a mix (one per core)."""
    if mix not in MIXES:
        raise KeyError(f"unknown mix {mix!r}; valid mixes: {', '.join(MIXES)}")
    return [profile_by_name(name) for name in MIXES[mix]]
