"""Near-data accelerator hardware model.

One processing element (PE) per DRAM chip sits on the logic die of each
3DS-style chip stack; a per-rank NDA memory controller gives the PEs access
to their local rank without using the host channel (paper Figures 1 and 7).
This package models the NDA ISA (Table I), the PE execution flow (Figure 9),
the per-rank NDA memory controller with its write buffer, the write-throttle
policies of Section III-B and the replicated-FSM state tracking of
Section III-D.

Importing this package loads nothing: the re-exports resolve on first
access, so ``repro.nda.isa`` does not pull in the controllers.
"""

from repro import export_lazily

_EXPORTS = {
    "NdaOpcode": "repro.nda.isa",
    "NdaInstruction": "repro.nda.isa",
    "OPCODE_TRAITS": "repro.nda.isa",
    "OpcodeTraits": "repro.nda.isa",
    "ProcessingElement": "repro.nda.pe",
    "NdaWriteBuffer": "repro.nda.write_buffer",
    "WriteThrottlePolicy": "repro.nda.throttle",
    "IssueIfIdlePolicy": "repro.nda.throttle",
    "StochasticIssuePolicy": "repro.nda.throttle",
    "NextRankPredictionPolicy": "repro.nda.throttle",
    "NdaFsmState": "repro.nda.fsm",
    "ReplicatedFsm": "repro.nda.fsm",
    "NdaRankController": "repro.nda.controller",
    "NdaPacket": "repro.nda.launch",
    "NdaHostController": "repro.nda.launch",
}

__all__ = list(_EXPORTS)

__getattr__ = export_lazily(globals(), _EXPORTS)
