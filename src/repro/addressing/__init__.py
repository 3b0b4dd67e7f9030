"""Physical-address to DRAM-address mapping and bank partitioning.

This package holds the host side of Chopim's addressing, the forward map
that decodes every host request:

* :mod:`repro.addressing.mapping` — the baseline Skylake-style XOR-hashed
  interleaving (paper Figure 4a) and its partition-friendly variant.
* :mod:`repro.addressing.bank_partition` — the proposed bank-partitioning
  remap that keeps host traffic out of the banks reserved for NDA operands
  while remaining compatible with huge pages and hashed interleaving
  (Figure 4b).

NDA operands take no physical address: the NDA host places them in DRAM
coordinates, and Figure 3's operand alignment (equal indices of operands
land in one rank) comes from that placement
(``repro.nda.launch._OperandPlacer``).
"""

from repro.addressing.mapping import (
    AddressMapping,
    skylake_mapping,
    partition_friendly_mapping,
)
from repro.addressing.bank_partition import BankPartitionMapping

__all__ = [
    "AddressMapping",
    "skylake_mapping",
    "partition_friendly_mapping",
    "BankPartitionMapping",
]
