"""Physical-address to DRAM-address mapping and bank partitioning.

This package implements the two addressing-related pieces of Chopim:

* :mod:`repro.addressing.mapping` — the baseline Skylake-style XOR-hashed
  interleaving (paper Figure 4a) plus simple linear mappings.
* :mod:`repro.addressing.bank_partition` — the proposed bank-partitioning
  remap that reserves banks for the shared host/NDA region while remaining
  compatible with huge pages and hashed interleaving (Figure 4b).

Figure 3's operand alignment (equal indices of system-row-aligned shared
operands land in one rank) is a property of these mappings, checked through
``to_dram`` by ``tests/test_addressing.py``.
"""

from repro.addressing.mapping import (
    AddressMapping,
    LinearMapping,
    SkylakeMapping,
    skylake_mapping,
    linear_mapping,
    partition_friendly_mapping,
)
from repro.addressing.bank_partition import BankPartitionMapping

__all__ = [
    "AddressMapping",
    "LinearMapping",
    "SkylakeMapping",
    "skylake_mapping",
    "linear_mapping",
    "partition_friendly_mapping",
    "BankPartitionMapping",
]
