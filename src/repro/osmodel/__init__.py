"""OS memory-management model: frame coloring and address translation.

Chopim relies on the OS for two things (Section III-A): coarse-grain
allocation at system-row granularity (like huge pages) and physical-frame
coloring so that all operands of an NDA instruction are rank-aligned.  This
package models both with a colored system-row frame allocator, plus the
host-based virtual address translation used when launching NDA operations
(Section V).
"""

from repro.osmodel.coloring import ColoredFrameAllocator, OutOfMemoryError
from repro.osmodel.vm import PageTable, VirtualMemory

__all__ = [
    "OutOfMemoryError",
    "ColoredFrameAllocator",
    "PageTable",
    "VirtualMemory",
]
