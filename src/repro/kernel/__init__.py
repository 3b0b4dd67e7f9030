"""Compatibility shim for the removed array-kernel backend.

The event engine over the scalar core is the only fast path; there is no
kernel backend to select.  The one remaining caller is
``benchmarks/ledger/run.py``, which records :func:`kernel_available` in its
environment block.  The next change to the benchmark ledger drops that field
and deletes this module with it.
"""

from __future__ import annotations


def kernel_available() -> bool:
    """Always ``False``: the kernel backend no longer exists."""
    return False
