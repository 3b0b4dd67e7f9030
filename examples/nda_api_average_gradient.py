"""The paper's Figure 8 example: average gradient through the NDA runtime API.

Reproduces the `average gradient` kernel of the SVRG summarization step using
the Chopim runtime: coarse-grain NDA operations (GEMV, XMY, SCAL) on numpy
operands, the host-side sigmoid, and the asynchronous `parallel_for` macro
operation of per-sample AXPYs followed by a host reduction.  The simulated
cycle cost of each phase is reported, and the script exits nonzero when the
functional result strays from a plain numpy reference or the replicated NDA
FSMs fall out of sync.

Run with:  python examples/nda_api_average_gradient.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.modes import AccessMode
from repro.runtime import ChopimRuntime

N_SAMPLES = 64     # rows of X processed by the macro operation
N_FEATURES = 512   # model dimension d
MAX_ERROR = 1e-5   # tolerated max |error| against the numpy reference


def main() -> int:
    print("=== Figure 8: average gradient on the NDA runtime API ===\n")
    runtime = ChopimRuntime(mode=AccessMode.BANK_PARTITIONED, mix="mix8")
    rng = np.random.default_rng(0)

    # --- Operands (nda::SHARED / nda::PRIVATE of Figure 8) -----------------
    x = runtime.matrix(N_SAMPLES, N_FEATURES,
                       init=rng.standard_normal((N_SAMPLES, N_FEATURES)))
    w = runtime.vector(N_FEATURES, init=rng.standard_normal(N_FEATURES) * 0.01)
    y = runtime.vector(N_SAMPLES)
    v = runtime.vector(N_SAMPLES, init=rng.standard_normal(N_SAMPLES))
    a = runtime.vector(N_FEATURES)
    a_private = runtime.vector(N_FEATURES)
    labels = v.copy()

    start_cycle = runtime.system.now
    # --- Average gradient (Figure 8 body) ----------------------------------
    runtime.gemv(y, x, w)                 # y = X w
    runtime.xmy(v, v, y)                  # v = v (*) y
    runtime.host_sigmoid(v, v)            # host-side nonlinearity
    runtime.xmy(v, v, y)                  # v = v (*) y
    runtime.scal(v, 1.0 / N_SAMPLES)      # v = v / n
    gemv_cycles = runtime.system.now - start_cycle

    # parallel_for: one asynchronous AXPY per sample into the PE-private copy.
    macro = runtime.macro("average_gradient")
    for i in range(N_SAMPLES):
        runtime.axpy_macro(macro, a_private, float(v[i]), x[i])
    runtime.macro_wait(macro)
    macro_cycles = runtime.system.now - start_cycle - gemv_cycles

    runtime.host_reduce(a, a_private)     # global reduction through the host
    runtime.axpy(a, 1e-3, w)              # regularization term
    total_cycles = runtime.system.now - start_cycle

    # --- Check the functional result against plain numpy -------------------
    y_ref = x.astype(np.float64) @ w.astype(np.float64)
    v_ref = 1.0 / (1.0 + np.exp(-(labels * y_ref)))
    v_ref = v_ref * y_ref / N_SAMPLES
    reference = (v_ref[:, None] * x).sum(axis=0) + 1e-3 * w
    error = np.max(np.abs(reference - a))
    in_sync = runtime.system.verify_fsm_sync()

    print(f"operations submitted to the NDAs   : {runtime.operations_submitted}")
    print(f"macro operation AXPYs (async)      : {macro.launched}")
    print(f"GEMV/XMY/SCAL phase                : {gemv_cycles} DRAM cycles")
    print(f"parallel_for AXPY phase            : {macro_cycles} DRAM cycles")
    clock_ghz = runtime.system.config.org.dram_clock_ghz
    print(f"total simulated cost               : {total_cycles} DRAM cycles "
          f"({total_cycles / (clock_ghz * 1e3):.2f} us at {clock_ghz:g} GHz)")
    print(f"max |error| vs. numpy reference    : {error:.2e}")
    print(f"replicated FSMs in sync            : {in_sync}")
    return 0 if error <= MAX_ERROR and in_sync else 1


if __name__ == "__main__":
    sys.exit(main())
