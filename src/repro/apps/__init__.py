"""Application workloads: SVRG logistic regression, CG and streamcluster.

The SVRG case study (paper Section IV, Figures 15a/15b) is implemented in
full: host-only, NDA-accelerated (serialized) and delayed-update (parallel)
variants, with convergence computed functionally (numpy) and wall-clock time
derived from simulator-measured host/NDA throughput.  Conjugate gradient and
streamcluster provide the additional NDA workload points of Figure 14.

Importing this package loads nothing: the re-exports below resolve on first
access (PEP 562), so the figure modules that only need the kernel sequences
of :mod:`repro.apps.workloads` never import numpy, and sweep workers import
it after their BLAS thread share is set (see ARCHITECTURE.md, "Apps and
figure pipeline").  numpy is needed by the functional models only
(``svrg``, ``cg``, ``streamcluster``, ``datasets``; ``pip install .[apps]``).
"""

from repro import export_lazily

_EXPORTS = {
    "SyntheticClassificationDataset": "repro.apps.datasets",
    "make_dataset": "repro.apps.datasets",
    "SvrgConfig": "repro.apps.svrg",
    "SvrgTimingModel": "repro.apps.svrg",
    "SvrgTrainer": "repro.apps.svrg",
    "SvrgVariant": "repro.apps.svrg",
    "measure_svrg_timing": "repro.apps.svrg",
    "ConjugateGradientSolver": "repro.apps.cg",
    "cg_kernel_sequence": "repro.apps.workloads",
    "StreamClusterer": "repro.apps.streamcluster",
    "streamcluster_kernel_sequence": "repro.apps.workloads",
    "application_kernel_sequence": "repro.apps.workloads",
    "svrg_kernel_sequence": "repro.apps.workloads",
}

__all__ = list(_EXPORTS)

__getattr__ = export_lazily(globals(), _EXPORTS)


def require_numpy():
    """numpy for the functional models, or one actionable error without it."""
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(
            "repro.apps.svrg, .cg, .streamcluster and .datasets compute with "
            f"numpy, which is unavailable: {exc}. Install it with `pip "
            "install numpy` (or `pip install .[apps]`); the simulator, the "
            "figure sweeps other than fig15 and repro.apps.workloads run "
            "without it."
        ) from exc
    return numpy
