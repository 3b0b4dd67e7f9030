"""The sweep service's end-to-end proofs (see :mod:`sweep_proofs.proofs`).

Not a test module: the ``sweep-proofs`` CI job runs the proofs with
``PYTHONPATH=src:tests python -m sweep_proofs <proof>``, and
``tests/test_sweeprunner.py`` runs scaled-down copies in-process.
"""
