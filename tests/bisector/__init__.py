"""The first-divergence bisector (see :mod:`bisector.divergence`).

Not a test module: run it with
``PYTHONPATH=src:tests python -m bisector <shape>``; the oracle tests in
``tests/test_burst.py`` import its comparison pieces, and the ``bisector``
CI step runs its cross-commit mode.
"""
