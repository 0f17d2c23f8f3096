"""Internals of the serving/cold-start benchmark (see ../README.md).

Only :mod:`perfkit.spec` is importable without numpy and ``repro``; the
runner's parent process imports nothing else, so the measured program is
loaded once per workload, in a fresh subprocess, after the BLAS thread
caps are in place.
"""
