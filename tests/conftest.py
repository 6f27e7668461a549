"""Session settings, applied before any test module imports numpy.

BLAS runs one thread per process, as under ``bench/run.py``.  The acceptance
fixtures train through ``cli``'s process pool, and a BLAS thread pool of one
thread per CPU in each of its processes oversubscribes the CPUs: on two CPUs
the 3q fixture took about twice as long.  A value already set in the
environment is kept, and the setting has no effect where a plugin imported
numpy first.
"""
import os

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
