"""Process set-up shared by the benchmark's entry points.

Both pin numeric libraries to one compute thread (before numpy is imported)
and import psgdkit from this checkout's src/ only, so a benchmark run never
measures an installed copy.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_psgdkit():
    sys.path.insert(0, SRC)
    import psgdkit
    found = os.path.dirname(os.path.abspath(psgdkit.__file__))
    if found != os.path.join(SRC, "psgdkit"):
        raise ImportError(f"psgdkit imported from {found}, not from {SRC}")
    return psgdkit
