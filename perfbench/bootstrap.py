"""Pinned environment and import path for the benchmark's scripts.

Import this module before numpy: BLAS reads its thread count once, when it
is loaded, and pool workers inherit the environment set here.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "aqc_shield", "__init__.py"))


def prepare() -> None:
    """Single-threaded BLAS everywhere and ``src/`` first on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
