"""Process environment of the benchmark: one BLAS thread, radopf from src/.

Import this module before numpy.  It pins every BLAS/OpenMP pool to one
thread (a 150x150 LU is ~12x slower with default threading under contention,
and the branch-and-bound search path changes with the thread count), then
puts the checkout's ``src/`` first on ``sys.path``.  Without ``src/radopf``
the benchmark exits with code 2 instead of measuring some other copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "radopf" / "__init__.py").is_file():
    print(f"perfbench: no radopf sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))


def describe(seed: int) -> dict:
    """Everything about the process that a number depends on besides code."""
    import platform

    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    except Exception as exc:  # older numpy has no mode="dicts"
        blas = {"error": repr(exc)}
    return {
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
