"""Makes the checkout's ``src/tpn2f`` importable, with the BLAS threads pinned.

Import this before numpy: OpenBLAS reads its thread count when it loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def blas_threads() -> int:
    """The BLAS thread count: every CPU this process may run on."""
    return len(os.sched_getaffinity(0))


def prepare() -> bool:
    """Pin BLAS threads and put ``src`` first on ``sys.path``; False without a package."""
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not (SRC / "tpn2f" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True
