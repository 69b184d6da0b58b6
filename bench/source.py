"""Process set-up shared by the benchmark's entry scripts."""

from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# numpy's BLAS and OpenMP pools would add threads; the benchmark measures one.
_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_process() -> None:
    """Pin native thread pools to one thread and import qkmeans from the
    checkout's own ``src``; exit with an error when there is none."""
    if not (SRC / "qkmeans" / "__init__.py").is_file():
        raise SystemExit(f"no qkmeans package under {SRC}: run the benchmark "
                         "from a checkout of the repository")
    for name in _SINGLE_THREAD:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
