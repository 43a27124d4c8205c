"""Process set-up shared by the benchmark's entry points.

Importing this module must happen before numpy loads: it pins the BLAS
pools to one thread, and it puts the checkout's ``src`` directory first on
``sys.path`` so the benchmark measures the dvokit built from this checkout.
It imports nothing heavy itself.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = "1"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# dvokit's run report calls `git describe`; stop git from searching for a
# repository above the checkout, so the benchmark reads nothing outside it.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)


class RefusedError(RuntimeError):
    """The benchmark cannot run meaningfully in this environment."""


def check_environment() -> None:
    """Refuse a thread pool setting or a checkout without dvokit's sources."""
    threads = os.environ.get("DVO_THREADS")
    if threads is not None and threads != "1":
        raise RefusedError(f"DVO_THREADS={threads!r}: the benchmark measures the single-threaded path")
    if not (SRC / "dvokit" / "__init__.py").is_file():
        raise RefusedError(f"no dvokit sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
