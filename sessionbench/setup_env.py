"""Run environment shared by the benchmark's two entry scripts.

Import this before anything that imports NumPy.  It pins every BLAS pool to
one thread, so the client thread, the server's handler thread and NumPy
stay within the machine's cores, and puts the program's ``src/`` (next to
this directory in a checkout) first on ``sys.path``.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from pathlib import Path

BLAS_THREADS = "1"
_BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in _BLAS_VARIABLES:
    os.environ[_name] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if not (SOURCE / "repro" / "__init__.py").is_file():
    raise SystemExit(f"sessionbench: the program's source is missing ({SOURCE})")
sys.path.insert(0, str(SOURCE))


def pin_to_one_cpu() -> int:
    """Pin this process (and the processes it starts) to one CPU.

    The http_session client and server then hand each request over on one
    CPU instead of waking each other across two.  On a shared host a
    cross-CPU wake-up can wait on the hypervisor, and that wait doubled
    round times in some runs.  The other CPU is left to the rest of the
    machine.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> "dict[str, object]":
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {name: os.environ[name] for name in _BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
