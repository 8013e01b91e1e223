"""Host fingerprint recorded in every result, and the BLAS thread pins."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Unpinned BLAS makes a two-worker pool measure the scheduler, not the
# program (8.3 s/round against 1.4 pinned on the cross-device cell).
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    os.environ.update(BLAS_PINS)


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def _blas_name() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_name(),
        "blas_pins": {name: os.environ.get(name) for name in BLAS_PINS},
        "git_commit": _git_commit(),
        "load_avg_1m": os.getloadavg()[0],
    }
