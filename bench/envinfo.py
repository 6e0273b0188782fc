"""Thread pinning, package import from the checkout, and the environment record.

Import this module before numpy: :func:`pin_blas_threads` only takes effect
if it runs before the BLAS library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, so the only parallelism is the package's own threads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_paramcrop():
    """Import paramcrop from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "paramcrop" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no paramcrop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import paramcrop

    if Path(paramcrop.__file__).resolve().parent != SRC / "paramcrop":
        raise SystemExit(f"benchmark: imported paramcrop from {paramcrop.__file__}")
    return paramcrop


def _git_sha() -> str:
    """HEAD commit read from ``.git`` directly; an exported tree has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment() -> dict[str, str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": str(len(os.sched_getaffinity(0))),
        "PARAMCROP_THREADS": os.environ.get("PARAMCROP_THREADS", "unset"),
        "blas_threads": ",".join(f"{v}={os.environ.get(v, 'unset')}" for v in BLAS_THREAD_VARS),
    }
