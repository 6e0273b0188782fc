"""Set up one workload in a fresh interpreter and print when its first step starts.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Prints one CLOCK_MONOTONIC reading: the moment the first training step (the
first ``make_synthetic_batch`` call) begins, or, for ``gradcheck``, the moment
``run_all`` would be entered.  ``run.py`` subtracts the time it started this
process to get ``setup_s``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import envinfo

envinfo.pin_blas_threads()

import workloads  # noqa: E402


def main(argv: list[str]) -> None:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    print(repr(workloads.make(name, seed, workdir).reach_first_step()))


if __name__ == "__main__":
    main(sys.argv[1:])
