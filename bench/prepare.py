"""Benchmark set-up and the calibration loop that rescales its timings.

    python3 bench/prepare.py <workload> <seed> <workdir> <src>

imports dsirr, generates and writes the workload's problem files, and prints
the seconds that took followed by the median of three ``calibrate()`` runs.
run.py starts it in a fresh interpreter several times, so ``setup_s`` sees
the cost of a cold import.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from ladder import WORKLOADS, problem  # noqa: E402

# calibrate() takes about this long on an unloaded core of a 2-vCPU x86 VM;
# a timing t measured next to a calibration c is reported as
# t * CAL_NOMINAL_S / c, seconds at that nominal machine speed
CAL_NOMINAL_S = 0.004


def calibrate() -> float:
    """Seconds of a fixed mix of interpreter work and small BLAS calls.

    A shared 2-vCPU VM changed speed by up to 1.7x within minutes; dividing
    by a calibration taken next to each measurement removes that drift, not
    a change in dsirr, which the loop never calls.
    """
    import numpy as np

    m = (np.arange(48 * 48).reshape(48, 48) % 7 + 48 * np.eye(48)).astype(complex)
    np.linalg.solve(m, m @ m)  # the first call in a process loads LAPACK
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1501):
        acc += Fraction(i % 13, 17)
    for _ in range(10):
        np.linalg.solve(m, m @ m)
    return time.perf_counter() - start


def input_path(workdir, rung) -> Path:
    return Path(workdir) / f"{rung.name}.json"


def write_inputs(workload: str, seed: int, workdir) -> None:
    """One problem file per rung of the workload, named after the rung."""
    Path(workdir).mkdir(parents=True, exist_ok=True)
    for rung in WORKLOADS[workload][1]:
        with open(input_path(workdir, rung), "w", encoding="utf-8") as f:
            json.dump(problem(rung, seed), f, indent=1)


if __name__ == "__main__":
    workload, seed, workdir, src = sys.argv[1:5]
    sys.path.insert(0, src)
    import dsirr  # noqa: F401  (the import is part of set-up)

    write_inputs(workload, int(seed), workdir)
    seconds = time.perf_counter() - _START
    print(seconds, statistics.median(calibrate() for _ in range(3)))
