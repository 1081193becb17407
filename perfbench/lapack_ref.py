"""Single-thread LAPACK reference times for the factor kernels.

Usage: OPENBLAS_NUM_THREADS=1 python3 perfbench/lapack_ref.py INPUTS.npz

INPUTS.npz holds arrays named `<kernel>__<n>__<i>`. For each array the
matching LAPACK routine (np.linalg.qr, np.linalg.cholesky,
scipy.linalg.lu_factor) runs REPEATS times; the best time per array, then
the median over arrays of one (kernel, n), is printed as JSON
`{"<kernel>__<n>": seconds}`. The parent starts this process with one BLAS
thread, so the reference is a plain single-threaded run.
"""

import json
import sys
import time
from collections import defaultdict
from statistics import median

import numpy as np
import scipy.linalg

REPEATS = 5
ROUTINES = {
    "qr_factor": np.linalg.qr,
    "cholesky_factor": np.linalg.cholesky,
    "ldu_factor": scipy.linalg.lu_factor,
}


def main(path: str) -> None:
    best = defaultdict(list)
    with np.load(path) as inputs:
        for key in inputs.files:
            kernel, n, _ = key.split("__")
            a = inputs[key]
            routine = ROUTINES[kernel]
            routine(a)
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                routine(a)
                times.append(time.perf_counter() - t0)
            best[f"{kernel}__{n}"].append(min(times))
    print(json.dumps({k: median(v) for k, v in best.items()}))


if __name__ == "__main__":
    main(sys.argv[1])
