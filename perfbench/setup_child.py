"""Fresh-process set-up probe: import factordiff and make one warm-up call
per factorization map.

Run as `python3 perfbench/setup_child.py` from the checkout root; the parent
times the whole process. The first call into each map pays one-off costs
(lazy numpy.linalg and scipy loading, BLAS thread start-up), so the timed
phase of a benchmark run starts only after `warm_up` has run in-process.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def warm_up(fd) -> None:
    """Track a two-step path at n=4 with each map: factor, domain check,
    derivative solve, Newton correction and retraction all run once."""
    import numpy as np

    base = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4) / 16.0
    spd = base @ base.T
    fd.track_qr(fd.PathSpec(lambda t: base + t * 0.01 * np.eye(4), steps=2))
    fd.track_cholesky(fd.PathSpec(lambda t: spd + t * 0.01 * np.eye(4), steps=2))
    fd.track_ldu(fd.PathSpec(lambda t: base + t * 0.01 * np.eye(4), steps=2))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import factordiff

    warm_up(factordiff)
