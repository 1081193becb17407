"""Noise-free counts of the tracker's work, one line per path:

    OPENBLAS_NUM_THREADS=1 python tests/track_counts.py

prints, for each path, its outcome (ok, or the exception and its message) and
four counts: Newton iterations (corrector steps, those of failed
corrections included), derivative-step predictions, step halvings, and
triangles inverted for a prepared base (calls of frechet._upper_inverse).
A last line sums each count over the paths. The paths are:

- the track digest's (tests/digests.py), in its order;
- a 16-step n = 128 linear family per map, as the benchmark's track-large
  draws it at seed 7;
- per map, the CLI's piecewise-linear family through three samples at
  n = 32, kinked at t = 0.5: at 16 steps the kink is a grid sample, at 15
  it falls between two.

The counts are deterministic, so two runs print the same bytes; they do
not drift with the host as times do. Run it on two checkouts with one BLAS
thread to compare their work. It imports factordiff from the src/ next to
this file, and pytest does not collect it.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from digests import track_paths  # noqa: E402

from factordiff import (  # noqa: E402
    NoConvergence,
    PathLeavesDomain,
    PathSpec,
    frechet,
    newton,
    track_cholesky,
    track_ldu,
    track_qr,
)

TRACKERS = {"qr": track_qr, "cholesky": track_cholesky, "ldu": track_ldu}
COUNTS = ("iterations", "predictions", "halvings", "inversions")


def _linear_paths() -> list:
    # perfbench's _family for track-large: op i tracks map i % 3 on
    # default_rng([seed, i])
    paths, n = [], 128
    for i, kind in enumerate(TRACKERS):
        rng = np.random.default_rng([7, i])
        g0, g1 = rng.standard_normal((2, n, n))
        if kind == "cholesky":
            a0, a1 = g0 @ g0.T / n + np.eye(n), g1 @ g1.T / n + np.eye(n)
        else:
            shift = 1.0 + max(np.linalg.norm(g0, 2), np.linalg.norm(g1, 2)) / np.sqrt(n)
            a0, a1 = g0 / np.sqrt(n) + shift * np.eye(n), g1 / np.sqrt(n) + shift * np.eye(n)
        path = PathSpec(lambda t, a0=a0, a1=a1: (1.0 - t) * a0 + t * a1, steps=16)
        paths.append((f"{kind} linear n={n} seed 7", TRACKERS[kind], path))
    return paths


def kinked(kind: str, n: int, steps: int) -> PathSpec:
    """The CLI's family through three seeded samples, as `factordiff track
    --input s0 s1 s2` builds it: linear on [0, 1/2] and on [1/2, 1]."""
    g = np.random.default_rng(n).standard_normal((3, n, n))
    if kind == "cholesky":
        samples = [x @ x.T / n + np.eye(n) for x in g]
    else:
        samples = [x / np.sqrt(n) + 3.0 * np.eye(n) for x in g]

    def evaluate(t):
        pos = 2.0 * t
        i = min(int(pos), 1)
        w = pos - i
        return (1.0 - w) * samples[i] + w * samples[i + 1]

    return PathSpec(evaluate, steps=steps)


def _kinked_paths() -> list:
    return [
        (f"{kind} kinked n=32 steps={steps}", TRACKERS[kind], kinked(kind, 32, steps))
        for steps in (16, 15)
        for kind in TRACKERS
    ]


def count(track, path) -> tuple:
    """The path's outcome and its counts, in COUNTS order."""
    tally = dict.fromkeys(COUNTS, 0)
    step, sample, inverse = newton._step, newton._sample, frechet._upper_inverse

    def counted_step(m, fac, e, cfg, base=None):
        tally["iterations" if base is not None else "predictions"] += 1
        return step(m, fac, e, cfg, base)

    def counted_sample(p, t, shape=None):
        # a halving samples its midpoint, which lies between grid samples
        tally["halvings"] += t != round(t * p.steps) / p.steps
        return sample(p, t, shape)

    def counted_inverse(t):
        tally["inversions"] += 1
        return inverse(t)

    newton._step, newton._sample, frechet._upper_inverse = counted_step, counted_sample, counted_inverse
    try:
        track(path)
        outcome = "ok"
    except (NoConvergence, PathLeavesDomain) as exc:
        outcome = f"{type(exc).__name__}({exc})"
    finally:
        newton._step, newton._sample, frechet._upper_inverse = step, sample, inverse
    return outcome, tuple(tally[c] for c in COUNTS)


def main() -> int:
    totals = [0] * len(COUNTS)
    print("path: outcome " + " ".join(COUNTS))
    for label, track, path in track_paths() + _linear_paths() + _kinked_paths():
        outcome, counts = count(track, path)
        totals = [x + y for x, y in zip(totals, counts)]
        print(f"{label}: {outcome} " + " ".join(map(str, counts)))
    print("total: " + " ".join(map(str, totals)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
