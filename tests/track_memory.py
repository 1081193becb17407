"""The CLI's track command holds its memory flat in --steps:

    python tests/track_memory.py

runs `python -m factordiff track` for each kind on an n = 128 linear family
from I, to g/sqrt(n) + 3I for `--kind qr` and `--kind ldu` and to its
symmetric part, which is positive definite, for `--kind cholesky` (g
standard normal from random.Random(n)), at 16 and at 1,024 steps, prints
each run's peak RSS, and exits 1 unless, for each kind, the peak at 1,024
steps is within 10 MB of the peak at 16 steps. Every factor a prediction
starts from holds its prepared base, and an LDU base holds two inverses,
so a base kept past its sample would show as growth.

A peak is the child's own ru_maxrss, as os.wait4 reads it. A child carries
its parent's high-water RSS across exec, so this launcher imports neither
numpy nor factordiff: its own peak stays below the child's. It imports
factordiff from the src/ next to this file, and pytest does not collect it.
"""

import os
import random
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
N = 128
KINDS = ("qr", "cholesky", "ldu")
STEPS = (16, 1024)
SLACK_MB = 10.0


def _write(path: Path, rows) -> str:
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return str(path)


def _peak_mb(args) -> float:
    """Run factordiff with args; its peak RSS in MB, or exit on a failure."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "factordiff", *args], env)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        sys.exit(f"factordiff {' '.join(args)} exited {code}")
    return usage.ru_maxrss / 1024.0


def main() -> int:
    rng = random.Random(N)
    eye = [[float(i == j) for j in range(N)] for i in range(N)]
    end = [[rng.gauss(0.0, 1.0) / N**0.5 + 3.0 * e for e in row] for row in eye]
    spd = [[0.5 * (x + y) for x, y in zip(row, col)] for row, col in zip(end, zip(*end))]
    with tempfile.TemporaryDirectory() as tmp:
        start = _write(Path(tmp, "eye.csv"), eye)
        general, symmetric = _write(Path(tmp, "a.csv"), end), _write(Path(tmp, "spd.csv"), spd)
        stops = {"qr": general, "cholesky": symmetric, "ldu": general}
        out = str(Path(tmp, "track.csv"))
        peaks = {
            kind: [
                _peak_mb(["track", "--kind", kind, "--input", start, stops[kind],
                          "--steps", str(steps), "--output", out])
                for steps in STEPS
            ]
            for kind in KINDS
        }
    grew = False
    for kind, (low, high) in peaks.items():
        for steps, peak in zip(STEPS, (low, high)):
            print(f"track --kind {kind}, n={N}, --steps {steps}: peak RSS {peak:.1f} MB")
        if high - low > SLACK_MB:
            print(f"{kind}: peak RSS grew by more than {SLACK_MB:g} MB with --steps", file=sys.stderr)
            grew = True
    return 1 if grew else 0


if __name__ == "__main__":
    sys.exit(main())
