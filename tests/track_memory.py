"""The CLI's track command holds its memory flat in --steps:

    python tests/track_memory.py

runs `python -m factordiff track --kind qr` on the n = 128 linear family
from I to g/sqrt(n) + 3I (g standard normal from random.Random(n)) at 16
and at 1,024 steps, prints each run's peak RSS, and exits 1 unless the peak
at 1,024 steps is within 10 MB of the peak at 16 steps.

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
    with tempfile.TemporaryDirectory() as tmp:
        start, stop = _write(Path(tmp, "eye.csv"), eye), _write(Path(tmp, "a.csv"), end)
        out = str(Path(tmp, "track.csv"))
        peaks = [
            _peak_mb(["track", "--kind", "qr", "--input", start, stop,
                      "--steps", str(steps), "--output", out])
            for steps in STEPS
        ]
    for steps, peak in zip(STEPS, peaks):
        print(f"track --kind qr, n={N}, --steps {steps}: peak RSS {peak:.1f} MB")
    if peaks[1] - peaks[0] > SLACK_MB:
        print(f"peak RSS grew by more than {SLACK_MB:g} MB with --steps", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
