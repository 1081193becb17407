"""Output digests: four sha256 values that a change meant to keep every
output byte must leave equal.

    OPENBLAS_NUM_THREADS=1 python tests/digests.py

prints, one per line:

- verify: the report of `factordiff verify --seed 0`;
- track: TrackReports (each factor's slot bytes, then
  repr((ts, newton_iters, factor_norms, residuals, max_residual))) of
  16-step linear paths per map at n in {2, 5, 16, 40, 64}, from I to
  g/sqrt(n) + 3I, or to g g^T + I for Cholesky, g standard normal from
  default_rng(n); then 64-step track_ldu on [[eps^t, 1], [1, 0]] for
  eps in {1e-2, 1e-6, 1e-8}; then the halving paths of track_qr: R(2t) S
  and R(3t) S at one step, R the rotation and S = diag(1, 2), and the
  4-step path that jumps from S to R(3) S after t = 0.5; then three
  track_ldu paths that leave the domain: [[0.5 - t, 1], [1, 0]] at the
  grid sample t = 0.5 (4 steps), a 3x3 one-step path whose step fails and
  halves onto a zero first pivot at t = 0.5, and [[t, 1], [1, 0]] at t = 0.
  A NoConvergence or PathLeavesDomain is hashed by its repr;
- cli: exit code, stdout and stderr of 15 CLI runs at n=6 (factor,
  derivative and track per map, plus factor of and track from a zero
  matrix per map), then the name and bytes of every file they leave;
- kernels: each slot's bytes of qr_factor and ldu_factor on g/sqrt(n) + 3I
  and of cholesky_factor on g g^T + I, g standard normal from
  default_rng(n), at n in {128, 256}, where qr_factor and ldu_factor run
  blocked.

Run it on two checkouts with one BLAS thread, as the digests were taken.
It imports factordiff from the src/ next to this file, and pytest does not
collect it.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from factordiff import (  # noqa: E402
    NoConvergence,
    PathLeavesDomain,
    PathSpec,
    cholesky_factor,
    ldu_factor,
    qr_factor,
    track_cholesky,
    track_ldu,
    track_qr,
)
from factordiff.matrixio import save_matrix  # noqa: E402

MAPS = ("qr", "cholesky", "ldu")


def _cli(args, cwd):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "factordiff", *args], cwd=cwd, env=env, capture_output=True
    )


def verify_digest() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        _cli(["verify", "--seed", "0", "--report", "report.json"], tmp)
        return hashlib.sha256(Path(tmp, "report.json").read_bytes()).hexdigest()


def _hash_factor(h, fac) -> None:
    for name in fac.__slots__:
        h.update(getattr(fac, name).tobytes())


def _hash_report(h, report) -> None:
    for fac in report.factors:
        _hash_factor(h, fac)
    fields = (report.ts, report.newton_iters, report.factor_norms, report.residuals)
    h.update(repr((*fields, report.max_residual)).encode())


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def track_digest() -> str:
    h = hashlib.sha256()
    for n in (2, 5, 16, 40, 64):
        g = np.random.default_rng(n).standard_normal((n, n))
        square, spd = g / np.sqrt(n) + 3.0 * np.eye(n), g @ g.T + np.eye(n)
        for track, end in ((track_qr, square), (track_cholesky, spd), (track_ldu, square)):
            path = PathSpec(lambda t, end=end, n=n: (1 - t) * np.eye(n) + t * end, steps=16)
            _hash_report(h, track(path))
    paths = [
        (track_ldu, PathSpec(lambda t, eps=eps: np.array([[eps**t, 1.0], [1.0, 0.0]]), steps=64))
        for eps in (1e-2, 1e-6, 1e-8)
    ]
    # a step of each of these fails and halves, as on the eps = 1e-8 path
    s = np.diag([1.0, 2.0])
    paths += [
        (track_qr, PathSpec(lambda t: _rotation(2.0 * t) @ s, steps=1)),
        (track_qr, PathSpec(lambda t: _rotation(3.0 * t) @ s, steps=1)),
        (track_qr, PathSpec(lambda t: s if t <= 0.5 else _rotation(3.0) @ s, steps=4)),
    ]
    # the step from I to `end` predicts a zero third pivot, although end's
    # pivots are 1, 1, 1, so it halves onto `mid`, whose first pivot is zero
    mid = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    end = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 1.0, 0.0]])
    paths += [
        (track_ldu, PathSpec(lambda t: np.array([[0.5 - t, 1.0], [1.0, 0.0]]), steps=4)),
        (track_ldu, PathSpec(lambda t: {0.0: np.eye(3), 0.5: mid, 1.0: end}[t], steps=1)),
        (track_ldu, PathSpec(lambda t: np.array([[t, 1.0], [1.0, 0.0]]), steps=4)),
    ]
    for track, path in paths:
        try:
            _hash_report(h, track(path))
        except (NoConvergence, PathLeavesDomain) as exc:
            h.update(repr(exc).encode())
    return h.hexdigest()


def cli_digest() -> str:
    n = 6
    g = np.random.default_rng(n).standard_normal((n, n))
    e = np.random.default_rng(n + 1).standard_normal((n, n))
    inputs = {
        "eye.csv": np.eye(n),
        "zero.csv": np.zeros((n, n)),
        "a.csv": g / np.sqrt(n) + 3.0 * np.eye(n),
        "s.csv": g @ g.T + np.eye(n),
        "e.csv": e,
        "es.csv": 0.5 * (e + e.T),
    }
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, m in inputs.items():
            save_matrix(os.path.join(tmp, name), m)
        runs = []
        for k in MAPS:
            a, e = ("s.csv", "es.csv") if k == "cholesky" else ("a.csv", "e.csv")
            runs += [
                ["factor", "--kind", k, "--input", a, "--output", f"f_{k}"],
                ["derivative", "--kind", k, "--input", a, "--perturbation", e,
                 "--output", f"d_{k}"],
                ["track", "--kind", k, "--input", "eye.csv", a, "--steps", "16",
                 "--output", f"t_{k}.csv"],
                ["factor", "--kind", k, "--input", "zero.csv", "--output", f"z_{k}"],
                ["track", "--kind", k, "--input", "zero.csv", a, "--output", f"tz_{k}.csv"],
            ]
        for args in runs:
            done = _cli(args, tmp)
            h.update(repr((args, done.returncode, done.stdout, done.stderr)).encode())
        for path in sorted(Path(tmp).iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def kernels_digest() -> str:
    h = hashlib.sha256()
    for n in (128, 256):
        g = np.random.default_rng(n).standard_normal((n, n))
        square, spd = g / np.sqrt(n) + 3.0 * np.eye(n), g @ g.T + np.eye(n)
        for kernel, a in ((qr_factor, square), (cholesky_factor, spd), (ldu_factor, square)):
            _hash_factor(h, kernel(a))
    return h.hexdigest()


if __name__ == "__main__":
    print("verify", verify_digest())
    print("track", track_digest())
    print("cli", cli_digest())
    print("kernels", kernels_digest())
