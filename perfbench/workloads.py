"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop: one caller, the next op starts when the
previous one has returned, and at most one child process runs at a time.
Op `i` of a workload draws its inputs from `np.random.default_rng([seed, i])`,
so the same seed gives the same inputs in any run and in any pass.

* track-small  -- one op tracks one 64-step path: track_qr, track_cholesky
  and track_ldu on seeded linear families at n in {4, 8, 16}, plus track_ldu
  on the boundary family [[eps^t, 1], [1, 0]] for eps in {1e-2, 1e-4, 1e-6,
  1e-8}. Per-call Python overhead in newton, frechet and core dominates; the
  factor kernels run once per path. eps = 1e-8 raises NoConvergence at this
  revision and counts as a failed op.
* track-large  -- one op tracks one 16-step path at n=128, cycling the three
  maps. Time goes to numpy matmuls alternating with scipy triangular solves
  (two OpenBLAS thread pools), the svd/eigvalsh domain checks and the polar
  retraction.
* factor-large -- one op is a cycle of qr_factor, cholesky_factor and
  ldu_factor calls, each on a fresh input, at n=128 and n=256. The kernels'
  Python loops dominate; frechet and newton are not called.
* cli          -- one op is a round of three fresh `python -m factordiff`
  processes: `verify --seed s`, `track --kind {qr,cholesky,ldu}` on n=8 CSV
  endpoints and `factor --kind {qr,ldu}` on an n=256 CSV. The only workload
  that measures interpreter start-up, import, matrixio, cli and verify.

Linear families are a(t) = (1 - t) a0 + t a1. For qr and ldu the endpoints
are g / sqrt(n) + c I with c = 1 + max ||g||_2 / sqrt(n) over both ends, so
every leading block of every a(t) has smallest singular value at least 1;
for cholesky they are g g^T / n + I. No op on these families leaves its
domain.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# ||product - a||_F <= RECON_RTOL * (1 + ||a||_F) for every factorization.
RECON_RTOL = 1e-10
# TrackReport.max_residual <= TRACK_RTOL * (1 + max_t ||a(t)||_F).
TRACK_RTOL = 1e-10
STEPS = 64
# A 16-step path at n=128 takes ~0.7 s, so a run holds enough ops for a
# steady median and tail.
LARGE_STEPS = 16
EPS_FAMILY = (1e-2, 1e-4, 1e-6, 1e-8)
MAPS = ("qr", "cholesky", "ldu")
CHILD_TIMEOUT_S = 120


class CheckFailed(Exception):
    """The program returned, but its output is wrong."""


class OpFailed(Exception):
    """The program refused or failed (an exception or a nonzero exit)."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    steps: int = 0
    refs: list = field(default_factory=list)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _fail_unless(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def check_factors(kind: str, parts: dict, a: np.ndarray) -> None:
    """Reconstruction within RECON_RTOL, structure bit-exact."""
    n = a.shape[0]
    if kind == "qr":
        q, r = parts["q"], parts["r"]
        _fail_unless(np.all(np.tril(r, -1) == 0.0), "r has nonzero entries below the diagonal")
        _fail_unless(np.all(np.diag(r) >= 0.0), "r has a negative diagonal entry")
        _fail_unless(
            _norm(q.T @ q - np.eye(n)) <= RECON_RTOL * (1.0 + _norm(q)), "q is not orthogonal"
        )
        prod = q @ r
    elif kind == "cholesky":
        l = parts["l"]
        _fail_unless(np.all(np.triu(l, 1) == 0.0), "l has nonzero entries above the diagonal")
        _fail_unless(np.all(np.diag(l) >= 0.0), "l has a negative diagonal entry")
        prod = l @ l.T
    else:
        l, d, u = parts["l"], parts["d"], parts["u"]
        _fail_unless(np.all(np.triu(l, 1) == 0.0) and np.all(np.diag(l) == 1.0), "l is not unit lower")
        _fail_unless(np.all(np.tril(u, -1) == 0.0) and np.all(np.diag(u) == 1.0), "u is not unit upper")
        _fail_unless(np.all(d - np.diag(np.diag(d)) == 0.0), "d is not diagonal")
        prod = l @ d @ u
    residual = _norm(prod - a)
    _fail_unless(
        residual <= RECON_RTOL * (1.0 + _norm(a)),
        f"{kind} reconstruction residual {residual:.3g} above bound at n={n}",
    )


def _components(kind: str, fac) -> dict:
    names = {"qr": ("q", "r"), "cholesky": ("l",), "ldu": ("l", "d", "u")}[kind]
    return {c: getattr(fac, c) for c in names}


def _family(rng, n: int, kind: str):
    g0 = rng.standard_normal((n, n))
    g1 = rng.standard_normal((n, n))
    if kind == "cholesky":
        return g0 @ g0.T / n + np.eye(n), g1 @ g1.T / n + np.eye(n)
    shift = 1.0 + max(np.linalg.norm(g0, 2), np.linalg.norm(g1, 2)) / np.sqrt(n)
    return g0 / np.sqrt(n) + shift * np.eye(n), g1 / np.sqrt(n) + shift * np.eye(n)


def _shifted(rng, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return g / np.sqrt(n) + (1.0 + np.linalg.norm(g, 2) / np.sqrt(n)) * np.eye(n)


def _factor_input(rng, n: int, kernel: str) -> np.ndarray:
    if kernel == "cholesky":
        g = rng.standard_normal((n, n))
        return g @ g.T / n + np.eye(n)
    if kernel == "ldu":
        return _shifted(rng, n)
    return rng.standard_normal((n, n))


class Workload:
    """Base: `op(i, tracer)` builds op i; `trace_ops` ops make one traced pass."""

    in_process = True
    trace_ops = 1

    def __init__(self, fd, seed: int, tiny: bool, workdir: str):
        self.fd = fd
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def rng(self, i: int):
        return np.random.default_rng([self.seed, i])

    def fingerprint(self) -> str:
        """Hash of the inputs of one cycle of ops, to show what a seed changes."""
        raise NotImplementedError


class _Tracking(Workload):
    steps = STEPS

    def slots(self) -> list:
        raise NotImplementedError

    def _path(self, i: int):
        kind, n = self.slots()[i % len(self.slots())]
        if kind == "eps":
            eps = n

            def evaluate(t):
                return np.array([[eps**t, 1.0], [1.0, 0.0]])

            return "ldu", f"track_ldu.eps{eps:g}", evaluate, None
        a0, a1 = _family(self.rng(i), n, kind)

        def evaluate(t):
            return (1.0 - t) * a0 + t * a1

        return kind, f"track_{kind}.n{n}", evaluate, a0

    def op(self, i: int, tracer=None) -> Op:
        kind, label, evaluate, a0 = self._path(i)
        tracker = {"qr": self.fd.track_qr, "cholesky": self.fd.track_cholesky, "ldu": self.fd.track_ldu}[kind]
        traced = tracer.wrap_evaluate(evaluate) if tracer is not None else evaluate
        path = self.fd.PathSpec(traced, steps=self.steps)
        steps = self.steps

        def check(report) -> None:
            _fail_unless(len(report.ts) == steps + 1, "report does not cover every sample")
            scale = 1.0 + max(_norm(evaluate(t)) for t in report.ts)
            _fail_unless(
                report.max_residual <= TRACK_RTOL * scale,
                f"{label}: max_residual {report.max_residual:.3g} above bound",
            )
            check_factors(kind, _components(kind, report.factors[-1]), evaluate(1.0))

        refs = [(f"{kind}_factor", a0)] if a0 is not None and a0.shape[0] >= 128 else []
        return Op(label, lambda: tracker(path), check, steps, refs)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.slots())):
            h.update(np.ascontiguousarray(self._path(i)[2](0.5)).tobytes())
        return h.hexdigest()


class TrackSmall(_Tracking):
    trace_ops = 13

    def slots(self) -> list:
        sizes = (4,) if self.tiny else (4, 8, 16)
        return [(k, n) for n in sizes for k in MAPS] + [("eps", e) for e in EPS_FAMILY]


class TrackLarge(_Tracking):
    trace_ops = 3

    @property
    def steps(self):
        return 8 if self.tiny else LARGE_STEPS

    def slots(self) -> list:
        return [(k, 12 if self.tiny else 128) for k in MAPS]


class FactorLarge(Workload):
    """One op is a cycle of six kernel calls, each on a fresh input:
    qr_factor, cholesky_factor and ldu_factor at n=128 and n=256.

    Single calls differ 30x in cost, and the n=256 calls use both BLAS
    threads, so a run's slowest single calls swing with host noise; a cycle
    has one shape. Per-call times are kept for the summary.
    """

    trace_ops = 1

    def __init__(self, fd, seed, tiny, workdir):
        super().__init__(fd, seed, tiny, workdir)
        sizes = (16, 24) if tiny else (128, 256)
        self.calls = [(k, n) for k in MAPS for n in sizes]
        self.call_walls: list = []

    def _inputs(self, i: int) -> list:
        return [(k, _factor_input(self.rng(i * len(self.calls) + j), n, k)) for j, (k, n) in enumerate(self.calls)]

    def op(self, i: int, tracer=None) -> Op:
        inputs = self._inputs(i)

        def call():
            out = []
            for kind, a in inputs:
                t0 = time.perf_counter()
                # looked up at call time, so a traced pass calls the wrapped kernel
                out.append(getattr(self.fd, f"{kind}_factor")(a))
                self.call_walls.append((f"{kind}_factor.n{a.shape[0]}", time.perf_counter() - t0))
            return out

        def check(facs) -> None:
            for (kind, a), fac in zip(inputs, facs):
                check_factors(kind, _components(kind, fac), a)

        return Op("factor.cycle", call, check, 0, [(f"{k}_factor", a) for k, a in inputs])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for _, a in self._inputs(0):
            h.update(a.tobytes())
        return h.hexdigest()


def _write_csv(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _read_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


class Cli(Workload):
    """Fresh `python -m factordiff` processes, run one after another.

    One op is a round of three processes: `verify`, then `track` (kind
    cycling qr, cholesky, ldu), then `factor` (kind alternating qr, ldu).
    The three subcommands differ by up to 2.5x in wall time and a run holds
    only ~25 processes, so percentiles over single processes would jump
    between subcommands from run to run; rounds have one shape.
    """

    in_process = False
    trace_ops = 3

    def __init__(self, fd, seed, tiny, workdir):
        super().__init__(fd, seed, tiny, workdir)
        self.steps = 8 if tiny else STEPS
        rng = np.random.default_rng([seed])
        n_small, n_large = (4, 16) if tiny else (8, 256)
        a0, a1 = _family(rng, n_small, "qr")
        s0, s1 = _family(rng, n_small, "cholesky")
        self.inputs = {"a0": a0, "a1": a1, "s0": s0, "s1": s1, "b": _shifted(rng, n_large)}
        for name, a in self.inputs.items():
            _write_csv(os.path.join(workdir, f"{name}.csv"), a)
        self.verify_seed = seed
        self.report_sha = None
        self.process_walls: list = []
        self.env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def _argv(self, step) -> list:
        if step[0] == "verify":
            return ["verify", "--seed", str(self.verify_seed), "--report", "report.json"]
        if step[0] == "track":
            ends = ["s0.csv", "s1.csv"] if step[1] == "cholesky" else ["a0.csv", "a1.csv"]
            return ["track", "--kind", step[1], "--input", *ends, "--steps", str(self.steps), "--output", "traj.csv"]
        return ["factor", "--kind", step[1], "--input", "b.csv", "--output", "fac"]

    def op(self, i: int, tracer=None) -> Op:
        steps = [("verify",), ("track", MAPS[i % 3]), ("factor", ("qr", "ldu")[i % 2])]
        for name in ["report.json", "traj.csv"] + [f"fac_{c}.csv" for c in ("q", "r", "l", "d", "u")]:
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.remove(path)

        def call():
            outs = []
            for step in steps:
                t0 = time.perf_counter()
                outs.append(self._process(self._argv(step), tracer))
                self.process_walls.append((step[0], time.perf_counter() - t0))
            return outs

        def check(outs) -> None:
            self._check_verify(outs[0])
            self._check_track(steps[1])
            self._check_factor(steps[2])

        refs = [(f"{steps[2][1]}_factor", self.inputs["b"])] if self.inputs["b"].shape[0] >= 128 else []
        return Op(f"cli.round.{steps[1][1]}.{steps[2][1]}", call, check, self.steps, refs)

    def _process(self, argv: list, tracer) -> str:
        if tracer is None:
            return self._run([sys.executable, "-m", "factordiff", *argv])
        spans_path = os.path.join(self.workdir, "spans.json")
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        idx = tracer.begin("cli.process")
        try:
            return self._run([sys.executable, child, spans_path, *argv])
        finally:
            tracer.end(idx)
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    tracer.adopt(json.load(fh), idx)
                os.remove(spans_path)

    def _run(self, argv: list) -> str:
        proc = subprocess.run(
            argv, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode == 4:
            raise CheckFailed(f"verify reported a failing check: {proc.stdout.strip()}")
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def _check_verify(self, stdout: str) -> None:
        lines = stdout.strip().splitlines()
        _fail_unless(len(lines) == 6 and all(x.startswith("PASS ") for x in lines), "verify did not PASS all six checks")
        with open(os.path.join(self.workdir, "report.json"), "rb") as fh:
            payload = fh.read()
        results = json.loads(payload)
        _fail_unless(len(results) == 6 and all(r["passed"] for r in results), "report does not PASS all six checks")
        sha = hashlib.sha256(payload).hexdigest()
        if self.report_sha is None:
            self.report_sha = sha
        _fail_unless(sha == self.report_sha, "verify report bytes differ between runs of one seed")

    def _check_track(self, step) -> None:
        with open(os.path.join(self.workdir, "traj.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().strip().splitlines()]
        header, body = rows[0], rows[1:]
        _fail_unless(header[0] == "t" and header[-1] == "residual", "trajectory header is malformed")
        _fail_unless(len(body) == self.steps + 1, "trajectory does not cover every sample")
        ts = [float(r[0]) for r in body]
        _fail_unless(ts == [k / self.steps for k in range(self.steps + 1)], "trajectory samples are off the grid")
        ends = ("s0", "s1") if step[1] == "cholesky" else ("a0", "a1")
        scale = 1.0 + max(_norm(self.inputs[e]) for e in ends)
        worst = max(float(r[-1]) for r in body)
        _fail_unless(worst <= TRACK_RTOL * scale, f"trajectory residual {worst:.3g} above bound")

    def _check_factor(self, step) -> None:
        names = {"qr": ("q", "r"), "ldu": ("l", "d", "u")}[step[1]]
        parts = {c: _read_csv(os.path.join(self.workdir, f"fac_{c}.csv")) for c in names}
        check_factors(step[1], parts, self.inputs["b"])

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.inputs):
            h.update(self.inputs[name].tobytes())
        h.update(str(self.verify_seed).encode())
        return h.hexdigest()


WORKLOADS = {
    "track-small": TrackSmall,
    "track-large": TrackLarge,
    "factor-large": FactorLarge,
    "cli": Cli,
}
