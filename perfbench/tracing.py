"""Span tracing of factordiff from outside the package.

`Tracer.install` replaces each traced public function by a wrapper that
records a span, in every factordiff namespace that holds the function (the
modules import each other's functions by name, e.g. `from .factor import
qr_factor` in newton, verify, cli and the package root). Container classes
are traced through their `__init__`. `Tracer.uninstall` puts every original
back.

A span is `[name, start, end, parent, op, extra]`: `parent` is the index of
the enclosing span (-1 for none), `op` the benchmark op it belongs to and
`extra` a per-layer datum (matrix size for factor kernels, byte count for
matrixio, Newton iteration count for correctors, `t` for path evaluations).
Spans stay in memory; `dump` writes them at the end of a run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

# (module, attribute) pairs traced as `<module>.<attribute>`.
FUNCTIONS = [
    ("factor", "qr_factor"),
    ("factor", "qr_factor_mgs"),
    ("factor", "cholesky_factor"),
    ("factor", "ldu_factor"),
    ("factor", "in_domain_p"),
    ("factor", "leading_minor_dets"),
    ("frechet", "qr_derivative_solve"),
    ("frechet", "cholesky_derivative_solve"),
    ("frechet", "ldu_derivative_solve"),
    ("frechet", "qr_derivative_apply"),
    ("frechet", "cholesky_derivative_apply"),
    ("frechet", "ldu_derivative_apply"),
    ("frechet", "solve_triangular"),
    ("core", "validate_matrix"),
    ("core", "hs_norm"),
    ("newton", "qr_newton_correct"),
    ("newton", "cholesky_newton_correct"),
    ("newton", "ldu_newton_correct"),
    ("newton", "retract_orthogonal"),
    ("verify", "check_qr_existence_uniqueness"),
    ("verify", "check_qr_properness_identity"),
    ("verify", "check_cholesky_theorem"),
    ("verify", "check_ldu_domain_characterization"),
    ("verify", "check_ldu_nonproperness"),
    ("verify", "check_derivative_isomorphisms"),
    ("matrixio", "load_matrix"),
    ("matrixio", "save_matrix"),
]
CLASSES = [("core", "QRPair"), ("core", "CholeskyFactor"), ("core", "LDUTriple")]

KERNELS = ("qr_factor", "cholesky_factor", "ldu_factor")
CORRECTORS = ("qr_newton_correct", "cholesky_newton_correct", "ldu_newton_correct")
VERIFY_CHECKS = [attr for mod, attr in FUNCTIONS if mod == "verify"]
REF_SIZES = (128, 256)
# Textbook operation counts: Householder QR with q formed explicitly,
# Cholesky, and unpivoted LU.
FLOPS = {
    "qr_factor": lambda n: 8.0 / 3.0 * n**3,
    "cholesky_factor": lambda n: n**3 / 3.0,
    "ldu_factor": lambda n: 2.0 / 3.0 * n**3,
}


def _extra_for(mod: str, attr: str):
    """Return a hook (args, result) -> extra datum for the traced function."""
    if attr in KERNELS:
        return lambda args, result: int(len(args[0]))
    if attr in CORRECTORS:
        return lambda args, result: int(result[1])
    if mod == "matrixio":
        return lambda args, result: os.path.getsize(args[0])
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def begin(self, name: str, extra=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, extra])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, extra=None) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if extra is not None:
            span[5] = extra

    def wrap(self, fn, name: str, extra_hook=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                extra = extra_hook(args, result) if done and extra_hook is not None else None
                tracer.end(idx, extra)

        traced.__wrapped__ = fn
        return traced

    def wrap_evaluate(self, fn):
        """Wrap a path's evaluate callable, keeping `t` for the step counts."""
        tracer = self

        def evaluate(t):
            idx = tracer.begin("path.evaluate", float(t))
            try:
                return fn(t)
            finally:
                tracer.end(idx)

        return evaluate

    def install(self) -> None:
        """Patch every traced function and constructor in all factordiff modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items() if k == "factordiff" or k.startswith("factordiff.")]
        for mod, attr in FUNCTIONS:
            home = sys.modules[f"factordiff.{mod}"]
            orig = getattr(home, attr)
            wrapped = self.wrap(orig, f"{mod}.{attr}", _extra_for(mod, attr))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapped)
        for mod, cls_name in CLASSES:
            cls = getattr(sys.modules[f"factordiff.{mod}"], cls_name)
            orig = cls.__dict__["__init__"]
            self._patched.append((cls, "__init__", orig))
            cls.__init__ = self.wrap(orig, f"{mod}.{cls_name}")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded by a child process under span `parent`."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, par, _op, extra in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, op, extra])

    def dump(self, path: str, first: int = 0) -> None:
        """Write spans[first:] as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans[first:]:
                fh.write(json.dumps(span) + "\n")


def per_layer_names() -> list:
    """Every per-layer metric name, in report order."""
    names = []
    for mod, attr in FUNCTIONS:
        if mod == "verify":
            names.append(f"verify.{attr}.s")
        elif mod == "matrixio":
            names += [f"matrixio.{attr}.s", f"matrixio.{attr}.bytes"]
        elif attr == "solve_triangular":
            names += ["frechet.solve_triangular.calls", "frechet.solve_triangular.busy_s"]
        else:
            names += [f"{mod}.{attr}.calls", f"{mod}.{attr}.self_s"]
        if attr in KERNELS:
            for n in REF_SIZES:
                names += [f"factor.{attr}.n{n}.vs_lapack", f"factor.{attr}.n{n}.gflops_computed"]
    for mod, cls_name in CLASSES:
        names += [f"{mod}.{cls_name}.calls", f"{mod}.{cls_name}.self_s"]
    names += [
        "newton.iters",
        "newton.extra_substeps",
        "newton.accept_ratio",
        "verify.self_s",
        "matrixio.self_s",
        "path.evaluate.calls",
        "path.evaluate.self_s",
        "cli.main.self_s",
        "cli.process.self_s",
        "cli.import.scipy_s",
        "cli.import.factordiff_s",
        "bench.self_s",
        "trace.wall_s",
        "trace.overhead",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith((".calls", ".iters", ".extra_substeps")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".gflops_computed"):
        return "GFLOP/s"
    if name.endswith((".vs_lapack", ".accept_ratio", ".overhead")):
        return "ratio"
    return "s"


def self_times(spans: list) -> dict:
    """Self time per span name: duration minus the durations of direct
    children (spans nest, so children never overlap one another)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    for i, (name, start, end, _p, _op, _extra) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def layer_metrics(spans: list, passes: int, grid_steps: dict, refs: dict) -> dict:
    """Per-layer metrics, per traced pass, from the recorded spans.

    `grid_steps` maps op id to its path's step count (for telling grid
    samples from halving midpoints); `refs` maps (kernel, n) to the
    single-thread LAPACK reference time in seconds.
    """
    selfs = self_times(spans)
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    kernel_times: dict = defaultdict(list)
    nbytes: dict = defaultdict(int)
    iters = corrector_calls = accepted = samples = 0
    for name, start, end, _parent, op, extra in spans:
        calls[name] += 1
        total[name] += end - start
        short = name.split(".", 1)[1]
        if short in KERNELS and extra is not None:
            kernel_times[(short, extra)].append(end - start)
        elif short in CORRECTORS:
            corrector_calls += 1
            if extra is not None:
                accepted += 1
                iters += extra
        elif name.startswith("matrixio.") and extra is not None:
            nbytes[name] += extra
        elif name == "path.evaluate":
            steps = grid_steps.get(op)
            if steps and extra > 0.0 and abs(extra * steps - round(extra * steps)) < 1e-9:
                samples += 1

    per = 1.0 / passes
    by_kind = {"calls": calls, "self_s": selfs, "busy_s": selfs, "s": total, "bytes": nbytes}
    m = {}
    for name in per_layer_names():
        mod_attr, _, kind = name.rpartition(".")
        if kind in by_kind:
            m[name] = by_kind[kind].get(mod_attr, 0) * per
    for kernel in KERNELS:
        for n in REF_SIZES:
            times = kernel_times.get((kernel, n))
            ref = refs.get((kernel, n))
            own = median(times) if times else 0.0
            m[f"factor.{kernel}.n{n}.vs_lapack"] = own / ref if own and ref else 0.0
            m[f"factor.{kernel}.n{n}.gflops_computed"] = FLOPS[kernel](n) / own / 1e9 if own else 0.0
    m["newton.iters"] = iters * per
    m["newton.extra_substeps"] = (corrector_calls - samples) * per if samples else 0.0
    m["newton.accept_ratio"] = accepted / corrector_calls if corrector_calls else 0.0
    m["verify.self_s"] = sum(selfs.get(f"verify.{c}", 0.0) for c in VERIFY_CHECKS) * per
    m["matrixio.self_s"] = sum(selfs.get(f"matrixio.{a}", 0.0) for a in ("load_matrix", "save_matrix")) * per
    m["bench.self_s"] = sum(v for k, v in selfs.items() if k.startswith("bench.")) * per
    m["trace.wall_s"] = sum(e - s for n, s, e, p, _o, _x in spans if p < 0) * per
    return m


def self_time_sum(m: dict) -> float:
    """Sum of every self-time metric; equals trace.wall_s when each traced
    span's self time is reported exactly once."""
    return sum(v for k, v in m.items() if k.endswith((".self_s", ".busy_s")))
