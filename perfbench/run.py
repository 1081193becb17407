"""factordiff benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; factordiff is imported from `src/`. The
workloads are described in `workloads.py` and the metrics in
`perfbench/README.md`. The last line of standard output is one JSON object
`{"correct", "attempted", "failed", "metrics"}`: with `--trace 0` it holds
the end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
run. Lines before it give the environment, a readable summary and any op
failures. A full record, and for a traced run the spans of its last traced
pass, is written under `.perfbench_out/`; scratch files go to
`.perfbench_work/` and are removed.

Timed runs keep the caller's environment: BLAS thread counts are recorded,
never set, because pinning them would hide the numpy/scipy thread-pool clash.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics where they apply, but not part of the
# result: each holds on some workloads only, or reads 0 on most of them.
SUMMARY_UNITS = {
    "fail_rate": "ratio",
    "ops_per_s_wall": "1/s",
    "track_steps_per_s": "1/s",
    "cli.verify_s": "s",
    "cli.track_s": "s",
    "cli.factor_s": "s",
}
MAX_LISTED_FAILURES = 5


def import_factordiff():
    sys.path.insert(0, SRC)
    try:
        import factordiff
    except ImportError as exc:
        raise SystemExit(f"cannot import factordiff from {SRC}: {exc}") from None

    if not os.path.abspath(factordiff.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"factordiff imported from {factordiff.__file__}, not from {SRC}")
    return factordiff


def _openblas_libs():
    """Yield (path, library, symbol prefix, symbol suffix) for each OpenBLAS
    library mapped into this process (numpy and scipy each bundle one)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    yield path, lib, prefix, suffix
                    break
            else:
                continue
            break


def openblas_pools() -> list:
    """Each OpenBLAS library and its thread count, read through the
    library's getter (nothing is set)."""
    pools = []
    for path, lib, prefix, suffix in _openblas_libs():
        getter = getattr(lib, f"{prefix}_get_num_threads{suffix}")
        getter.argtypes, getter.restype = [], ctypes.c_int
        entry = {"library": path, "threads": getter(), "config": None}
        config = getattr(lib, f"{prefix}_get_config{suffix}", None)
        if config is not None:
            config.argtypes, config.restype = [], ctypes.c_char_p
            entry["config"] = config().decode(errors="replace")
        pools.append(entry)
    return pools


def quiet_own_blas() -> None:
    """Give the benchmark process's own OpenBLAS pools one thread.

    Used only when the program runs in child processes: after the output
    checks, idle OpenBLAS workers of this process spin and would take a core
    from the child being timed. The children keep the default environment.
    """
    for _path, lib, prefix, suffix in _openblas_libs():
        setter = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def source_revision() -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            rev = proc.stdout.strip() or None
        except OSError:
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "factordiff")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_revision": rev, "src_sha256": h.hexdigest()}


def environment() -> dict:
    import numpy
    import scipy

    return {
        **source_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_pools(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def parse_importtime(stderr: str) -> dict:
    """scipy: summed self time of every scipy module; factordiff: the
    cumulative time of the `factordiff` package import."""
    scipy_us = factordiff_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if not own.strip().isdigit():
            continue
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(own)
        elif name == "factordiff":
            factordiff_us = int(cumulative)
    return {"cli.import.scipy_s": scipy_us / 1e6, "cli.import.factordiff_s": factordiff_us / 1e6}


def measure_setup(samples: int, importtime: bool) -> tuple:
    """Wall time of fresh processes that import factordiff and warm up each map."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
    argv.append(os.path.join(HERE, "setup_child.py"))
    walls, imports = [], []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        if importtime:
            imports.append(parse_importtime(proc.stderr))
    breakdown = {k: median(d[k] for d in imports) for k in imports[0]} if imports else {}
    return walls, breakdown


class Tally:
    """Outcome of a sequence of ops: latencies, failures, tracked samples."""

    def __init__(self):
        self.latencies: list = []
        self.kinds: list = []
        self.failed = 0
        self.incorrect = 0
        self.steps = 0
        self.failures: dict = {}

    def record(self, op, dt: float, error) -> None:
        self.latencies.append(dt)
        self.kinds.append(op.kind)
        if error is not None:
            self.failed += 1
            self.note(f"{op.kind}: {type(error).__name__} {error}")

    def note(self, failure: str) -> None:
        """Count a failure; at most MAX_LISTED_FAILURES distinct ones are kept."""
        if failure in self.failures or len(self.failures) < MAX_LISTED_FAILURES:
            self.failures[failure] = self.failures.get(failure, 0) + 1


def run_op(op, tally: Tally, workloads, tracer=None) -> None:
    """Time one call into the program, then check its output (untimed)."""
    t0 = time.perf_counter()
    try:
        out = op.call()
        error = None
    except workloads.CheckFailed as exc:
        out, error = None, exc
        tally.incorrect += 1
    except Exception as exc:  # any refusal or failure of the program counts as a failed op
        out, error = None, exc
    dt = time.perf_counter() - t0
    if error is None:
        idx = tracer.begin("bench.check") if tracer is not None else None
        try:
            op.check(out)
            tally.steps += op.steps
        except workloads.CheckFailed as exc:
            error = exc
            tally.incorrect += 1
        finally:
            if idx is not None:
                tracer.end(idx)
    tally.record(op, dt, error)


def tail(values: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, sample count); the maximum when there are fewer
    than 11 samples."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, seconds: float, workloads) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        run_op(workload.op(i), tally, workloads)
        i += 1
        if time.perf_counter() >= deadline:
            break
    return tally


def end_to_end(tally: Tally, setup_walls: list, workload) -> tuple:
    lat = tally.latencies
    n = len(lat)
    by_kind: dict = {}
    for kind, dt in zip(tally.kinds, lat):
        by_kind.setdefault(kind, []).append(dt)
    # Throughput of the run's op mix at each kind's median cost: a stall of
    # one op moves op_tail_ms, not the rate.
    mix_time = sum(len(v) * median(v) for v in by_kind.values())
    tail_v, tail_p, _ = tail(lat)
    metrics = {
        "setup_s": median(setup_walls),
        "ops_per_s": n / mix_time,
        "op_p50_ms": 1e3 * median(lat),
        "op_tail_ms": 1e3 * tail_v,
        "success_rate": (n - tally.failed) / n,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    extra = {
        "op_tail_percentile": tail_p,
        "ops": n,
        "fail_rate": tally.failed / n,
        "ops_per_s_wall": n / sum(lat),
        "setup_samples_s": setup_walls,
        "op_median_ms_by_kind": {k: 1e3 * median(v) for k, v in sorted(by_kind.items())},
    }
    calls = getattr(workload, "call_walls", [])
    if calls:
        by_call: dict = {}
        for name, dt in calls:
            by_call.setdefault(name, []).append(dt)
        extra["call_median_ms"] = {k: 1e3 * median(v) for k, v in sorted(by_call.items())}
    walls = getattr(workload, "process_walls", [])
    for sub in ("verify", "track", "factor"):
        sub_walls = [dt for name, dt in walls if name == sub]
        if sub_walls:
            extra[f"cli.{sub}_s"] = median(sub_walls)
    if tally.steps:
        track_time = sum(dt for name, dt in walls if name == "track") or sum(
            dt for kind, dt in zip(tally.kinds, lat) if kind.startswith("track")
        )
        extra["track_steps_per_s"] = tally.steps / track_time
    return metrics, extra


def lapack_reference(ops: list, workdir: str) -> dict:
    """Single-thread LAPACK time per (kernel, n), on the ops' own inputs."""
    import numpy as np

    arrays = {}
    for op in ops:
        for kernel, a in op.refs:
            arrays[f"{kernel}__{a.shape[0]}__{len(arrays)}"] = a
    if not arrays:
        return {}
    path = os.path.join(workdir, "lapack_inputs.npz")
    np.savez(path, **arrays)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "lapack_ref.py"), path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"LAPACK reference failed: {proc.stderr.strip()[-400:]}")
    out = {}
    for key, seconds in json.loads(proc.stdout.strip().splitlines()[-1]).items():
        kernel, n = key.split("__")
        out[(kernel, int(n))] = seconds
    return out


def traced_run(workload, seconds: float, workloads, tracing) -> tuple:
    """Alternate an untraced and a traced pass over the same ops until the
    time is spent; per-layer metrics are per pass."""
    k = workload.trace_ops
    tracer = tracing.Tracer()
    tally = Tally()
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i in range(k):
            run_op(workload.op(i), tally, workloads)
        t1 = time.perf_counter()
        tracer.install()
        try:
            last_pass = root = tracer.begin("bench.pass")
            for i in range(k):
                tracer.op = i
                idx = tracer.begin("bench.op")
                op = workload.op(i, tracer)
                run_op(op, tally, workloads, tracer)
                tracer.end(idx)
            tracer.end(root)
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        untraced += t1 - t0
        traced += t2 - t1
        passes += 1
        if t2 - start + (t2 - t0) > seconds:
            break
    return tally, tracer, passes, traced / untraced, last_pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the self-test")
    args = ap.parse_args(argv)

    fd = import_factordiff()
    sys.path.insert(0, HERE)
    import setup_child
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    env = environment()
    print(json.dumps({"env": env}))

    setup_walls, import_breakdown = measure_setup(1 if args.tiny else SETUP_SAMPLES, args.trace == 1)
    in_process = workloads.WORKLOADS[args.workload].in_process
    if in_process:
        setup_child.warm_up(fd)
    else:
        quiet_own_blas()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](fd, args.seed, args.tiny, workdir)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                  "inputs_sha256": workload.fingerprint()}
        if args.trace == 0:
            tally = timed_run(workload, args.seconds, workloads)
            metrics, summary = end_to_end(tally, setup_walls, workload)
            units = END_TO_END
        else:
            tally, tracer, passes, overhead, last_pass = traced_run(workload, args.seconds, workloads, tracing)
            refs = lapack_reference([workload.op(i) for i in range(workload.trace_ops)], workdir)
            steps = {i: workload.op(i).steps for i in range(workload.trace_ops)}
            metrics = tracing.layer_metrics(tracer.spans, passes, steps, refs)
            metrics.update(import_breakdown)
            metrics["trace.overhead"] = overhead
            self_sum = tracing.self_time_sum(metrics)
            summary = {"passes": passes, "ops_per_pass": workload.trace_ops, "self_time_sum_s": self_sum,
                       "lapack_ref_s": {f"{k}.n{n}": v for (k, n), v in sorted(refs.items())}}
            if abs(self_sum - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"]:
                tally.incorrect += 1
                tally.note(f"self times sum to {self_sum} s, traced wall is {metrics['trace.wall_s']} s")
            units = {name: tracing.unit_of(name) for name in tracing.per_layer_names()}
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.dump(spans_path, first=last_pass)
            summary["spans"] = os.path.relpath(spans_path, ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    summary["incorrect"] = tally.incorrect
    summary["failures"] = tally.failures
    record.update(summary=summary, metrics=metrics)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure, count in tally.failures.items():
        print(f"failed x{count}: {failure}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs_sha256": record["inputs_sha256"],
                      "summary": summary}))
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for name, unit in SUMMARY_UNITS.items():
        if name in summary:
            print(f"{name} {summary[name]:.6g} {unit}")
    result = {
        "correct": tally.incorrect == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
