"""Self-test of the benchmark: `python3 perfbench/selftest.py` from the
checkout root (about a minute).

Runs every workload of workloads.py at a tiny size, untraced and traced,
and checks that the result line names exactly the metrics of BENCHMARK.json
with their units, that a traced run's self times add up to its traced wall
time, and that another seed changes the inputs but not the metric names. Last, it checks
that the benchmark fails without printing a result in a directory holding
only BENCHMARK.json and the benchmark's own files. Not part of the pytest
suite.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def expect(ok, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc, what: str):
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = next(json.loads(x) for x in lines if x.startswith('{"workload"'))
    expect(set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{what}: outputs failed their checks: {summary['summary']['failures']}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: nothing attempted")
    expect(isinstance(result["failed"], int), f"{what}: failed is not a whole number")
    for name, entry in result["metrics"].items():
        expect(set(entry) == {"value", "unit"}, f"{what}: {name} has keys {sorted(entry)}")
        expect(isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), f"{what}: {name} value")
    return result, summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    # every workload, track-small included, though BENCHMARK.json omits it
    for workload in WORKLOADS:
        fingerprints = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            what = f"{workload} seed={seed} trace={trace}"
            result, summary = result_of(run(workload, seed, trace), what)
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expect(units == wanted[trace], f"{what}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(units) ^ set(wanted[trace]))}")
            if trace == 1:
                wall = result["metrics"]["trace.wall_s"]["value"]
                expect(abs(summary["summary"]["self_time_sum_s"] - wall) <= 1e-6 * wall,
                       f"{what}: self times do not add up to the traced wall time")
            else:
                fingerprints[seed] = summary["inputs_sha256"]
            print(f"ok {what}", flush=True)
        expect(fingerprints[1] != fingerprints[2], f"{workload}: seeds 1 and 2 gave the same inputs")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
        expect(proc.returncode != 0, "benchmark succeeded without the program's sources")
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(not last.startswith('{"correct"'), "benchmark printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if os.path.isdir(os.path.dirname(bare)) and not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))
    print("ok bare directory fails without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
