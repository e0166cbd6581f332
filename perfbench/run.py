#!/usr/bin/env python3
r"""Benchmark entry point: build, pin, run one workload, print the result.

    python3 perfbench/run.py --workload pele_newton --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
perfbench package (the batchlin library from src/ plus the perfbench
binary) into .bench_build/; later runs only re-check the build. The
script then pins the process environment (OMP_NUM_THREADS reaches the
serve workers' OpenMP
teams only through the environment), runs the binary, prints every metric
by name with its unit, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list (from the
untraced run); with --trace 1 they are its per_layer list (from the traced
run, which also writes .bench_build/trace-<workload>.json). Exit code 0
only when the build, the run and the correctness gate all succeed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("pele_newton", "serve_mixed")
# Library environment overrides that rewrite defaults inside constructors;
# with any of them set the run would not measure the pinned configuration.
FORBIDDEN_ENV = (
    "BATCHLIN_SHARDS",
    "BATCHLIN_SHARD_DEVICES",
    "BATCHLIN_LAUNCH_MODE",
    "BATCHLIN_FAILOVER",
    "BATCHLIN_STORAGE",
    "BATCHLIN_SERVE_STAGE_PROBE",
)
# pele_newton's OpenMP team: every CPU but one, at most four. The spare CPU
# keeps the rest of the system (this wrapper, the OS) from preempting a team
# thread, which would stall the whole fused launch at its closing barrier.
MAX_TEAM = 4
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc())])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             cwd=ROOT)
        if res.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)
    for var in FORBIDDEN_ENV:
        if os.environ.get(var):
            fail(f"refusing to run with {var} set: it rewrites library "
                 "defaults the benchmark pins", 2)

    end_to_end, per_layer = metric_lists()
    build()

    # Thread pinning: serve workers run 1-thread teams, so generator
    # threads + workers stay within nproc; pele_newton's single caller
    # thread drives a team of MAX_TEAM threads at most.
    team = max(1, min(MAX_TEAM, nproc() - 1)) \
        if a.workload == "pele_newton" else 1
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(team)
    env["OMP_DYNAMIC"] = "false"
    cmd = [str(BINARY), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--team", str(team)]
    if a.trace:
        cmd += ["--trace-file",
                str(ROOT / ".bench_build" / f"trace-{a.workload}.json")]
    try:
        res = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench printed nothing (exit code {res.returncode})")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench output is not JSON (exit code {res.returncode})")

    wanted = per_layer if a.trace else end_to_end
    source = out["per_layer"] if a.trace else out["end_to_end"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            fail(f"perfbench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    print("info " + json.dumps(out["info"]))
    if a.workload == "serve_mixed":
        print("note: open-loop latencies are harvested in FIFO order by a "
              "blocking get(), so a request that finishes before an older "
              "one is timed late; serve.queue_us_p50 and "
              "serve.solve_us_p50 come from reply fields and are unbiased")
    shown = dict(out["end_to_end"])
    shown.update(out["per_layer"])
    for name, m in shown.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    correct = bool(out["correct"]) and res.returncode == 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
