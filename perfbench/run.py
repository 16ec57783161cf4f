#!/usr/bin/env python3
"""Build and run the fleet benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the fleet_bench program
from source into .bench_build/perfbench (CMake, optimized), runs one
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json for --trace 0, the per-layer ones for --trace 1. The full
report (every metric, sample counts, host fingerprint) and, for traced
runs, the span JSON are written under .bench_build/perfbench/out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ tree next to perfbench/: nothing to build")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "fleet_bench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    # One compute thread per in-process device, as on separate edge
    # boards: with the shared pool the master's and the worker's forwards
    # would contend for the same cores inside one process.
    env["FLUID_NUM_THREADS"] = "1"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or result is None:
        fail("fleet_bench exited with code %d" % proc.returncode)

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing from the run" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, declared %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
