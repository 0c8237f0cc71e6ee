#!/usr/bin/env python3
"""End-to-end benchmark of the COGENT generator and generation service.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (a standalone CMake package compiling the library
sources) into .bench_build/perfbench, runs one workload in-process and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer ones.
The full run record (every metric with its sample count, seed, nproc,
thread counts, build type, errors) is written to
.bench_build/perfbench/records/. --self-test builds and runs the
benchmark's own tests instead.

The open-loop rate, the latency limit (SLO) and the generator-lateness
bound are read from the why of the mixed_open workload in BENCHMARK.json.

Exit codes: 0 success; 1 build failure, failed operation, output mismatch
or malformed output; 2 usage error; 3 invalid run (the open-loop generator
fell behind its schedule by more than the bound in most windows).
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def open_loop_parameters(definition):
    """Rate, SLO and lateness bound recorded in mixed_open's why."""
    why = next(w["why"] for w in definition["workloads"]
               if w["name"] == "mixed_open")
    number = r"(\d+(?:\.\d+)?)"
    found = {
        "rate": re.search(number + r" req/s", why),
        "slo-ms": re.search(r"SLO " + number + r" ms", why),
        "late-bound-ms": re.search(r"late p99 > " + number + r" ms", why),
    }
    missing = [k for k, m in found.items() if m is None]
    if missing:
        raise ValueError(f"mixed_open why lacks {', '.join(missing)}")
    return {k: m.group(1) for k, m in found.items()}


def build(build_dir, extra=()):
    """Configures (once) and builds the package; False on failure."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release", *extra]
        cached = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
        if shutil.which("ninja") and not cached:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def self_test():
    build_dir = os.path.join(BUILD_ROOT, "perfbench-tests")
    if not build(build_dir, ["-DPERFBENCH_TESTS=ON"]):
        log("build failed")
        return 1
    return subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                          stdout=sys.stderr).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    try:
        definition = load_definition()
        params = open_loop_parameters(definition)
    except (OSError, ValueError, KeyError, StopIteration) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in [w["name"] for w in definition["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    if not build(BUILD):
        log("build failed")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = os.path.join(BUILD, "traces", tag + ".json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rate", params["rate"], "--slo-ms", params["slo-ms"],
           "--late-bound-ms", params["late-bound-ms"]]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode == 3:
        log("run invalid; no result reported")
        return 3
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"malformed output (exit {proc.returncode})")
        return 1

    correct = bool(doc["correct"]) and proc.returncode == 0
    if args.trace:
        lint = subprocess.run([os.path.join(BUILD, "json_lint"), trace_path],
                              stdout=sys.stderr)
        if lint.returncode != 0:
            log("traced run wrote a malformed Chrome trace")
            correct = False

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} [{m['unit']}] missing from the run")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    doc["record"]["command"] = cmd[1:]
    os.makedirs(os.path.join(BUILD, "records"), exist_ok=True)
    with open(os.path.join(BUILD, "records", tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    for name, m in sorted(doc["metrics"].items()):
        samples = f" (n={m['samples']})" if "samples" in m else ""
        log(f"{name} = {m['value']:.6g} {m['unit']}{samples}")

    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
