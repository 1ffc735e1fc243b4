#!/usr/bin/env python3
"""Builds perfbench from source, runs one workload, prints the result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mail_meta --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
checkout root.  The benchmark binary's report is passed through; the last
line printed is the JSON object BENCHMARK.json defines: with --trace 0 its
metrics are the `end_to_end` ones, with --trace 1 the `per_layer` ones.
--trace 1 also writes the run's spans and store events to
<build dir>/perfbench-trace/<workload>-seed<seed>.txt.

Exit status: 0 when the run passed every check, 1 when a check, the build
or the run failed, 2 on a usage error or a SIMURGH_* variable in the
environment (the benchmark measures the program's defaults).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures (once) and builds the perfbench target; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout ends with the result line.
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            log(f"timed out: {' '.join(cmd)}")
            return False
        if rc != 0:
            log(f"failed ({rc}): {' '.join(cmd)}")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # The benchmark's own negative test: corrupt the Nth verified read.
    ap.add_argument("--corrupt-read", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("SIMURGH_"))
    if knobs:
        log(f"refusing to run with {', '.join(knobs)} set: the benchmark "
            "measures the program's defaults")
        return 2

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    gated = args.workload in {w["name"] for w in spec["workloads"]}

    out = build_dir()
    if not build(out):
        return 1

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out, "perfbench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.txt")]
    if args.corrupt_read:
        cmd += ["--corrupt-read", str(args.corrupt_read)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench printed no result (exit status {proc.returncode})")
        return 1

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"perfbench did not report {m['name']} in {m['unit']}")
            return 1
        # A gated end-to-end metric must be measured, never a placeholder
        # for an operation class the workload does not have.  Workloads
        # outside BENCHMARK.json just leave such a metric out.
        if not args.trace and (got["samples"] == 0 or got["value"] == 0):
            if gated:
                log(f"{m['name']} has no samples on {args.workload}")
                return 1
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
