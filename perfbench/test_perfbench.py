#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build perfbench through run.py (as the benchmark command does) and run
each workload briefly: every metric must be reported and every check pass,
and a run whose one read buffer is deliberately corrupted must fail, which
shows the output checks are not vacuous.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Every end-to-end metric the benchmark prints, gated or not.
REPORTED = ["ops_per_s", "failed_op_ratio", "op_p50_ns", "op_p99_ns",
            "meta_p50_ns", "meta_p99_ns", "read_p50_ns", "read_p99_ns",
            "write_p50_ns", "write_p99_ns", "fsync_p50_ns", "fsync_p99_ns",
            "nvmm_bytes_per_user_byte", "setup_s", "peak_rss_mb"]


def run(workload, trace, seconds=1, seed=3, extra=(), env=None):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def reported_names(stdout):
    return {line.split()[1] for line in stdout.splitlines()
            if line.startswith("metric ")}


class ShortRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        key = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC[key]})
        if trace:
            dump = os.path.join(ROOT, ".bench_build", "perfbench-trace",
                                f"{workload}-seed3.txt")
            if "CARGO_TARGET_DIR" not in os.environ:
                self.assertTrue(os.path.getsize(dump) > 0)
        else:
            self.assertTrue(set(REPORTED) <= reported_names(proc.stdout))

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1)


class Checks(unittest.TestCase):
    def test_corrupted_read_buffer_fails_the_run(self):
        for workload in ("mail_meta", "data_rw"):
            with self.subTest(workload=workload):
                proc, result = run(workload, 0,
                                   extra=("--corrupt-read", "1000"))
                self.assertEqual(proc.returncode, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertIn("body differs", proc.stderr)

    def test_wal_append_passes_its_checks(self):
        # Not gated (README.md), but runnable with every check passing.
        for trace in (0, 1):
            with self.subTest(trace=trace):
                proc, result = run("wal_append", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertTrue(result["correct"])

    def test_refuses_program_knobs(self):
        env = dict(os.environ, SIMURGH_EXTENT_CACHE="0")
        proc, result = run("data_rw", 0, env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertIsNone(result)

    def test_wal_group_read_back(self):
        # wal_group, the WAL workload with read-back, is kept out of
        # BENCHMARK.json while a pread racing the group commit of its
        # record can return zeros (README.md, "Known defect found by this
        # benchmark").  This test reports that defect instead of hiding
        # it, and passes once it is fixed.
        proc, result = run("wal_group", 0, seconds=3)
        if proc.returncode == 1 and result is not None and \
                not result["correct"]:
            first = next(line for line in proc.stderr.splitlines()
                         if line.startswith("perfbench:"))
            self.skipTest("known defect reproduced: " + first)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])


if __name__ == "__main__":
    unittest.main(verbosity=2)
