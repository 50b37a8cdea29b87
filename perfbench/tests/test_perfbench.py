#!/usr/bin/env python3
"""Tests of the benchmark itself (not of fsct).

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root.  The first test to run builds the binary
(about half a minute on 4 cores); the smoke runs then take seconds each.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(*args, cwd=ROOT):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=900)


def binary(*args):
    return subprocess.run([os.path.join(BUILD, "perfbench"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        # A smoke run builds the binary the other tests call directly.
        out = run_bench("--workload", "sim_wide", "--seed", "1",
                        "--seconds", "1", "--trace", "0", "--smoke")
        if out.returncode != 0:
            raise RuntimeError("perfbench build or smoke run failed:\n" +
                               out.stderr[-4000:])

    def test_smoke_prints_every_metric(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = run_bench("--workload", workload, "--seed", "3",
                                    "--seconds", "1", "--trace", trace,
                                    "--smoke")
                    self.assertEqual(out.returncode, 0, out.stderr[-2000:])
                    last = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(last),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in last["metrics"].items()}
                    self.assertEqual(got, want)

    def test_same_seed_same_netlist(self):
        a = binary("--netlist", "s1423", "--seed", "5")
        b = binary("--netlist", "s1423", "--seed", "5")
        c = binary("--netlist", "s1423", "--seed", "6")
        for out in (a, b, c):
            self.assertEqual(out.returncode, 0, out.stderr)
        self.assertEqual(a.stdout, b.stdout)
        self.assertNotEqual(a.stdout, c.stdout)

    def test_selftest(self):
        # Netlist determinism, default seed == suite circuit, renamed
        # netlists screening identically, and the tracing decorator leaving
        # outcomes and counters bitwise equal at jobs 1 and nproc.
        out = binary("--selftest")
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertNotIn("FAIL", out.stdout)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim_wide",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("\"metrics\"", out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
