#!/usr/bin/env python3
"""Builds the fsct benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload atpg_tail|sim_wide|serve_mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root.  The binary is built with CMake (Release)
under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; build
output goes to stderr, so the last line of stdout is the binary's result
object.  Exits non-zero, printing no result, when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()[:12]
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0][:12]
    except OSError:
        pass
    return "unknown"


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["atpg_tail", "sim_wide", "serve_mix"])
    ap.add_argument("--seed", type=int, default=0x5eed)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny circuits, for the benchmark's own tests")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", os.path.relpath(build_dir), "--git-sha", git_sha()]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
