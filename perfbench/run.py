#!/usr/bin/env python3
"""Build and run perfbench, the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
simulator libraries and the benchmark into .bench_build/perfbench (a few
minutes); later runs only check that the build is current.  Build output
goes to stderr; the benchmark's report goes to stdout, and its last line
is the result JSON.  A traced run (--trace 1) also writes its spans as
Chrome-trace JSON under .bench_build/perfbench/.

Unit tests of the benchmark's own code:

    python3 perfbench/run.py --self-test
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    """Configure (once) and build @target; exit on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    steps = [("build", ["cmake", "--build", BUILD, "-j", jobs,
                        "--target", target])]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ("configure", configure))
    for attempt in range(2):
        ok = True
        for name, cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(name + " timed out")
            if done.returncode != 0:
                ok = False
                break
        if ok:
            return
        if attempt == 0:
            # A tree configured from another checkout path cannot be
            # reused; start over once.
            shutil.rmtree(BUILD, ignore_errors=True)
            steps = [("configure", configure)] + steps[-1:]
    fail("build failed")


def run(cmd):
    """Run @cmd, relaying its output; return (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.self_test:
        build("perfbench_tests")
        code, out = run([os.path.join(BUILD, "perfbench_tests")])
        sys.stdout.write(out)
        sys.exit(code)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    build("perfbench")
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run(cmd)
    lines = out.rstrip("\n").split("\n")
    # The result line is printed last, so nothing may follow it.
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if code != 0 or not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print(lines[-1], file=sys.stderr)
        fail("benchmark exited with %d and no valid result" % code)
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
