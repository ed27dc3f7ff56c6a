#!/usr/bin/env python3
"""Build and run the hyades host wall-clock benchmark.

    python3 perfbench/run.py --workload gyre_smp --seed 1 --seconds 50 --trace 0

Run from the repository root (any working directory works; paths are
resolved from this file).  The first run configures and builds the
hyades libraries plus the `hostbench` program under .bench_build/; later
runs only re-make what changed.  Build output goes to stderr so that the
last line of stdout is the JSON result.  A traced run
(--trace 1) also writes its host spans to
.bench_build/spans/<workload>-seed<seed>.jsonl.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BUILD_TIMEOUT_S = 840
# Pause after a build that compiled something before timing: on a shared
# 4-vCPU VM the first 40 s gyre_smp run straight after a full build read
# about 20% slow in two of three ten-run sets; the runs after it did not.
SETTLE_AFTER_BUILD_S = 30
RUN_TIMEOUT_S = 170
# Validated here as well as in hostbench: the name becomes part of paths.
WORKLOADS = ("gyre_serial", "gyre_smp", "recovery_kill", "resilient_armed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (make's compiler children too) and wait for it before returning None."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no hyades sources next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", str(os.cpu_count() or 1)])
    exe = os.path.join(BUILD, "hostbench")
    before = os.path.getmtime(exe) if os.path.exists(exe) else None
    for cmd in steps:
        res = run_group(cmd, max(1.0, deadline - time.monotonic()),
                        stdout=sys.stderr, stderr=sys.stderr)
        if res is None:
            fail("build timed out: " + " ".join(cmd))
        if res[0] != 0:
            fail("build failed: " + " ".join(cmd))
    if os.path.getmtime(exe) != before:
        time.sleep(SETTLE_AFTER_BUILD_S)
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    work = os.path.join(OUT, "work", "%s-%d" % (args.workload, os.getpid()))
    spans_dir = os.path.join(OUT, "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(HERE, "reference_digests.txt"),
           "--spans", os.path.join(spans_dir, "%s-seed%d.jsonl"
                                   % (args.workload, args.seed)),
           "--work", work]
    try:
        res = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if res is None:
        fail("hostbench did not finish within %d s" % RUN_TIMEOUT_S)
    code, out = res
    if code != 0:
        fail("hostbench exited with code %d" % code)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of hostbench output is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has unexpected keys")
    return 0


if __name__ == "__main__":
    sys.exit(main())
