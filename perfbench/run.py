#!/usr/bin/env python3
"""End-to-end benchmark of the fairhms_serve daemon.

Builds the daemon and the benchmark program from this checkout (CMake,
Release, into .bench_build), then runs one workload:

    python3 perfbench/run.py --workload md_cold --seed 1 --seconds 25 --trace 0

Workloads: md_cold, md_warm, lite_churn (see perfbench/README.md).
--trace 1 adds the replayed per-layer trace; --small shrinks every dataset
so all three workloads finish in seconds. Build output goes to stderr; the
last stdout line is the result JSON. Exit 0 when every output check passed.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("md_cold", "md_warm", "lite_churn")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_run"
RUN_LIMIT_S = 175.0


def build(root):
    """Configures and builds the daemon and the benchmark (a no-op when
    nothing changed)."""
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "fairhms_serve",
              "perfbench", "-j", "4"]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small datasets: every workload in seconds")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not build(root):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    started = time.monotonic()
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    cmd = [os.path.join(root, BUILD_DIR, "perfbench"),
           "--serve=" + os.path.join(root, BUILD_DIR, "fairhms", "tools",
                                     "fairhms_serve"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace]
    if args.small:
        cmd.append("--small")
    # Its own process group, so a timeout also stops the daemon it spawned.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
