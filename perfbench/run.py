#!/usr/bin/env python3
"""End-to-end benchmark of mcmpart.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the mcmpart libraries, the mcmpart CLI and the benchmark driver from
the checkout's sources into .bench_build/perfbench (the first run builds;
later runs only check that the build is current), then runs one workload.
The driver's last line of standard output is the result object.  Workloads:
bert-search, hillclimb, corpus-rl, serve (see perfbench/README.md).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("bert-search", "hillclimb", "corpus-rl", "serve")


def build():
    """Configures once, then builds the two targets; output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/mcmpart_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit("perfbench: %s not found; run from a full checkout" % needed)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j4",
                    "--target", "perfbench_driver", "mcmpart_cli"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    # Relative paths keep the daemon's Unix socket path short.
    work_dir = os.path.join(".bench_out", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--mcmpart", os.path.join(BUILD_DIR, "mcmpart")]
    result = subprocess.run(command, cwd=ROOT)
    if result.returncode == 0:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
