#!/usr/bin/env python3
"""Build and run the sdfred benchmark.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --regen-reference

Run from the root of an sdfred checkout.  The first call configures and
builds the sdfred libraries and the harness in Release under .bench_build/
(out of tree, from perfbench/CMakeLists.txt); later calls only let the build
tool confirm that nothing changed.  Build output goes to stderr, so the last
line of stdout is the harness's JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference_periods.tsv")
DATA = os.path.join(ROOT, "data")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no sdfred sources next to perfbench/ (src/CMakeLists.txt)")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
                   check=True, **quiet)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["paper", "large_regular", "dse_edits"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant one wrong answer per output checker")
    parser.add_argument("--regen-reference", action="store_true",
                        help="recompute reference_periods.tsv with the classical-HSDF route")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"perfbench: build failed: {error}")

    if args.self_test:
        command = [BINARY, "--self-test"]
    elif args.regen_reference:
        command = [BINARY, "--regen-reference", REFERENCE, "--data", DATA]
    elif args.workload:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--data", DATA, "--reference", REFERENCE]
    else:
        parser.error("one of --workload, --self-test or --regen-reference is required")
    # One worker thread: the kernels' thread pool would otherwise size
    # itself to the host, and the benchmark measures single-threaded work.
    env = dict(os.environ, SDFRED_THREADS="1")
    sys.exit(subprocess.run(command, env=env).returncode)


if __name__ == "__main__":
    main()
