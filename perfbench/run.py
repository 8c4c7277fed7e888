#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_refit --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/perfbench
(incremental after the first run); build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The paper dataset
under perfbench/data is checked against its recorded MD5 before every run.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATASET = HERE / "data" / "paper_amr_seed42.csv"
DATASET_MD5 = "5bac94f21430231b59491067cba9cc24"
WORKLOADS = ("paper_refit", "wide_pool", "serve_tenants")
RUN_TIMEOUT_S = 175


def build(target):
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return BUILD / target


def check_dataset():
    digest = hashlib.md5(DATASET.read_bytes()).hexdigest()
    if digest != DATASET_MD5:
        raise RuntimeError(f"{DATASET} has MD5 {digest}, expected {DATASET_MD5}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([str(build("perfbench_selftest"))]).returncode
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    binary = build("perfbench")
    check_dataset()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data", str(HERE / "data"), "--out", str(BUILD / "out")]
    return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            RuntimeError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
