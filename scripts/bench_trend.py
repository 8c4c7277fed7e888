#!/usr/bin/env python3
"""Bench-trend regression gate (scripts/check.sh).

Runs the optimized (/1) arms of the gate families (GATE_FAMILIES below)
fresh and compares each median against the most recent BENCH_PR*.json
that records it. Fails (exit 1) when a fresh median is more than
--tolerance (default 10%) slower than the recorded one.

The recorded files carry the dispatch level they were measured at in
their context block ("simd_level"); a fresh run on a different tier or a
different host is not comparable, so the gate SKIPS (exit 0, with a
message) when the levels differ, and scripts/check.sh skips the whole
gate under ALAMR_SKIP_BENCH_TREND=1 for unrelated CI hosts. Records
whose context predates the simd_level key (PR3/PR5, measured on the
scalar-only seed recipe) are compared only when the fresh run is pinned
to scalar.

Usage: bench_trend.py <bench-binary> [--tolerance 0.10] [--repetitions 5]
"""

import argparse
import glob
import json
import re
import subprocess
import sys
import tempfile

GATE_FAMILIES = (
    "BM_PredictBatch",
    "BM_TrajectoryBatch",
    "BM_BackendFit",
    "BM_BackendPredictBatch",
    "BM_SweepIncremental",
    "BM_SessionThroughput",
)


def recorded_baselines():
    """{family/size: (optimized_ns, source_file, recorded_level)} from the
    highest-numbered BENCH_PR*.json recording each benchmark."""
    baselines = {}
    paths = sorted(
        glob.glob("BENCH_PR*.json"),
        key=lambda p: int(re.search(r"(\d+)", p).group(1)),
    )
    for path in paths:  # ascending: later PRs overwrite earlier records
        with open(path) as f:
            data = json.load(f)
        level = data.get("context", {}).get("simd_level", "")
        for key, row in data.get("benchmarks", {}).items():
            if key.split("/")[0] in GATE_FAMILIES and "optimized_ns" in row:
                baselines[key] = (row["optimized_ns"], path, level)
    return baselines


def fresh_medians(bench_binary, repetitions):
    """{family/size: optimized-arm median ns} plus the active simd level."""
    out = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
    out.close()
    # Only the optimized arm (/1) is gated, so only it is re-measured —
    # the /0 arms that remain exist to record speedups at PR time.
    pattern = "|".join(GATE_FAMILIES)
    subprocess.run(
        [
            bench_binary,
            f"--benchmark_filter=({pattern})/.*/1$",
            f"--benchmark_repetitions={repetitions}",
            "--benchmark_report_aggregates_only=true",
            "--benchmark_min_time=0.1",
            f"--benchmark_out={out.name}",
            "--benchmark_out_format=json",
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(out.name) as f:
        report = json.load(f)
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    medians = {}
    for b in report["benchmarks"]:
        name = b["name"]
        if not name.endswith("_median"):
            continue
        family, size, arm = name[: -len("_median")].rsplit("/", 2)
        if arm != "1":  # the gate guards the optimized path
            continue
        ns = b["real_time"] * to_ns.get(b.get("time_unit", "ns"), 1.0)
        medians[f"{family}/{size}"] = ns
    return medians, report["context"].get("simd_level", "")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("bench_binary")
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument("--repetitions", type=int, default=5)
    args = parser.parse_args()

    baselines = recorded_baselines()
    if not baselines:
        print("bench-trend: no BENCH_PR*.json baselines found; skipping")
        return 0

    medians, level = fresh_medians(args.bench_binary, args.repetitions)
    failures = []
    for key, (base_ns, source, recorded_level) in sorted(baselines.items()):
        if key not in medians:
            print(f"bench-trend: {key} not in fresh run; skipping")
            continue
        # Pre-dispatch records (no simd_level) were measured on the
        # scalar-only seed recipe.
        comparable = recorded_level or "scalar"
        if comparable != level:
            print(
                f"bench-trend: {key} recorded at level "
                f"'{comparable}' ({source}), fresh run at '{level}'; "
                "not comparable, skipping"
            )
            continue
        fresh_ns = medians[key]
        ratio = fresh_ns / base_ns
        verdict = "OK"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(key)
        print(
            f"bench-trend: {key}: {fresh_ns:.0f} ns vs {base_ns:.0f} ns "
            f"({source}) -> {ratio:.2f}x {verdict}"
        )
    if failures:
        print(
            f"bench-trend: FAILED, >{args.tolerance:.0%} slower than "
            f"recorded: {', '.join(failures)}"
        )
        return 1
    print("bench-trend: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
