#!/usr/bin/env bash
# Pre-PR gate: builds and runs the full test suite in four configurations
# and fails on the first broken one.
#
#   1. plain       — the default release build with -Werror
#                    (ALAMR_WERROR=ON; build-check/plain)
#   2. asan        — ALAMR_SANITIZE=address,undefined with the throwing
#                    ALAMR_ASSERT checks forced on (ALAMR_DEBUG_ASSERTS)
#   3. ubsan       — ALAMR_SANITIZE=undefined alone: UBSan at full
#                    optimization without ASan's instrumentation, which
#                    surfaces UB that the combined build can mask
#   4. native      — ALAMR_NATIVE=ON (-march=native, FP contraction off);
#                    proves host-tuned codegen stays bit-identical
#   5. threaded    — plain binaries, ctest with ALAMR_THREADS=4 so every
#                    suite (not just tests_core_threads4) exercises the
#                    4-lane pool
#   6. faults      — plain binaries, fault/robustness/checkpoint suites
#                    under a live ALAMR_FAULT_PLAN (5% OOM, 5% timeout,
#                    3% NaN rows): the recovery ladder and censoring
#                    accounting must hold with the injector armed
#                    process-wide, not just under test-installed scopes
#   7. simd levels — the full suite on the plain build pinned to each
#                    runtime dispatch tier via ALAMR_SIMD_LEVEL: scalar
#                    (byte-golden bits), avx2, and native-best (no
#                    override — whatever CPUID selected, the production
#                    configuration). Byte goldens pin scalar internally,
#                    so they pass at every level; tolerance goldens and
#                    the all-levels-agree kernel tests carry the
#                    vector-tier correctness load
#   8. tsan        — ALAMR_SANITIZE=thread on the shared-structure
#                    concurrency surface: batches where every worker
#                    reads one SharedBatchContext, plus the trace and
#                    pool suites, under ALAMR_THREADS=4
#   9. arena gate  — zero-allocation gate on the plain build: the
#                    counting-allocator suite plus the ArenaGate trace
#                    assertions (steady_growth == 0, scope_leaks == 0)
#                    must hold, i.e. the steady-state AL pass is heap-free
#                    and the arena footprint stops growing after pass 0
#  10. bench trend — scripts/bench_trend.py runs the optimized (/1) arms
#                    of the six gate families (BM_PredictBatch,
#                    BM_TrajectoryBatch, BM_BackendFit,
#                    BM_BackendPredictBatch, BM_SweepIncremental,
#                    BM_SessionThroughput) fresh and fails on a >10%
#                    slowdown against the medians recorded in
#                    BENCH_PR*.json. Skip on hosts whose numbers are not
#                    comparable to the records with
#                    ALAMR_SKIP_BENCH_TREND=1
#  11. backends    — the PosteriorBackend parity suite (tests_backends)
#                    as an explicit leg on the plain build, serial and
#                    ALAMR_THREADS=4: exact backend byte-identity through
#                    the interface, approximate-backend tolerance goldens,
#                    parity gates, faults, and checkpoint round-trips
#  12. resilience  — the serving-core resilience suites (executor,
#                    breaker/ladder, durable checkpoints, online
#                    halt/resume) under armed io.* fault plans — torn
#                    writes on every third save, short reads on first
#                    read — serial and ALAMR_THREADS=4: generation
#                    fallback, quarantine, and read-retry must keep
#                    every byte-identity assertion green with real I/O
#                    faults firing process-wide
#  13. crash-resume — scripts/crash_resume.sh on the plain build:
#                    SIGKILLs a checkpointing examples/online_al run,
#                    tears its newest generation, and requires the
#                    resumed process to quarantine the torn frame and
#                    reproduce the uninterrupted experiment log byte for
#                    byte
#  14. debug       — the golden, BackendParity and checkpoint-codec
#                    (CheckpointBytes, CodecFuzz, DurableCheckpoint)
#                    suites built with CMAKE_BUILD_TYPE=Debug (-O0): the
#                    byte goldens and the checkpoint byte pins must not
#                    depend on the optimizer level
#  15. perfbench   — `perfbench/run.py --self-test`, then every workload
#                    at seed 1 (its own 25 s, ALAMR_SIMD_LEVEL=scalar)
#                    whose `# digest:` line must equal the recorded value:
#                    the offline workloads run AlSimulator::run_trajectory,
#                    so a moved digest is a trajectory that moved bits
#
# Finally an explicit golden gate re-runs the golden-trajectory byte
# comparisons (the one posterior path, at 1 and 4 lanes internally, plus
# the tolerance comparisons at every dispatch level) on the plain and
# native builds, serial and with ALAMR_THREADS=4.  They already ran as part
# of the full suites above; the separate step makes a golden break
# impossible to miss in the output.
#
# Usage: scripts/check.sh [jobs]     (default: nproc)
#
# Build trees live under build-check/ to leave the main build/ alone.

set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_config() {
  local name="$1"
  local build_dir="build-check/$name"
  shift
  echo "=== [$name] configure + build ==="
  cmake -B "$build_dir" -S . "$@" > /dev/null
  cmake --build "$build_dir" -j "$jobs" > /dev/null
  echo "=== [$name] ctest ==="
  ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" > /tmp/check_"$name".log 2>&1 || {
    tail -50 /tmp/check_"$name".log
    echo "FAILED: $name (full log: /tmp/check_$name.log)"
    exit 1
  }
  tail -2 /tmp/check_"$name".log
}

run_golden() {
  local name="$1"
  local build_dir="$2"
  local threads="$3"
  echo "=== [golden/$name] trajectory byte comparisons (ALAMR_THREADS=$threads) ==="
  ALAMR_THREADS="$threads" ctest --test-dir "$build_dir" --output-on-failure \
    -R 'GoldenTrajectory' > /tmp/check_golden_"$name".log 2>&1 || {
    tail -50 /tmp/check_golden_"$name".log
    echo "FAILED: golden/$name (full log: /tmp/check_golden_$name.log)"
    exit 1
  }
  tail -2 /tmp/check_golden_"$name".log
}

# run_level <name> <ALAMR_SIMD_LEVEL value or "">: the full suite on the
# plain build pinned to one runtime dispatch tier. An empty value runs
# whatever CPUID selects (native-best, the production configuration);
# requests above the host's ceiling clamp down, so every leg is safe on
# any machine.
run_level() {
  local name="$1"
  local level="$2"
  echo "=== [simd/$name] full suite at ALAMR_SIMD_LEVEL=${level:-<native-best>} ==="
  ALAMR_SIMD_LEVEL="$level" ctest --test-dir build-check/plain --output-on-failure \
    -j "$jobs" > /tmp/check_simd_"$name".log 2>&1 || {
    tail -50 /tmp/check_simd_"$name".log
    echo "FAILED: simd/$name (full log: /tmp/check_simd_$name.log)"
    exit 1
  }
  tail -2 /tmp/check_simd_"$name".log
}

run_config plain -DALAMR_WERROR=ON

# Crash/resume leg (DESIGN.md §14): a real process killed mid-run, a torn
# frame on disk, and a resumed process that must finish byte-identical.
echo "=== [crash-resume] SIGKILL + torn-frame resume of examples/online_al ==="
scripts/crash_resume.sh build-check/plain > /tmp/check_crash_resume.log 2>&1 || {
  tail -50 /tmp/check_crash_resume.log
  echo "FAILED: crash-resume (full log: /tmp/check_crash_resume.log)"
  exit 1
}
tail -2 /tmp/check_crash_resume.log
run_config asan -DALAMR_SANITIZE=address,undefined -DALAMR_DEBUG_ASSERTS=ON
run_config ubsan -DALAMR_SANITIZE=undefined
run_config native -DALAMR_NATIVE=ON

run_level scalar scalar
run_level avx2 avx2
run_level best ""

# Thread-sanitizer leg, scoped to the concurrency surface: the
# shared-batch-context suites (every pool worker reads one immutable
# DistanceBase), the trace collectors, and the thread pool itself. TSan
# slows execution ~10x, so the full suite stays on the plain legs.
echo "=== [tsan] shared-context + concurrency suites under ThreadSanitizer ==="
cmake -B build-check/tsan -S . -DALAMR_SANITIZE=thread > /dev/null
cmake --build build-check/tsan -j "$jobs" > /dev/null
ALAMR_THREADS=4 ctest --test-dir build-check/tsan --output-on-failure \
  -R 'RunBatch|BatchIsolation|Trace|ThreadPool|ParallelFor' \
  > /tmp/check_tsan.log 2>&1 || {
  tail -50 /tmp/check_tsan.log
  echo "FAILED: tsan (full log: /tmp/check_tsan.log)"
  exit 1
}
tail -2 /tmp/check_tsan.log

echo "=== [threads4] ctest with ALAMR_THREADS=4 on the plain build ==="
ALAMR_THREADS=4 ctest --test-dir build-check/plain --output-on-failure -j "$jobs" \
  > /tmp/check_threads4.log 2>&1 || {
  tail -50 /tmp/check_threads4.log
  echo "FAILED: threads4 (full log: /tmp/check_threads4.log)"
  exit 1
}
tail -2 /tmp/check_threads4.log

# Fault-plan leg: the injector answers every un-scoped consultation in the
# process, so the robustness suites prove the recovery ladder holds when
# failures really do happen at these rates.  Explicit per-test plans
# override the environment plan, so the determinism and byte-equality
# assertions inside these suites remain valid.
echo "=== [faults] robustness suites under ALAMR_FAULT_PLAN ==="
ALAMR_FAULT_PLAN='seed=19;acquire.oom:p=0.05;acquire.timeout:p=0.05;data.nan_row:p=0.03' \
  ctest --test-dir build-check/plain --output-on-failure -j "$jobs" \
  -R 'Fault|Robustness|Checkpoint|BatchIsolation' \
  > /tmp/check_faults.log 2>&1 || {
  tail -50 /tmp/check_faults.log
  echo "FAILED: faults (full log: /tmp/check_faults.log)"
  exit 1
}
tail -2 /tmp/check_faults.log

# Zero-allocation gate: the counting-allocator suite (tests_alloc) proves
# the steady-state predict cycle never touches the heap, and the ArenaGate
# suite asserts via trace counters that the arena's capacity stays flat
# after the first pass (arena.steady_growth == 0) with no leaked scopes.
echo "=== [arena] zero-allocation + arena-footprint gate ==="
ctest --test-dir build-check/plain --output-on-failure \
  -R 'AllocFree|ArenaGate' > /tmp/check_arena.log 2>&1 || {
  tail -50 /tmp/check_arena.log
  echo "FAILED: arena (full log: /tmp/check_arena.log)"
  exit 1
}
tail -2 /tmp/check_arena.log

run_golden plain build-check/plain 1
run_golden plain4 build-check/plain 4
run_golden native build-check/native 1
run_golden native4 build-check/native 4

# Golden-only Debug leg: the byte goldens, the backend parity suite and
# the checkpoint codec pins and fuzzers without optimization (-O0), so
# "the same bits whatever the build flags" covers the optimizer level
# too. Only the three test binaries are built.
echo "=== [debug] golden + BackendParity + checkpoint codec suites at -O0 ==="
cmake -B build-check/debug -S . -DCMAKE_BUILD_TYPE=Debug > /dev/null
cmake --build build-check/debug -j "$jobs" \
  --target tests_golden tests_backends tests_resilience > /dev/null
ctest --test-dir build-check/debug --output-on-failure \
  -R 'GoldenTrajectory|BackendParity|CheckpointBytes|CodecFuzz|DurableCheckpoint' \
  > /tmp/check_debug.log 2>&1 || {
  tail -50 /tmp/check_debug.log
  echo "FAILED: debug (full log: /tmp/check_debug.log)"
  exit 1
}
tail -2 /tmp/check_debug.log

# Backend gate: the PosteriorBackend parity harness (exact backend
# byte-pinned through the interface, approximate backends on tolerance
# goldens, RMSE/CC/CR parity, properties, faults, checkpoints) serial
# and under the 4-lane pool. Already ran inside the full suites; the
# explicit leg makes a backend break impossible to miss.
run_backends() {
  local name="$1"
  local threads="$2"
  echo "=== [backends/$name] PosteriorBackend parity suite (ALAMR_THREADS=$threads) ==="
  ALAMR_THREADS="$threads" ctest --test-dir build-check/plain --output-on-failure \
    -R 'Backend(Parity|Properties|Faults|Checkpoint)' \
    > /tmp/check_backends_"$name".log 2>&1 || {
    tail -50 /tmp/check_backends_"$name".log
    echo "FAILED: backends/$name (full log: /tmp/check_backends_$name.log)"
    exit 1
  }
  tail -2 /tmp/check_backends_"$name".log
}
run_backends serial 1
run_backends threads4 4

# Serving gate (DESIGN.md §15): the multi-tenant session-engine suites —
# engine-vs-driver byte identity at stride 1, batched-vs-serial arm
# parity, evict/restore round-trips, armed-fault tenant isolation, and
# mixed-shard concurrent traffic — serial and under the 4-lane pool,
# plus a ThreadSanitizer arm over the same filter: drain() fans requests
# across pool lanes while retrain workers publish tickets and joiners
# steal queued jobs, exactly the handoffs TSan is built to vet.
run_serve() {
  local name="$1"
  local threads="$2"
  echo "=== [serve/$name] session-engine suites (ALAMR_THREADS=$threads) ==="
  ALAMR_THREADS="$threads" ctest --test-dir build-check/plain --output-on-failure \
    -R 'Serve' > /tmp/check_serve_"$name".log 2>&1 || {
    tail -50 /tmp/check_serve_"$name".log
    echo "FAILED: serve/$name (full log: /tmp/check_serve_$name.log)"
    exit 1
  }
  tail -2 /tmp/check_serve_"$name".log
}
run_serve serial 1
run_serve threads4 4

echo "=== [serve/tsan] session-engine suites under ThreadSanitizer ==="
ALAMR_THREADS=4 ctest --test-dir build-check/tsan --output-on-failure \
  -R 'Serve' > /tmp/check_serve_tsan.log 2>&1 || {
  tail -50 /tmp/check_serve_tsan.log
  echo "FAILED: serve/tsan (full log: /tmp/check_serve_tsan.log)"
  exit 1
}
tail -2 /tmp/check_serve_tsan.log

# Resilience gate (DESIGN.md §14): the serving-core resilience suites
# with io.* faults armed process-wide. hits-based plans make every fire
# deterministic: io.torn_write:hits=2 tears every test's third durable
# save (the halt-save in the resume suites — recovery must fall back to
# the previous intact generation and still reproduce the uninterrupted
# run byte-for-byte); io.partial_read:hits=0 truncates every test's
# first read (the single re-read retry must absorb it). Tests that
# install scoped injectors or per-run plans override the env plan, so
# their own schedules stay exact. The legacy bare-JSON test is excluded
# from the short-read arm: format-1 files carry no length or checksum,
# so a truncated read is indistinguishable from a complete one — the
# limitation that motivated the v2 frame, whose suites cover it.
run_resilience() {
  local name="$1"
  local threads="$2"
  local plan="$3"
  local exclude="${4:-}"
  echo "=== [resilience/$name] io fault matrix (ALAMR_THREADS=$threads, plan '$plan') ==="
  ALAMR_THREADS="$threads" ALAMR_FAULT_PLAN="$plan" \
    ctest --test-dir build-check/plain --output-on-failure \
    -R 'VirtualClock|Backoff|DeadlineExecutor|Breaker|EventChannel|ResilienceFlag|DurableCheckpoint|CheckpointVersionGate|OnlineResilience|OnlineLadder|OnlineCheckpointResume' \
    ${exclude:+-E "$exclude"} \
    > /tmp/check_resilience_"$name".log 2>&1 || {
    tail -50 /tmp/check_resilience_"$name".log
    echo "FAILED: resilience/$name (full log: /tmp/check_resilience_$name.log)"
    exit 1
  }
  tail -2 /tmp/check_resilience_"$name".log
}
run_resilience torn 1 'io.torn_write:hits=2'
run_resilience torn4 4 'io.torn_write:hits=2'
run_resilience read 1 'io.partial_read:hits=0' 'LegacyBareJson'
run_resilience read4 4 'io.partial_read:hits=0' 'LegacyBareJson'

# Perfbench gate: the benchmark's own self-test, then each workload's
# seed-1 digest (an FNV-1a over the record streams of its quality rounds,
# independent of timing) at the scalar tier against the value recorded
# for it. Built and run from this checkout's perfbench/ (.bench_build/).
echo "=== [perfbench] self-test + seed-1 digests (ALAMR_SIMD_LEVEL=scalar) ==="
python3 perfbench/run.py --self-test > /tmp/check_perfbench.log 2>&1 || {
  tail -50 /tmp/check_perfbench.log
  echo "FAILED: perfbench self-test (full log: /tmp/check_perfbench.log)"
  exit 1
}
for pin in paper_refit=29afd3de05c35674 wide_pool=ebf32fe833578c03 \
           serve_tenants=ce2a136abe809a65; do
  workload="${pin%%=*}"
  want="${pin#*=}"
  got="$(ALAMR_SIMD_LEVEL=scalar python3 perfbench/run.py --workload "$workload" \
    --seed 1 --seconds 25 --trace 0 2>>/tmp/check_perfbench.log |
    sed -n 's/^# digest: //p')" || true
  if [[ "$got" != "$want" ]]; then
    tail -50 /tmp/check_perfbench.log
    echo "FAILED: perfbench $workload digest '$got', expected '$want' (full log: /tmp/check_perfbench.log)"
    exit 1
  fi
  echo "$workload digest $got"
done

# Bench-trend gate: fresh optimized-arm medians for the gate benchmarks
# must stay within 10% of the BENCH_PR*.json records. The records carry
# their dispatch level; bench_trend.py skips pairs measured at a
# different tier, and unrelated CI hosts skip the whole gate via env.
if [[ "${ALAMR_SKIP_BENCH_TREND:-0}" == "1" ]]; then
  echo "=== [bench-trend] skipped (ALAMR_SKIP_BENCH_TREND=1) ==="
else
  echo "=== [bench-trend] fresh medians vs BENCH_PR*.json ==="
  python3 scripts/bench_trend.py build-check/plain/bench/bench_micro_perf
fi

echo "All checks passed."
