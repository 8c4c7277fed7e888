#pragma once

// Shared infrastructure for the experiment benches (one binary per paper
// table/figure — see DESIGN.md's experiment index).
//
// Dataset resolution order:
//   1. $ALAMR_DATASET (explicit CSV path)
//   2. data/amr_dataset.csv found by walking up from the working directory
//   3. the tracked paper-scale dataset perfbench/data/paper_amr_seed42.csv,
//      found the same way (read only)
//   4. generated on the fly with the paper-scale campaign and cached at
//      data/amr_dataset.csv (one-time cost of several minutes)
//
// Knobs (environment):
//   ALAMR_QUICK=1          reduced trajectories/iterations for smoke runs
//   ALAMR_TRAJECTORIES=N   override trajectory count
//   ALAMR_ITERATIONS=N     override AL iteration cap
//   ALAMR_THREADS=N        parallel lanes for the trajectory fan-out
//                          (default hardware_concurrency; results are
//                          bit-identical for any value)
//   ALAMR_TRACE=1          enable the observability layer (or pass
//                          --trace <path> to also write the report)

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alamr/amr/campaign.hpp"
#include "alamr/core/batch.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/data/csv.hpp"

namespace alamr::bench {

/// `--trace <path>` wiring: call at the top of main. Enables tracing
/// process-wide when the flag is present (core/trace.hpp) and returns the
/// output path for finish_trace().
inline std::optional<std::string> trace_flag(int argc, char** argv) {
  return core::trace::parse_trace_flag(argc, argv);
}

/// Writes the aggregated trace report (JSON at `path`, CSV at
/// `path`.csv). No-op when --trace was not given.
inline void finish_trace(const std::optional<std::string>& path) {
  if (!path) return;
  core::trace::write_global_trace(*path);
  std::printf("\n# trace report: %s (and %s.csv)\n", path->c_str(),
              path->c_str());
}

/// `--fault-plan <spec>` wiring (core/faults.hpp grammar, e.g.
/// "seed=7;acquire.oom:p=0.05;data.nan_row:hits=3|9"): returns the parsed
/// plan for the bench to install into AlOptions::failures.plan. Announces
/// the schedule on stdout so runs are self-describing.
inline std::optional<core::faults::FaultPlan> fault_plan_flag(int argc,
                                                             char** argv) {
  const std::optional<core::faults::FaultPlan> plan =
      core::faults::parse_fault_flag(argc, argv);
  if (plan) {
    std::printf("# fault plan:\n%s", core::faults::describe(*plan).c_str());
  }
  return plan;
}

/// `--resilience=on|off` / `--no-resilience` wiring (core/resilience.hpp):
/// applies the flag to `options` in place and announces the effective
/// posture. The default (on) is byte-invisible while nothing fails;
/// `--no-resilience` restores the fail-fast contract for debugging, so a
/// fault plan that the degradation ladder would ride out kills the run
/// loudly instead.
inline void resilience_flag(int argc, char** argv,
                            core::resilience::Options& options) {
  if (core::resilience::parse_resilience_flag(argc, argv, options)) {
    std::printf("# %s\n", core::resilience::describe(options).c_str());
  }
}

/// `--checkpoint <dir>` / `--resume` wiring for the long benches. With a
/// checkpoint dir each batch runs trajectory-isolated and resumable; with
/// --resume an interrupted run picks up from the saved per-trajectory
/// state (byte-identical to never having been interrupted).
struct CheckpointFlags {
  std::filesystem::path dir;  // empty = checkpointing off
  bool resume = false;
};

inline CheckpointFlags checkpoint_flags(int argc, char** argv) {
  CheckpointFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--checkpoint" && i + 1 < argc) {
      flags.dir = argv[i + 1];
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      flags.dir = std::string(arg.substr(std::string_view("--checkpoint=").size()));
    } else if (arg == "--resume") {
      flags.resume = true;
    }
  }
  if (!flags.dir.empty()) {
    std::printf("# checkpointing to %s%s\n", flags.dir.string().c_str(),
                flags.resume ? " (resume)" : "");
  }
  return flags;
}

/// Batch runner honoring the checkpoint flags: plain run_batch when
/// checkpointing is off, fault-isolated + resumable otherwise (each
/// configuration gets its own subdirectory via `tag`; failed trajectories
/// are reported and dropped from the aggregated curves instead of killing
/// the bench).
inline std::vector<core::TrajectoryResult> run_bench_batch(
    const core::AlSimulator& simulator, const core::Strategy& strategy,
    core::BatchOptions batch, const CheckpointFlags& checkpoint,
    const std::string& tag) {
  if (checkpoint.dir.empty()) {
    return core::run_batch(simulator, strategy, batch);
  }
  batch.checkpoint_dir = checkpoint.dir / tag;
  batch.resume = checkpoint.resume;
  const std::vector<core::BatchTrajectory> slots =
      core::run_batch_isolated(simulator, strategy, batch);
  std::vector<core::TrajectoryResult> results;
  results.reserve(slots.size());
  for (std::size_t t = 0; t < slots.size(); ++t) {
    if (slots[t].ok) {
      results.push_back(slots[t].result);
    } else {
      std::printf("# [%s] trajectory %zu FAILED: %s\n", tag.c_str(), t,
                  slots[t].error.c_str());
    }
  }
  return results;
}

inline std::optional<std::size_t> env_size(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

inline bool quick_mode() {
  const char* value = std::getenv("ALAMR_QUICK");
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

/// Loads the cached paper-scale dataset (or the tracked one), generating
/// and caching it if neither is found.
inline data::Dataset load_dataset() {
  if (const char* override_path = std::getenv("ALAMR_DATASET")) {
    std::printf("# dataset: %s\n", override_path);
    return data::read_csv(override_path);
  }
  for (const char* relative :
       {"data/amr_dataset.csv", "perfbench/data/paper_amr_seed42.csv"}) {
    std::filesystem::path dir = std::filesystem::current_path();
    for (int up = 0; up < 5; ++up) {
      const auto candidate = dir / relative;
      if (std::filesystem::exists(candidate)) {
        std::printf("# dataset: %s\n", candidate.string().c_str());
        return data::read_csv(candidate);
      }
      if (!dir.has_parent_path() || dir.parent_path() == dir) break;
      dir = dir.parent_path();
    }
  }

  std::printf("# dataset missing - running the paper-scale AMR campaign "
              "(one-time, several minutes)...\n");
  std::fflush(stdout);
  amr::CampaignOptions options;
  const auto records = amr::Campaign(options).run();
  const data::Dataset dataset =
      amr::Campaign::to_dataset(records, options.dataset_size);
  std::filesystem::create_directories("data");
  data::write_csv(dataset, "data/amr_dataset.csv");
  std::printf("# cached data/amr_dataset.csv\n");
  return dataset;
}

/// Default AL options used across the experiment benches (paper Sec. IV:
/// n_test = 200; n_init varies per experiment).
inline core::AlOptions al_options(std::size_t n_init, std::size_t iterations) {
  core::AlOptions options;
  options.n_test = 200;
  options.n_init = n_init;
  options.max_iterations = env_size("ALAMR_ITERATIONS").value_or(
      quick_mode() ? std::min<std::size_t>(iterations, 30) : iterations);
  options.initial_fit.restarts = 2;
  options.initial_fit.max_opt_iterations = 50;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 10;
  options.rmse_stride = 1;
  return options;
}

inline std::size_t trajectories(std::size_t wanted) {
  return env_size("ALAMR_TRAJECTORIES").value_or(quick_mode() ? 1 : wanted);
}

/// Batch options for the trajectory fan-out: every trajectory gets an
/// independent derived rng stream, so curves are bit-identical regardless
/// of ALAMR_THREADS.
inline core::BatchOptions batch_options(std::size_t n_traj, std::uint64_t seed) {
  core::BatchOptions batch;
  batch.trajectories = n_traj;
  batch.seed = seed;
  batch.threads = core::configured_parallel_threads();
  return batch;
}

inline void print_header(const char* experiment, const char* paper_artifact,
                         const char* expectation) {
  std::printf("==============================================================="
              "=================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_artifact);
  std::printf("shape expectation: %s\n", expectation);
  std::printf("parallel lanes: %zu (override with ALAMR_THREADS)\n",
              core::configured_parallel_threads());
  std::printf("==============================================================="
              "=================\n");
}

}  // namespace alamr::bench
