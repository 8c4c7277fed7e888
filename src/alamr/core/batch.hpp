#pragma once

// Batch execution and aggregation of AL trajectories (paper Sec. IV-B:
// "By processing a large number of trajectories, we can reason about the
// statistical properties of the algorithms independent of the initial
// conditions"). Mirrors the paper's multiprocessing batch mode with the
// shared ThreadPool (alamr/core/parallel.hpp); every trajectory gets an
// independent derived RNG stream so results do not depend on scheduling
// or thread count.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "alamr/core/simulator.hpp"

namespace alamr::core {

struct BatchOptions {
  std::size_t trajectories = 5;
  /// 0 = the ALAMR_THREADS env var, falling back to
  /// std::thread::hardware_concurrency() (see alamr/core/parallel.hpp).
  std::size_t threads = 0;
  std::uint64_t seed = 1234;

  /// Per-trajectory checkpointing for run_batch_isolated: trajectory t
  /// saves to <checkpoint_dir>/trajectory_<t>.json every
  /// `checkpoint_stride` passes. Empty = no checkpointing. The directory
  /// is created if missing.
  std::filesystem::path checkpoint_dir;
  std::size_t checkpoint_stride = 10;
  /// Resume trajectories whose checkpoint file exists (completed
  /// trajectories deleted theirs, so a re-run after a crash redoes only
  /// the unfinished ones — and redoes them byte-identically).
  bool resume = false;
};

/// Runs `options.trajectories` independent trajectories of `strategy`
/// (fresh random partition each). Results are ordered by trajectory index
/// regardless of thread scheduling.
std::vector<TrajectoryResult> run_batch(const AlSimulator& simulator,
                                        const Strategy& strategy,
                                        const BatchOptions& options);

/// One slot of a fault-isolated batch.
struct BatchTrajectory {
  bool ok = false;
  std::string error;        // what() of the poisoning exception when !ok
  TrajectoryResult result;  // valid only when ok
};

/// run_batch with trajectory-level fault isolation: a trajectory that
/// throws (model blow-up, checkpoint mismatch, injected fault escalation)
/// yields a failed slot carrying the error text instead of killing the
/// whole batch. Honors BatchOptions::checkpoint_dir/stride/resume via
/// AlSimulator::run_resumable. Slot order is by trajectory index
/// regardless of thread scheduling.
std::vector<BatchTrajectory> run_batch_isolated(const AlSimulator& simulator,
                                                const Strategy& strategy,
                                                const BatchOptions& options);

/// Per-iteration scalar extracted from a trajectory.
enum class Metric {
  kRmseCost,
  kRmseMem,
  kRmseCostWeighted,
  kCumulativeCost,
  kCumulativeRegret,
  kActualCost,
};

std::vector<double> extract_series(const TrajectoryResult& trajectory,
                                   Metric metric);

/// Cross-trajectory aggregate at one iteration.
struct CurvePoint {
  std::size_t iteration = 0;
  double mean = 0.0;
  double lo = 0.0;       // min across trajectories
  double hi = 0.0;       // max across trajectories
  std::size_t count = 0; // trajectories still running at this iteration
};

/// Mean/min/max of `metric` at each iteration across trajectories
/// (trajectories that stopped early simply drop out of later points).
std::vector<CurvePoint> aggregate_curve(
    std::span<const TrajectoryResult> trajectories, Metric metric);

}  // namespace alamr::core
