#include "alamr/core/batch.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#include "alamr/core/parallel.hpp"
#include "alamr/data/partition.hpp"

namespace alamr::core {

namespace {

/// The fan-out both batch entry points share: one rng stream per
/// trajectory, split from `options.seed` up front (deterministic whatever
/// the thread interleaving, and slot t is the same trajectory in either
/// entry point); at most one lane per trajectory; one immutable
/// dataset-wide context (the pairwise-distance base) that every
/// trajectory reads, so per-trajectory distance-cache (re)builds become
/// gathers. Each pool chunk owns a Strategy clone (implementations are
/// stateless, but cloning keeps the contract simple if one ever is not)
/// and writes only its own slots, `run(strategy, stream, shared, t)`; the
/// nested parallelism inside each trajectory (predict, multistart)
/// degrades to serial while a chunk runs, so lanes are never
/// oversubscribed.
template <typename Slot, typename Run>
std::vector<Slot> fan_out(const AlSimulator& simulator,
                          const Strategy& strategy,
                          const BatchOptions& options, const char* counter,
                          Run&& run) {
  stats::Rng master(options.seed);
  std::vector<stats::Rng> streams;
  streams.reserve(options.trajectories);
  for (std::size_t t = 0; t < options.trajectories; ++t) {
    streams.push_back(master.split());
  }
  const std::size_t n_threads =
      std::min(options.threads == 0 ? configured_parallel_threads()
                                    : options.threads,
               options.trajectories);
  const SharedBatchContext shared = simulator.make_shared_context();

  std::vector<Slot> slots(options.trajectories);
  trace::count(counter);
  trace::count("batch.trajectories", options.trajectories);
  const trace::ScopedTimer timer("batch");
  ThreadPool pool(n_threads);
  pool.parallel_for_chunks(
      options.trajectories, [&](std::size_t begin, std::size_t end) {
        const std::unique_ptr<Strategy> local = strategy.clone();
        for (std::size_t t = begin; t < end; ++t) {
          slots[t] = run(*local, streams[t], shared, t);
        }
      });
  return slots;
}

}  // namespace

std::vector<TrajectoryResult> run_batch(const AlSimulator& simulator,
                                        const Strategy& strategy,
                                        const BatchOptions& options) {
  if (options.trajectories == 0) {
    throw std::invalid_argument("run_batch: trajectories == 0");
  }
  return fan_out<TrajectoryResult>(
      simulator, strategy, options, "batch.runs",
      [&](const Strategy& local, stats::Rng& stream,
          const SharedBatchContext& shared, std::size_t) {
        return simulator.run(local, stream, &shared);
      });
}

std::vector<BatchTrajectory> run_batch_isolated(const AlSimulator& simulator,
                                                const Strategy& strategy,
                                                const BatchOptions& options) {
  if (options.trajectories == 0) {
    throw std::invalid_argument("run_batch_isolated: trajectories == 0");
  }
  const bool checkpointing = !options.checkpoint_dir.empty();
  if (checkpointing) {
    std::filesystem::create_directories(options.checkpoint_dir);
  }
  return fan_out<BatchTrajectory>(
      simulator, strategy, options, "batch.isolated_runs",
      [&](const Strategy& local, stats::Rng& stream,
          const SharedBatchContext& shared, std::size_t t) {
        BatchTrajectory slot;
        try {
          // Partition drawn from the stream exactly as run() would —
          // byte-identical whether or not the trajectory later resumes,
          // because the stream state is redrawn from the same split and
          // the checkpoint replaces the rng state afterwards.
          const data::Partition partition = data::make_partition(
              simulator.dataset().size(), simulator.options().n_test,
              simulator.options().n_init, stream);
          if (checkpointing) {
            CheckpointConfig cfg;
            cfg.path = options.checkpoint_dir /
                       ("trajectory_" + std::to_string(t) + ".json");
            cfg.stride = options.checkpoint_stride;
            cfg.resume = options.resume;
            slot.result = simulator.run_resumable(local, partition, stream,
                                                  cfg, &shared);
          } else {
            slot.result =
                simulator.run_with_partition(local, partition, stream, &shared);
          }
          slot.ok = true;
        } catch (const std::exception& e) {
          slot.error = e.what();
          trace::count("batch.failed_trajectories");
        }
        return slot;
      });
}

std::vector<double> extract_series(const TrajectoryResult& trajectory,
                                   Metric metric) {
  std::vector<double> out;
  out.reserve(trajectory.iterations.size());
  for (const IterationRecord& record : trajectory.iterations) {
    switch (metric) {
      case Metric::kRmseCost: out.push_back(record.rmse_cost); break;
      case Metric::kRmseMem: out.push_back(record.rmse_mem); break;
      case Metric::kRmseCostWeighted:
        out.push_back(record.rmse_cost_weighted);
        break;
      case Metric::kCumulativeCost: out.push_back(record.cumulative_cost); break;
      case Metric::kCumulativeRegret:
        out.push_back(record.cumulative_regret);
        break;
      case Metric::kActualCost: out.push_back(record.actual_cost); break;
    }
  }
  return out;
}

std::vector<CurvePoint> aggregate_curve(
    std::span<const TrajectoryResult> trajectories, Metric metric) {
  std::size_t longest = 0;
  for (const TrajectoryResult& t : trajectories) {
    longest = std::max(longest, t.iterations.size());
  }

  std::vector<std::vector<double>> series;
  series.reserve(trajectories.size());
  for (const TrajectoryResult& t : trajectories) {
    series.push_back(extract_series(t, metric));
  }

  std::vector<CurvePoint> curve;
  curve.reserve(longest);
  for (std::size_t i = 0; i < longest; ++i) {
    CurvePoint point;
    point.iteration = i;
    point.lo = std::numeric_limits<double>::infinity();
    point.hi = -std::numeric_limits<double>::infinity();
    double total = 0.0;
    for (const auto& s : series) {
      if (i >= s.size()) continue;
      total += s[i];
      point.lo = std::min(point.lo, s[i]);
      point.hi = std::max(point.hi, s[i]);
      ++point.count;
    }
    if (point.count == 0) break;
    point.mean = total / static_cast<double>(point.count);
    curve.push_back(point);
  }
  return curve;
}

}  // namespace alamr::core
