#pragma once

// Output checks of the benchmark. Every offline trajectory and every
// serving tenant is checked against what the benchmark itself can
// recompute from the inputs it handed the program; an op whose outputs
// fail a check counts as failed, which is what makes fail_frac real.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "alamr/core/metrics.hpp"
#include "alamr/core/online.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/data/dataset.hpp"

namespace perfbench {

/// Empty when the check passed, else the first violation found.
using Verdict = std::string;

inline bool close_rel(double a, double b) {
  return std::abs(a - b) <= 1e-12 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

/// One offline trajectory: CC is the running sum of the selected rows'
/// actual costs, CR recomputes from the records and L_mem by Eq. 11, the
/// selected rows are unique members of the Active partition, and every
/// RMSE is finite.
inline Verdict check_trajectory(const alamr::core::TrajectoryResult& t,
                                const alamr::data::Dataset& dataset,
                                std::size_t iteration_cap) {
  if (t.iterations.size() > iteration_cap) return "more iterations than the cap";
  if (!std::isfinite(t.initial_rmse_cost) || !std::isfinite(t.initial_rmse_mem)) {
    return "initial RMSE not finite";
  }
  const std::unordered_set<std::size_t> active(t.partition.active.begin(),
                                               t.partition.active.end());
  std::unordered_set<std::size_t> seen;
  double cc = 0.0;
  double cr = 0.0;
  for (std::size_t i = 0; i < t.iterations.size(); ++i) {
    const alamr::core::IterationRecord& r = t.iterations[i];
    if (r.iteration != i) return "iteration index out of sequence";
    if (r.dataset_row >= dataset.size()) return "row outside the dataset";
    if (active.count(r.dataset_row) == 0) return "row not drawn from Active";
    if (!seen.insert(r.dataset_row).second) return "row selected twice";
    if (r.actual_cost != dataset.cost[r.dataset_row] ||
        r.actual_memory != dataset.memory[r.dataset_row]) {
      return "recorded cost/memory differ from the dataset row";
    }
    cc += r.actual_cost;
    cr += alamr::core::individual_regret(r.actual_cost, r.actual_memory,
                                         t.memory_limit_mb);
    if (!close_rel(r.cumulative_cost, cc)) return "CC is not the running cost sum";
    if (!close_rel(r.cumulative_regret, cr)) return "CR does not match Eq. 11";
    if (!std::isfinite(r.rmse_cost) || !std::isfinite(r.rmse_mem) ||
        !std::isfinite(r.rmse_cost_weighted)) {
      return "RMSE not finite";
    }
  }
  return {};
}

/// The client-side ledger of one serving tenant: everything the benchmark
/// sent, so the engine's answers can be checked against it.
struct TenantLedger {
  std::size_t grid_rows = 0;
  std::size_t n_init = 0;
  std::size_t stride = 1;
  double limit_mb = 0.0;
  std::vector<char> visited;          // per grid row
  std::vector<std::size_t> observed;  // grid rows, in observe order
  double cc = 0.0;
  double cr = 0.0;
  std::size_t al_observes = 0;
  /// Retrain swaps the engine must have made since the session was last
  /// opened or restored: the initial fit, then one per stride of AL
  /// observations.
  std::uint64_t expected_epoch = 0;

  TenantLedger() = default;
  TenantLedger(std::size_t rows, std::size_t init, std::size_t retrain_stride,
               double memory_limit_mb)
      : grid_rows(rows), n_init(init), stride(retrain_stride),
        limit_mb(memory_limit_mb), visited(rows, 0) {}

  /// A suggestion must name an unvisited grid row.
  Verdict on_suggestion(std::size_t row) {
    if (row >= grid_rows) return "suggested row outside the grid";
    if (visited[row] != 0) return "suggested an already visited row";
    visited[row] = 1;
    return {};
  }

  void on_observe(std::size_t row, double cost, double memory) {
    observed.push_back(row);
    cc += cost;
    cr += alamr::core::individual_regret(cost, memory, limit_mb);
    if (observed.size() == n_init) {
      ++expected_epoch;
    } else if (observed.size() > n_init && ++al_observes % stride == 0) {
      ++expected_epoch;
    }
  }

  void on_restore() { expected_epoch = 0; }

  /// The finished session: record count and CC/CR match the observes
  /// sent, rows in the same order, and the epoch advanced at the stride.
  Verdict on_finish(const alamr::core::OnlineResult& result,
                    std::uint64_t epoch) const {
    if (result.records.size() != observed.size()) {
      return "record count differs from the observes sent";
    }
    for (std::size_t i = 0; i < observed.size(); ++i) {
      if (result.records[i].grid_row != observed[i]) return "record row out of order";
    }
    if (!observed.empty()) {
      if (!close_rel(result.records.back().cumulative_cost, cc)) {
        return "CC differs from the observed costs";
      }
      if (!close_rel(result.records.back().cumulative_regret, cr)) {
        return "CR differs from Eq. 11 over the observes";
      }
    }
    if (epoch != expected_epoch) return "epoch did not advance at the retrain stride";
    return {};
  }
};

/// Folds a trajectory's record stream into a digest, so two runs at one
/// seed can be compared exactly.
inline void digest_trajectory(alamr::core::trace::Fingerprint& fp,
                              const alamr::core::TrajectoryResult& t) {
  fp.add(t.strategy_name).add(static_cast<std::uint64_t>(t.iterations.size()));
  for (const alamr::core::IterationRecord& r : t.iterations) {
    fp.add(static_cast<std::uint64_t>(r.dataset_row))
        .add(r.predicted_cost_log10)
        .add(r.predicted_mem_log10)
        .add(r.rmse_cost)
        .add(r.rmse_mem)
        .add(r.cumulative_cost)
        .add(r.cumulative_regret);
  }
}

inline void digest_tenant(alamr::core::trace::Fingerprint& fp,
                          const alamr::core::OnlineResult& result) {
  fp.add(static_cast<std::uint64_t>(result.records.size()));
  for (const alamr::core::OnlineRecord& r : result.records) {
    fp.add(static_cast<std::uint64_t>(r.grid_row))
        .add(r.predicted_cost_log10)
        .add(r.predicted_mem_log10)
        .add(r.cumulative_cost)
        .add(r.cumulative_regret);
  }
}

}  // namespace perfbench
