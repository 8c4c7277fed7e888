#pragma once

// A textbook online AL loop: the recipe OnlineAlDriver and SessionEngine
// implement (paper Sec. IV), written as plainly as possible so it can
// serve as an independent oracle for both.
//
//   1. Initial phase: n_init uniform picks from the remaining grid.
//   2. One thorough fit of both regressors with `initial_fit` effort.
//   3. Each AL iteration: predict() over the remaining candidates, let the
//      strategy select, run the oracle, then a full fit() of both
//      regressors over every learned row with `refit` effort (warm-started
//      from the current hyperparameters, as fit() always is).
//
// No distance base, candidate panel, incremental extend, retrain pool,
// checkpoint, resilience decorator or deadline executor: the production
// paths must reproduce this loop bit for bit, by their own contracts, at
// retrain stride 1. Only oracles that never fail are supported.

#include <cmath>
#include <span>
#include <vector>

#include "alamr/core/metrics.hpp"
#include "alamr/core/online.hpp"
#include "alamr/data/transforms.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/gp/kernels.hpp"

namespace alamr::testing {

struct ReferenceOnlineRun {
  std::vector<core::OnlineRecord> records;
  gp::GaussianProcessRegressor cost{gp::make_paper_kernel()};
  gp::GaussianProcessRegressor memory{gp::make_paper_kernel()};
};

inline ReferenceOnlineRun reference_online_run(
    const linalg::Matrix& grid, const core::ExperimentOracle& oracle,
    const core::OnlineAlOptions& options, const core::Strategy& strategy,
    std::uint64_t seed) {
  const linalg::Matrix scaled =
      data::FeatureScaler::fit(grid).transform(grid);
  const auto gather = [&](const std::vector<std::size_t>& rows) {
    linalg::Matrix out(rows.size(), scaled.cols());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t c = 0; c < scaled.cols(); ++c) {
        out(r, c) = scaled(rows[r], c);
      }
    }
    return out;
  };

  stats::Rng rng(seed);
  ReferenceOnlineRun run;
  std::vector<std::size_t> remaining(grid.rows());
  for (std::size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
  std::vector<std::size_t> learned;
  std::vector<double> log_cost;
  std::vector<double> log_mem;
  const bool track_regret = !std::isnan(options.memory_limit_log10);
  const double limit_mb =
      track_regret ? std::pow(10.0, options.memory_limit_log10) : 0.0;
  double cc = 0.0;
  double cr = 0.0;

  // Runs candidate `local` of the remaining pool and books it.
  const auto run_experiment = [&](std::size_t local, double mu_c,
                                  double mu_m, bool initial) {
    const std::size_t row = remaining[local];
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(local));
    const auto [cost, memory] = oracle(grid.row(row));
    cc += cost;
    if (track_regret) cr += core::individual_regret(cost, memory, limit_mb);
    run.records.push_back(core::OnlineRecord{row, cost, memory, mu_c, mu_m,
                                             cc, cr, initial});
    learned.push_back(row);
    log_cost.push_back(std::log10(cost));
    log_mem.push_back(std::log10(memory));
  };
  const auto fit_both = [&](const gp::GprOptions& effort) {
    run.cost.set_options(effort);
    run.memory.set_options(effort);
    const linalg::Matrix x = gather(learned);
    run.cost.fit(x, log_cost, rng);
    run.memory.fit(x, log_mem, rng);
  };

  while (learned.size() < options.n_init && !remaining.empty()) {
    run_experiment(rng.uniform_index(remaining.size()), 0.0, 0.0, true);
  }
  fit_both(options.initial_fit);
  for (std::size_t it = 0; it < options.iterations && !remaining.empty();
       ++it) {
    const linalg::Matrix x = gather(remaining);
    const gp::Prediction pc = run.cost.predict(x);
    const gp::Prediction pm = run.memory.predict(x);
    const std::optional<std::size_t> pick = strategy.select(
        core::CandidateView{x, pc.mean, pc.stddev, pm.mean, pm.stddev}, rng);
    if (!pick) break;
    run_experiment(*pick, pc.mean[*pick], pm.mean[*pick], false);
    fit_both(options.refit);
  }
  return run;
}

}  // namespace alamr::testing
