// Cross-iteration candidate-panel tests (DESIGN.md §13): the panel sweep
// (GaussianProcessRegressor::predict_batch_panel) must stay BIT-identical
// to a from-scratch predict() across every lifecycle event — row appends
// after incremental refits, column drops after acquisitions, and the
// full-rebuild invalidations (theta moves, jittered refactors, fault
// recovery, checkpoint resume). The trajectory-level tests run the whole
// AL loop through the panel under refit, fault and censoring scenarios and
// require byte-equal CSVs at 1 and 4 threads plus sane panel.* trace
// counters.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "alamr/core/faults.hpp"

#include "alamr/core/export.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/core/strategies.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/stats/rng.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;
namespace trace = alamr::core::trace;
namespace faults = alamr::core::faults;

Matrix random_points(std::size_t n, std::size_t dim, Rng& rng) {
  Matrix x(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.uniform(0.0, 1.0);
  }
  return x;
}

std::vector<double> targets(const Matrix& x, Rng& rng) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < x.cols(); ++d) s += std::sin(3.0 * x(i, d));
    y[i] = s + rng.normal(0.0, 0.01);
  }
  return y;
}

// --- GPR-level: panel vs from-scratch sweeps through an AL-like cycle ------

TEST(PanelGpr, BitwiseMatchesPredictBatchAcrossAppendRemoveCycles) {
  trace::set_enabled(true);
  Rng rng(41);
  Matrix x = random_points(20, 2, rng);
  const auto y = targets(x, rng);
  GprOptions options;
  options.optimize = false;  // fixed theta: every append stays incremental
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  gpr.reserve_additional(12);

  const Matrix pool = random_points(15, 2, rng);
  const std::vector<double> pool_diag = gpr.kernel().diagonal(pool);
  std::vector<std::size_t> alive(pool.rows());
  for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;

  Matrix k_star = gpr.kernel().cross(x, pool);
  std::vector<double> diag = pool_diag;
  gpr.panel_reserve(x.rows() + 12, k_star.cols());

  trace::TraceCollector collector;
  std::size_t appended = 0;
  std::size_t dropped = 0;
  {
    const trace::ScopedCollector scope(collector);
    for (std::size_t iter = 0; iter < 8; ++iter) {
      const std::size_t m = k_star.cols();
      std::vector<double> mu_p(m);
      std::vector<double> sd_p(m);
      gpr.predict_batch_panel(k_star, diag, mu_p, sd_p);
      Matrix alive_pool(alive.size(), pool.cols());
      for (std::size_t q = 0; q < alive.size(); ++q) {
        const auto src = pool.row(alive[q]);
        std::copy(src.begin(), src.end(), alive_pool.row(q).begin());
      }
      const Prediction ref = gpr.predict(alive_pool);
      for (std::size_t q = 0; q < m; ++q) {
        ASSERT_EQ(mu_p[q], ref.mean[q]) << "iter " << iter << " mean " << q;
        ASSERT_EQ(sd_p[q], ref.stddev[q]) << "iter " << iter << " stddev " << q;
      }
      EXPECT_EQ(gpr.panel_rows(), gpr.training_size());
      if (iter + 1 == 8) break;  // final append would never be swept

      // Acquire: drop one candidate column, learn one new point, extend
      // the cross matrix by its kernel row (alive-column gather of the
      // full-pool cross — per-pair entries, so the bits are the rebuild's).
      const std::size_t pick = iter % k_star.cols();
      k_star.remove_column(pick);
      diag.erase(diag.begin() + static_cast<std::ptrdiff_t>(pick));
      gpr.panel_remove_column(pick);
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
      ++dropped;

      const Matrix x_new = random_points(1, 2, rng);
      gpr.add_point(x_new.row(0), 0.25 * static_cast<double>(iter));
      const Matrix full_row = gpr.kernel().cross(x_new, pool);  // 1 x 15
      std::vector<double> row(alive.size());
      for (std::size_t q = 0; q < alive.size(); ++q) {
        row[q] = full_row(0, alive[q]);
      }
      k_star.push_row(row);
      ++appended;
    }
  }
  const trace::TraceReport report = collector.report();
  EXPECT_EQ(report.counter("panel.rebuilds"), 1u);
  EXPECT_EQ(report.counter("panel.rows_appended"), appended);
  EXPECT_EQ(report.counter("panel.cols_dropped"), dropped);
}

TEST(PanelGpr, FullRefitInvalidatesAndRebuildsBitwise) {
  trace::set_enabled(true);
  Rng rng(7);
  const Matrix x = random_points(24, 3, rng);
  const auto y = targets(x, rng);
  GprOptions options;
  options.optimize = false;
  GaussianProcessRegressor gpr(make_kernel(Kernel::Profile::kRbfArd, 3), options);
  gpr.fit(x, y, rng);

  const Matrix pool = random_points(11, 3, rng);
  const Matrix k_star = gpr.kernel().cross(x, pool);
  const std::vector<double> diag = gpr.kernel().diagonal(pool);

  trace::TraceCollector collector;
  const trace::ScopedCollector scope(collector);
  std::vector<double> mu(pool.rows());
  std::vector<double> sd(pool.rows());
  gpr.predict_batch_panel(k_star, diag, mu, sd);
  EXPECT_EQ(collector.report().counter("panel.rebuilds"), 1u);

  // A theta move forces the full posterior rebuild — the panel must not
  // survive it, and the post-move sweep must match the from-scratch path.
  std::vector<double> theta = gpr.kernel().log_params();
  for (double& t : theta) t += 0.05;
  gpr.set_kernel_log_params(theta);
  gpr.fit(x, y, rng);
  EXPECT_EQ(gpr.panel_rows(), 0u);

  const Matrix k_star2 = gpr.kernel().cross(x, pool);
  const std::vector<double> diag2 = gpr.kernel().diagonal(pool);
  std::vector<double> mu_p(pool.rows());
  std::vector<double> sd_p(pool.rows());
  gpr.predict_batch_panel(k_star2, diag2, mu_p, sd_p);
  const Prediction ref = gpr.predict(pool);
  for (std::size_t q = 0; q < pool.rows(); ++q) {
    EXPECT_EQ(mu_p[q], ref.mean[q]) << "mean " << q;
    EXPECT_EQ(sd_p[q], ref.stddev[q]) << "stddev " << q;
  }
  EXPECT_EQ(collector.report().counter("panel.rebuilds"), 2u);
}

TEST(PanelGpr, RepeatSweepWithoutGrowthAppendsNoRows) {
  trace::set_enabled(true);
  Rng rng(11);
  const Matrix x = random_points(16, 2, rng);
  const auto y = targets(x, rng);
  GprOptions options;
  options.optimize = false;
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  gpr.fit(x, y, rng);

  const Matrix pool = random_points(9, 2, rng);
  const Matrix k_star = gpr.kernel().cross(x, pool);
  const std::vector<double> diag = gpr.kernel().diagonal(pool);

  trace::TraceCollector collector;
  const trace::ScopedCollector scope(collector);
  std::vector<double> mu1(pool.rows());
  std::vector<double> sd1(pool.rows());
  std::vector<double> mu2(pool.rows());
  std::vector<double> sd2(pool.rows());
  gpr.predict_batch_panel(k_star, diag, mu1, sd1);
  gpr.predict_batch_panel(k_star, diag, mu2, sd2);
  for (std::size_t q = 0; q < pool.rows(); ++q) {
    EXPECT_EQ(mu1[q], mu2[q]);
    EXPECT_EQ(sd1[q], sd2[q]);
  }
  const trace::TraceReport report = collector.report();
  EXPECT_EQ(report.counter("panel.rebuilds"), 1u);
  EXPECT_EQ(report.counter("panel.rows_appended"), 0u);
}

// --- Trajectory-level: the panel path through the full AL loop -------------

constexpr std::size_t kIterations = 20;

core::AlOptions panel_options() {
  core::AlOptions options;
  options.n_test = 60;
  options.n_init = 25;
  options.max_iterations = kIterations;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 40;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 4;
  options.trace = true;
  return options;
}

core::TrajectoryResult run_trajectory(const core::AlOptions& options) {
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(320, 2024);
  const core::AlSimulator simulator(dataset, options);
  const core::Rgma rgma(simulator.memory_limit_log10());
  Rng partition_rng(11);
  const data::Partition partition = data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);
  Rng rng(2024);
  return simulator.run_with_partition(rgma, partition, rng);
}

/// Runs the scenario serially and on the 4-lane pool: the panel's chunked
/// sweeps (and every resume/rebuild decision) must not depend on the lane
/// count. Returns the serial result for the counter checks.
core::TrajectoryResult expect_panel_arms_byte_identical(
    const std::function<void(core::AlOptions&)>& customize) {
  core::AlOptions options = panel_options();
  customize(options);
  core::set_global_parallel_threads(1);
  core::TrajectoryResult serial = run_trajectory(options);
  core::set_global_parallel_threads(4);
  const core::TrajectoryResult pooled = run_trajectory(options);
  core::set_global_parallel_threads(0);  // restore the configured default
  EXPECT_EQ(core::trajectory_to_csv(serial), core::trajectory_to_csv(pooled));
  EXPECT_EQ(serial.trace.counter("panel.rebuilds"),
            pooled.trace.counter("panel.rebuilds"));
  EXPECT_EQ(serial.trace.counter("panel.rows_appended"),
            pooled.trace.counter("panel.rows_appended"));
  return serial;
}

TEST(PanelTrajectory, WarmRefitThetaMovesByteIdentical) {
  // The warm refits (4 L-BFGS iterations) move theta on every pass in
  // this recipe, so every sweep takes the full-rebuild invalidation path;
  // the parity check covers the rebuild arm of the cache.
  const auto result = expect_panel_arms_byte_identical([](core::AlOptions&) {});
  // Two responses (cost + memory) rebuild once per iteration each; the
  // acquisitions tombstone their candidate columns in between (the next
  // rebuild compacts them away).
  EXPECT_GE(result.trace.counter("panel.rebuilds"), 2 * kIterations);
  EXPECT_EQ(result.trace.counter("panel.rows_appended"), 0u);
  EXPECT_GE(result.trace.counter("sim.kstar_tombstone"), kIterations);
}

TEST(PanelTrajectory, ZeroRefitBudgetAppendsRowsByteIdentical) {
  // With a zero optimization budget the warm refits keep theta fixed
  // (zero-budget short-circuit), every refit extends the factor by one
  // row, and the steady-state sweeps must append rows rather than
  // rebuild — the O(M n) path the cache exists for.
  const auto result =
      expect_panel_arms_byte_identical([](core::AlOptions& options) {
        options.refit.max_opt_iterations = 0;
      });
  EXPECT_LE(result.trace.counter("panel.rebuilds"), 4u);
  EXPECT_GE(result.trace.counter("panel.rows_appended"), kIterations);
  EXPECT_GE(result.trace.counter("sim.kstar_tombstone"), kIterations);
}

TEST(PanelTrajectory, CholeskyNonPsdRecoveryByteIdentical) {
  // Probabilistic factorization vetoes drive the jittered-refactor and
  // recovery rungs; each one must invalidate the panel, never corrupt it.
  const auto result =
      expect_panel_arms_byte_identical([](core::AlOptions& options) {
        options.failures.plan =
            faults::FaultPlan::parse("seed=17;cholesky.non_psd:p=0.05,max=4");
      });
  EXPECT_GE(result.trace.counter("panel.rebuilds"), 2u);
}

TEST(PanelTrajectory, AcquireOomDropCensorByteIdentical) {
  const auto result =
      expect_panel_arms_byte_identical([](core::AlOptions& options) {
        options.failures.plan =
            faults::FaultPlan::parse("seed=5;acquire.oom:hits=1|3|5");
        options.failures.policy = core::CensorPolicy::kDropCensored;
      });
  EXPECT_EQ(result.censored_count, 3u);
  // Censored candidates leave the pool without a refit: their columns are
  // tombstoned out of the live panel.
  EXPECT_GE(result.trace.counter("sim.kstar_tombstone"), kIterations);
}

TEST(PanelTrajectory, AcquireOomRetryCensorByteIdentical) {
  expect_panel_arms_byte_identical([](core::AlOptions& options) {
    options.failures.plan =
        faults::FaultPlan::parse("seed=5;acquire.oom:hits=2|4");
    options.failures.policy = core::CensorPolicy::kRetryNextCandidate;
  });
}

TEST(PanelTrajectory, CheckpointResumeByteIdentical) {
  // Mid-trajectory kill + resume: the resume rebuilds the posterior
  // (invalidating the panel), and the rebuilt panel must reproduce the
  // uninterrupted run byte for byte.
  const core::AlOptions options = panel_options();
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(320, 2024);
  const core::AlSimulator simulator(dataset, options);
  const core::Rgma rgma(simulator.memory_limit_log10());
  Rng partition_rng(11);
  const data::Partition partition = data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);

  Rng rng_full(2024);
  const auto full = simulator.run_with_partition(rgma, partition, rng_full);

  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "panel_resume.json";
  std::filesystem::remove(path);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 3;
  cfg.halt_after_iterations = 9;
  Rng rng_first(2024);
  const auto first = simulator.run_resumable(rgma, partition, rng_first, cfg);
  EXPECT_EQ(first.stop_reason, core::StopReason::kCheckpointHalt);
  ASSERT_TRUE(std::filesystem::exists(path));

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  Rng rng_second(2024);
  const auto resumed = simulator.run_resumable(rgma, partition, rng_second, cfg);
  EXPECT_EQ(core::trajectory_to_csv(resumed), core::trajectory_to_csv(full));
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
