// Tests for the online AL driver (real oracle calls per selection).

#include "alamr/core/online.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

namespace {

using namespace alamr::core;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

/// Synthetic 2-D oracle: cost grows exponentially along x0, memory along
/// x1. Deterministic, positive.
std::pair<double, double> synthetic_oracle(std::span<const double> f) {
  const double cost = 0.01 * std::pow(10.0, 2.0 * f[0]);
  const double memory = 0.5 * std::pow(10.0, 1.5 * f[1]);
  return {cost, memory};
}

Matrix unit_grid(std::size_t per_axis) {
  Matrix grid(per_axis * per_axis, 2);
  for (std::size_t i = 0; i < per_axis; ++i) {
    for (std::size_t j = 0; j < per_axis; ++j) {
      grid(i * per_axis + j, 0) =
          static_cast<double>(i) / static_cast<double>(per_axis - 1);
      grid(i * per_axis + j, 1) =
          static_cast<double>(j) / static_cast<double>(per_axis - 1);
    }
  }
  return grid;
}

OnlineAlOptions fast_options(std::size_t n_init = 3, std::size_t iters = 10) {
  OnlineAlOptions options;
  options.n_init = n_init;
  options.iterations = iters;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 20;
  options.refit.max_opt_iterations = 4;
  return options;
}

TEST(OnlineAl, RunsAndAccountsCorrectly) {
  std::size_t calls = 0;
  const ExperimentOracle oracle = [&](std::span<const double> f) {
    ++calls;
    return synthetic_oracle(f);
  };
  OnlineAlDriver driver(unit_grid(8), oracle, fast_options(3, 10));
  Rng rng(1);
  const OnlineResult result = driver.run(RandGoodness(), rng);

  EXPECT_EQ(result.records.size(), 13u);
  EXPECT_EQ(calls, 13u);
  EXPECT_EQ(driver.remaining_candidates(), 64u - 13u);

  std::set<std::size_t> rows;
  double cc = 0.0;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const OnlineRecord& rec = result.records[i];
    EXPECT_TRUE(rows.insert(rec.grid_row).second) << "row run twice";
    EXPECT_EQ(rec.initial_phase, i < 3);
    cc += rec.cost;
    EXPECT_NEAR(rec.cumulative_cost, cc, 1e-12);
  }
  ASSERT_TRUE(result.cost_model);
  EXPECT_TRUE(result.cost_model->fitted());
}

TEST(OnlineAl, CostAwareStrategySpendsLessThanUniform) {
  const auto total_cost = [&](const Strategy& strategy) {
    OnlineAlDriver driver(unit_grid(10), synthetic_oracle, fast_options(3, 20));
    Rng rng(5);
    const OnlineResult result = driver.run(strategy, rng);
    double al_cost = 0.0;
    for (const auto& rec : result.records) {
      if (!rec.initial_phase) al_cost += rec.cost;
    }
    return al_cost;
  };
  // Averaged effect is strong; single trajectories suffice at this spread
  // (the oracle's cost spans 100x along x0).
  EXPECT_LT(total_cost(MinPred()), total_cost(MaxSigma()));
}

TEST(OnlineAl, RgmaRespectsMemoryLimitAndTracksRegret) {
  OnlineAlOptions options = fast_options(5, 25);
  options.memory_limit_log10 = std::log10(2.0);  // half the grid violates
  OnlineAlDriver driver(unit_grid(10), synthetic_oracle, options);
  const Rgma rgma(options.memory_limit_log10);
  Rng rng(9);
  const OnlineResult result = driver.run(rgma, rng);
  // After the model has seen a few samples it should stop choosing
  // violating configurations; regret must be bounded by the initial phase
  // plus early mistakes, not grow linearly.
  const double final_regret = result.records.back().cumulative_regret;
  double al_regret = 0.0;
  std::size_t al_violations = 0;
  for (const auto& rec : result.records) {
    if (!rec.initial_phase && rec.memory >= 2.0) {
      al_regret += rec.cost;
      ++al_violations;
    }
  }
  EXPECT_LE(al_violations, 5u);  // learning, not random (half would be ~12)
  EXPECT_LE(al_regret, final_regret);
}

TEST(OnlineAl, ValidatesArguments) {
  EXPECT_THROW(OnlineAlDriver(Matrix(0, 2), synthetic_oracle, fast_options()),
               std::invalid_argument);
  EXPECT_THROW(OnlineAlDriver(unit_grid(3), nullptr, fast_options()),
               std::invalid_argument);
  OnlineAlOptions bad = fast_options(0, 5);
  EXPECT_THROW(OnlineAlDriver(unit_grid(3), synthetic_oracle, bad),
               std::invalid_argument);
  OnlineAlOptions too_many = fast_options(5, 100);
  EXPECT_THROW(OnlineAlDriver(unit_grid(3), synthetic_oracle, too_many),
               std::invalid_argument);
  // A NaN or infinite feature would otherwise reach the scaler and kernel.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Matrix grid = unit_grid(4);
    grid(7, 0) = bad;
    EXPECT_THROW(OnlineAlDriver(grid, synthetic_oracle, fast_options(2, 3)),
                 std::invalid_argument);
  }
}

TEST(OnlineAl, RunTwiceThrows) {
  OnlineAlDriver driver(unit_grid(5), synthetic_oracle, fast_options(2, 3));
  Rng rng(2);
  driver.run(RandUniform(), rng);
  EXPECT_THROW(driver.run(RandUniform(), rng), OnlineContractError);
}

TEST(OnlineAl, InfiniteOracleMeasurementThrows) {
  const double inf = std::numeric_limits<double>::infinity();
  const ExperimentOracle infinite_cost = [inf](std::span<const double>) {
    return std::pair{inf, 1.0};
  };
  const ExperimentOracle infinite_memory = [inf](std::span<const double>) {
    return std::pair{1.0, inf};
  };
  for (const ExperimentOracle& oracle : {infinite_cost, infinite_memory}) {
    OnlineAlDriver driver(unit_grid(5), oracle, fast_options(1, 2));
    Rng rng(3);
    EXPECT_THROW(driver.run(RandUniform(), rng), OnlineContractError);
  }
}

TEST(OnlineAl, BadOracleMeasurementThrows) {
  const ExperimentOracle broken = [](std::span<const double>) {
    return std::pair{0.0, 1.0};
  };
  OnlineAlDriver driver(unit_grid(5), broken, fast_options(1, 2));
  Rng rng(3);
  EXPECT_THROW(driver.run(RandUniform(), rng), std::runtime_error);
}

}  // namespace
