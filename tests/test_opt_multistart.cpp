// Tests for the multi-restart driver (sklearn's n_restarts_optimizer
// analogue) on multi-modal objectives.

#include "alamr/opt/multistart.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "split_phases.hpp"

namespace {

using namespace alamr::opt;
using alamr::stats::Rng;
using alamr::testing::split_phases;

// Double-well in 1D: minima at x = -1 (value 0) and x = +2 (value -1).
Objective double_well() {
  return [](std::span<const double> x, std::span<double> grad) {
    const double t = x[0];
    // f = (t+1)^2 (t-2)^2 / 4 - step that lowers the right well.
    const double a = (t + 1.0);
    const double b = (t - 2.0);
    const double f = 0.25 * a * a * b * b - 1.0 / (1.0 + std::exp(-4.0 * (t - 0.5)));
    if (!grad.empty()) {
      const double df_poly = 0.5 * a * b * (a + b);
      const double s = 1.0 / (1.0 + std::exp(-4.0 * (t - 0.5)));
      grad[0] = df_poly - 4.0 * s * (1.0 - s);
    }
    return f;
  };
}

TEST(Multistart, EscapesLocalMinimum) {
  // A gradient start in the left basin converges to the worse minimum;
  // restarts inside the bounds should discover the better right basin.
  Bounds bounds;
  bounds.lower = {-3.0};
  bounds.upper = {4.0};

  MultistartOptions no_restart;
  no_restart.restarts = 0;
  Rng rng1(11);
  const OptimizeResult local = multistart_minimize(
      split_phases(double_well()), std::vector<double>{-1.2}, bounds,
      no_restart, rng1);
  EXPECT_NEAR(local.x[0], -1.0, 0.2);  // trapped in the left well

  MultistartOptions with_restarts;
  with_restarts.restarts = 8;
  Rng rng2(11);
  const OptimizeResult global = multistart_minimize(
      split_phases(double_well()), std::vector<double>{-1.2}, bounds,
      with_restarts, rng2);
  EXPECT_NEAR(global.x[0], 2.0, 0.2);  // found the deeper right well
  EXPECT_LT(global.value, local.value);
}

TEST(Multistart, ZeroRestartsNeedsNoBounds) {
  const Objective f = [](std::span<const double> x, std::span<double> grad) {
    if (!grad.empty()) grad[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  MultistartOptions options;
  options.restarts = 0;
  Rng rng(1);
  const OptimizeResult result =
      multistart_minimize(split_phases(f), std::vector<double>{3.0}, {},
                          options, rng);
  EXPECT_NEAR(result.x[0], 0.0, 1e-5);
}

TEST(Multistart, RestartsWithoutBoundsThrow) {
  const Objective f = [](std::span<const double> x, std::span<double> grad) {
    if (!grad.empty()) grad[0] = 2.0 * x[0];
    return x[0] * x[0];
  };
  MultistartOptions options;
  options.restarts = 2;
  Rng rng(1);
  EXPECT_THROW(
      multistart_minimize(split_phases(f), std::vector<double>{1.0}, {},
                          options, rng),
      std::invalid_argument);
}

TEST(Multistart, NeverWorseThanWarmStartAlone) {
  Bounds bounds;
  bounds.lower = {-3.0};
  bounds.upper = {4.0};
  MultistartOptions base;
  base.restarts = 0;
  MultistartOptions restarted;
  restarted.restarts = 5;

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng r1(seed);
    Rng r2(seed);
    const double v0 = multistart_minimize(split_phases(double_well()),
                                          std::vector<double>{-2.0}, bounds,
                                          base, r1)
                          .value;
    const double v1 = multistart_minimize(split_phases(double_well()),
                                          std::vector<double>{-2.0}, bounds,
                                          restarted, r2)
                          .value;
    EXPECT_LE(v1, v0 + 1e-12) << "seed " << seed;
  }
}

}  // namespace
