// Tests for the L-BFGS minimizer that drives hyperparameter fitting.

#include "alamr/opt/lbfgs.hpp"
#include "alamr/opt/multistart.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "alamr/core/parallel.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/linalg/simd.hpp"
#include "alamr/stats/rng.hpp"
#include "split_phases.hpp"

namespace {

using namespace alamr::opt;
using alamr::stats::Rng;
using alamr::testing::split_phases;

// Convex quadratic f(x) = sum c_i (x_i - t_i)^2.
Objective quadratic(std::vector<double> scale, std::vector<double> target) {
  return [scale = std::move(scale), target = std::move(target)](
             std::span<const double> x, std::span<double> grad) {
    double value = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - target[i];
      value += scale[i] * d * d;
      if (!grad.empty()) grad[i] = 2.0 * scale[i] * d;
    }
    return value;
  };
}

Objective rosenbrock() {
  return [](std::span<const double> x, std::span<double> grad) {
    const double a = 1.0;
    const double b = 100.0;
    const double f = (a - x[0]) * (a - x[0]) +
                     b * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]);
    if (!grad.empty()) {
      grad[0] = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
      grad[1] = 2.0 * b * (x[1] - x[0] * x[0]);
    }
    return f;
  };
}

TEST(Lbfgs, MinimizesQuadratic) {
  const auto f = quadratic({1.0, 3.0, 0.5}, {2.0, -1.0, 4.0});
  const std::vector<double> x0{0.0, 0.0, 0.0};
  const OptimizeResult result = lbfgs_minimize(split_phases(f), x0);
  EXPECT_TRUE(result.converged());
  EXPECT_NEAR(result.x[0], 2.0, 1e-5);
  EXPECT_NEAR(result.x[1], -1.0, 1e-5);
  EXPECT_NEAR(result.x[2], 4.0, 1e-5);
  EXPECT_NEAR(result.value, 0.0, 1e-9);
}

TEST(Lbfgs, MinimizesRosenbrock) {
  LbfgsOptions options;
  options.max_iterations = 500;
  const OptimizeResult result =
      lbfgs_minimize(split_phases(rosenbrock()), std::vector<double>{-1.2, 1.0},
                     options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-4);
  EXPECT_NEAR(result.x[1], 1.0, 1e-4);
}

TEST(Lbfgs, RespectsBoxBounds) {
  // Unconstrained minimum at (2, -1) but box is [0,1] x [0,1].
  const auto f = quadratic({1.0, 1.0}, {2.0, -1.0});
  Bounds bounds;
  bounds.lower = {0.0, 0.0};
  bounds.upper = {1.0, 1.0};
  const OptimizeResult result =
      lbfgs_minimize(split_phases(f), std::vector<double>{0.5, 0.5}, {},
                     bounds);
  EXPECT_NEAR(result.x[0], 1.0, 1e-6);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
}

TEST(Lbfgs, StartOutsideBoxGetsProjected) {
  const auto f = quadratic({1.0}, {0.5});
  Bounds bounds;
  bounds.lower = {0.0};
  bounds.upper = {1.0};
  const OptimizeResult result =
      lbfgs_minimize(split_phases(f), std::vector<double>{50.0}, {}, bounds);
  EXPECT_NEAR(result.x[0], 0.5, 1e-6);
}

TEST(Lbfgs, ImmediateConvergenceAtOptimum) {
  const auto f = quadratic({1.0, 1.0}, {3.0, 3.0});
  const OptimizeResult result =
      lbfgs_minimize(split_phases(f), std::vector<double>{3.0, 3.0});
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Lbfgs, HonorsIterationBudget) {
  LbfgsOptions options;
  options.max_iterations = 2;
  options.gradient_tolerance = 0.0;
  options.relative_f_tolerance = 0.0;
  const OptimizeResult result =
      lbfgs_minimize(split_phases(rosenbrock()), std::vector<double>{-1.2, 1.0},
                     options);
  EXPECT_EQ(result.reason, StopReason::kMaxIterations);
  EXPECT_LE(result.iterations, 2u);
}

TEST(Lbfgs, EmptyStartThrows) {
  const auto f = quadratic({}, {});
  EXPECT_THROW(lbfgs_minimize(split_phases(f), std::vector<double>{}),
               std::invalid_argument);
}

TEST(Lbfgs, StopReasonStringsAreHuman) {
  EXPECT_FALSE(to_string(StopReason::kGradientTolerance).empty());
  EXPECT_FALSE(to_string(StopReason::kLineSearchFailed).empty());
}

TEST(FiniteDifference, MatchesAnalyticGradient) {
  const auto f = quadratic({2.0, 1.0}, {1.0, -2.0});
  const std::vector<double> x{0.3, 0.7};
  const std::vector<double> fd = finite_difference_gradient(f, x);
  std::vector<double> analytic(2);
  f(x, analytic);
  EXPECT_NEAR(fd[0], analytic[0], 1e-6);
  EXPECT_NEAR(fd[1], analytic[1], 1e-6);
}

TEST(BoundsTest, ValidationCatchesMistakes) {
  Bounds bounds;
  bounds.lower = {0.0, 0.0};
  EXPECT_THROW(bounds.validate(3), std::invalid_argument);
  bounds.upper = {-1.0, 1.0};
  EXPECT_THROW(bounds.validate(2), std::invalid_argument);
}

// Property: from random starting points, L-BFGS lands on the quadratic's
// known minimizer.
class LbfgsRandomStarts : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LbfgsRandomStarts, QuadraticAlwaysSolved) {
  Rng rng(GetParam());
  const std::size_t dim = 1 + rng.uniform_index(8);
  std::vector<double> scale(dim);
  std::vector<double> target(dim);
  std::vector<double> x0(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    scale[i] = rng.uniform(0.1, 5.0);
    target[i] = rng.uniform(-3.0, 3.0);
    x0[i] = rng.uniform(-10.0, 10.0);
  }
  const OptimizeResult result =
      lbfgs_minimize(split_phases(quadratic(scale, target)), x0);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(result.x[i], target[i], 1e-4) << "dim " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LbfgsRandomStarts,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 10ULL, 77ULL,
                                           555ULL));

// --- the two-phase contract -------------------------------------------------

// One phase call, in the order a run made it.
struct PhaseCall {
  std::size_t run;
  bool gradient;
  std::vector<double> x;  // the point the call evaluated at
  double value;           // value calls only
};

// Wraps `f` so that every phase call of every run is appended to `calls`.
// Runs are numbered in the order they made their phase state.
PhasedObjective recording(Objective f, std::vector<PhaseCall>& calls) {
  auto runs = std::make_shared<std::size_t>(0);
  return [f = std::move(f), &calls, runs] {
    const std::size_t run = (*runs)++;
    auto last_x = std::make_shared<std::vector<double>>();
    return ObjectivePhases{
        [f, &calls, run, last_x](std::span<const double> x) {
          last_x->assign(x.begin(), x.end());
          const double value = f(x, {});
          calls.push_back({run, false, *last_x, value});
          return value;
        },
        [f, &calls, run, last_x](std::span<double> grad) {
          f(*last_x, grad);
          calls.push_back({run, true, *last_x, 0.0});
        }};
  };
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// Every gradient call directly follows a value call of its run, at that
// call's point, and no value call gets two gradients.
void expect_gradients_follow_values(const std::vector<PhaseCall>& calls) {
  ASSERT_FALSE(calls.empty());
  EXPECT_FALSE(calls.front().gradient);
  for (std::size_t i = 1; i < calls.size(); ++i) {
    if (!calls[i].gradient) continue;
    SCOPED_TRACE("call " + std::to_string(i));
    const PhaseCall& before = calls[i - 1];
    EXPECT_FALSE(before.gradient);
    EXPECT_EQ(before.run, calls[i].run);
    EXPECT_TRUE(same_bits(before.x, calls[i].x));
  }
}

// Counts the value calls that got no gradient, and checks that none of
// the trials that certainly fail the Armijo test got one: a non-finite
// value, or (unbounded, so the displacement slope is negative) a value
// above the start value, which no later iterate exceeds.
std::size_t expect_rejected_trials_skip_gradient(
    const std::vector<PhaseCall>& calls, bool bounded) {
  const double start_value = calls.front().value;
  std::size_t rejected = 0;
  std::size_t without_gradient = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (calls[i].gradient) continue;
    const bool has_gradient = i + 1 < calls.size() && calls[i + 1].gradient;
    if (!has_gradient) ++without_gradient;
    const double v = calls[i].value;
    if (!std::isfinite(v) || (!bounded && v > start_value)) {
      ++rejected;
      EXPECT_FALSE(has_gradient) << "trial " << i << " failed Armijo";
    }
  }
  EXPECT_GT(rejected, 0u);
  return without_gradient;
}

TEST(LbfgsPhases, RosenbrockGradientsOnlyForArmijoPassingTrials) {
  std::vector<PhaseCall> calls;
  LbfgsOptions options;
  options.max_iterations = 500;
  const OptimizeResult result = lbfgs_minimize(
      recording(rosenbrock(), calls), std::vector<double>{-1.2, 1.0}, options);
  expect_gradients_follow_values(calls);
  const std::size_t skipped =
      expect_rejected_trials_skip_gradient(calls, false);
  EXPECT_EQ(calls.size(), 2 * result.evaluations - skipped);
}

TEST(LbfgsPhases, NonFiniteWallTrialsGetNoGradient) {
  // A quadratic with its minimum at 2, walled off past 3: every trial
  // beyond the wall reads NaN and must fail Armijo without a gradient.
  const Objective inner = quadratic({1.0}, {2.0});
  const Objective walled = [inner](std::span<const double> x,
                                   std::span<double> grad) {
    if (x[0] > 3.0) {
      for (double& g : grad) g = std::numeric_limits<double>::quiet_NaN();
      return std::numeric_limits<double>::quiet_NaN();
    }
    return inner(x, grad);
  };
  std::vector<PhaseCall> calls;
  const OptimizeResult result =
      lbfgs_minimize(recording(walled, calls), std::vector<double>{-20.0});
  EXPECT_NEAR(result.x[0], 2.0, 1e-6);
  expect_gradients_follow_values(calls);
  expect_rejected_trials_skip_gradient(calls, true);
}

TEST(LbfgsPhases, MultistartRunsKeepTheirOwnPhases) {
  std::vector<PhaseCall> calls;
  Bounds bounds;
  bounds.lower = {-2.0, -1.0};
  bounds.upper = {2.0, 3.0};
  MultistartOptions options;
  options.restarts = 3;
  Rng rng(5);
  // One lane: the runs go one after another, so `calls` needs no lock.
  alamr::core::set_global_parallel_threads(1);
  (void)multistart_minimize(recording(rosenbrock(), calls),
                            std::vector<double>{-1.2, 1.0}, bounds, options,
                            rng);
  alamr::core::set_global_parallel_threads(0);
  std::size_t runs = 0;
  for (const PhaseCall& c : calls) runs = std::max(runs, c.run + 1);
  EXPECT_EQ(runs, 4u);
  expect_gradients_follow_values(calls);
}

// OptimizeResult pins. The expected bits were computed by the eager
// lbfgs_minimize this two-phase one replaced (gradient with every value),
// on the same objectives: the lazy gradient moves no decision. The GPR
// pin runs at the scalar SIMD level, where the byte goldens are pinned
// too (the vector tiers round the LML's dot products differently).
struct ResultPin {
  std::vector<std::uint64_t> x;
  std::uint64_t value;
  std::size_t iterations;
  std::size_t evaluations;
  StopReason reason;
};

void expect_pinned(const OptimizeResult& r, const ResultPin& pin) {
  ASSERT_EQ(r.x.size(), pin.x.size());
  for (std::size_t i = 0; i < r.x.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.x[i]), pin.x[i]) << "x[" << i
                                                              << "]";
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.value), pin.value);
  EXPECT_EQ(r.iterations, pin.iterations);
  EXPECT_EQ(r.evaluations, pin.evaluations);
  EXPECT_EQ(r.reason, pin.reason);
}

TEST(LbfgsPin, UnboundedRosenbrock) {
  LbfgsOptions options;
  options.max_iterations = 500;
  expect_pinned(lbfgs_minimize(split_phases(rosenbrock()),
                               std::vector<double>{-1.2, 1.0}, options),
                {{0x3fefffffffffec16ULL, 0x3fefffffffffd8e0ULL},
                 0x3adbe02240000000ULL, 34, 62,
                 StopReason::kGradientTolerance});
}

TEST(LbfgsPin, BoxedRosenbrockWithClippedTrials) {
  Bounds bounds;
  bounds.lower = {-1.5, -0.5};
  bounds.upper = {0.8, 0.6};
  std::vector<PhaseCall> calls;
  const OptimizeResult result =
      lbfgs_minimize(recording(rosenbrock(), calls),
                     std::vector<double>{-1.2, 1.0}, {}, bounds);
  expect_pinned(result, {{0x3fe8d35e9a076b3eULL, 0x3fe3333333333333ULL},
                         0x3fa9ea128cd61e7fULL, 7, 66,
                         StopReason::kLineSearchFailed});
  // The box does clip trials: some land exactly on a bound.
  std::size_t on_bound = 0;
  for (const PhaseCall& c : calls) {
    if (!c.gradient && (c.x[0] == 0.8 || c.x[1] == 0.6)) ++on_bound;
  }
  EXPECT_GT(on_bound, 1u);
  expect_gradients_follow_values(calls);
}

TEST(LbfgsPin, GprNegativeLml) {
  namespace simd = alamr::linalg::simd;
  const simd::Level saved = simd::active_level();
  simd::set_level(simd::Level::kScalar);
  alamr::stats::Rng rng(7);
  const std::size_t n = 40;
  alamr::linalg::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1) * x(i, 1) + 0.05 * rng.normal();
  }
  alamr::gp::GprOptions options;
  options.optimize = false;
  alamr::gp::GaussianProcessRegressor gpr(alamr::gp::make_paper_kernel(),
                                          options);
  Rng fit_rng(11);
  gpr.fit(x, y, fit_rng);
  const OptimizeResult result =
      lbfgs_minimize(gpr.negative_lml_objective(), gpr.kernel().log_params(),
                     {}, gpr.kernel().log_bounds());
  simd::set_level(saved);
  expect_pinned(
      result,
      {{0x3ff057869854aa3aULL, 0xbfc385cc67f3c7e6ULL, 0xc017f262db9708d2ULL},
       0xc042a37c888b74ccULL, 17, 26, StopReason::kGradientTolerance});
}

}  // namespace
