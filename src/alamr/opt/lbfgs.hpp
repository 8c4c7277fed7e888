#pragma once

// Limited-memory BFGS with Armijo backtracking line search and optional box
// bounds (projected-gradient variant). This is the workhorse behind GPR
// hyperparameter optimization: dimensions are tiny (3-7 log-hyperparameters)
// but each evaluation costs an O(n^3) Cholesky, so the optimizer must be
// frugal with function evaluations.

#include <cstddef>
#include <string>
#include <vector>

#include "alamr/opt/objective.hpp"

namespace alamr::opt {

struct LbfgsOptions {
  std::size_t max_iterations = 100;
  std::size_t history = 8;          // number of (s, y) correction pairs kept
  double gradient_tolerance = 1e-6; // stop when ||proj grad||_inf below this
  double relative_f_tolerance = 1e-10;
  std::size_t max_line_search_steps = 30;
  double armijo_c1 = 1e-4;
};

enum class StopReason {
  kGradientTolerance,
  kFunctionTolerance,
  kMaxIterations,
  kLineSearchFailed,
};

struct OptimizeResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t iterations = 0;
  std::size_t evaluations = 0;
  StopReason reason = StopReason::kMaxIterations;

  /// True when the optimizer stopped because a tolerance was met.
  bool converged() const noexcept {
    return reason == StopReason::kGradientTolerance ||
           reason == StopReason::kFunctionTolerance;
  }
};

std::string to_string(StopReason reason);

/// Minimizes `f` starting from `x0`. If `bounds.active()`, iterates are
/// kept inside the box and convergence is measured on the projected
/// gradient. The run makes one phase state with `f()`. Every evaluation
/// calls its `value`; `gradient` follows, at that same point, only for the
/// start point and for line-search trials that pass the Armijo test.
/// `evaluations` counts value calls.
OptimizeResult lbfgs_minimize(const PhasedObjective& f,
                              std::span<const double> x0,
                              const LbfgsOptions& options = {},
                              const Bounds& bounds = {});

}  // namespace alamr::opt
