#include "alamr/opt/lbfgs.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "alamr/linalg/matrix.hpp"

namespace alamr::opt {

namespace {

using linalg::dot;

struct CorrectionPair {
  std::vector<double> s;  // x_{k+1} - x_k
  std::vector<double> y;  // g_{k+1} - g_k
  double rho = 0.0;       // 1 / (y . s)
};

/// Two-loop recursion: d = -H g using the stored correction pairs.
std::vector<double> two_loop_direction(const std::deque<CorrectionPair>& pairs,
                                       std::span<const double> grad) {
  std::vector<double> q(grad.begin(), grad.end());
  std::vector<double> alpha(pairs.size());
  for (std::size_t idx = pairs.size(); idx-- > 0;) {
    const auto& p = pairs[idx];
    alpha[idx] = p.rho * dot(p.s, q);
    linalg::axpy(-alpha[idx], p.y, q);
  }
  // Initial Hessian scaling gamma = (s.y)/(y.y) from the freshest pair.
  if (!pairs.empty()) {
    const auto& last = pairs.back();
    const double yy = dot(last.y, last.y);
    if (yy > 0.0) {
      const double gamma = dot(last.s, last.y) / yy;
      for (double& v : q) v *= gamma;
    }
  }
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    const auto& p = pairs[idx];
    const double beta = p.rho * dot(p.y, q);
    linalg::axpy(alpha[idx] - beta, p.s, q);
  }
  for (double& v : q) v = -v;
  return q;
}

double projected_gradient_inf_norm(std::span<const double> x,
                                   std::span<const double> grad,
                                   const Bounds& bounds) {
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    double step = x[i] - grad[i];
    if (bounds.active()) {
      if (!bounds.lower.empty()) step = std::max(step, bounds.lower[i]);
      if (!bounds.upper.empty()) step = std::min(step, bounds.upper[i]);
    }
    worst = std::max(worst, std::abs(step - x[i]));
  }
  return worst;
}

}  // namespace

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kGradientTolerance: return "gradient tolerance reached";
    case StopReason::kFunctionTolerance: return "function tolerance reached";
    case StopReason::kMaxIterations: return "max iterations reached";
    case StopReason::kLineSearchFailed: return "line search failed";
  }
  return "unknown";
}

OptimizeResult lbfgs_minimize(const PhasedObjective& f,
                              std::span<const double> x0,
                              const LbfgsOptions& options,
                              const Bounds& bounds) {
  if (x0.empty()) throw std::invalid_argument("lbfgs: empty start point");
  bounds.validate(x0.size());

  OptimizeResult result;
  result.x.assign(x0.begin(), x0.end());
  bounds.project(result.x);

  const ObjectivePhases phases = f();
  std::vector<double> grad(x0.size());
  result.value = phases.value(result.x);
  phases.gradient(grad);
  ++result.evaluations;

  std::deque<CorrectionPair> pairs;
  std::vector<double> candidate(x0.size());
  std::vector<double> candidate_grad(x0.size());
  // Narrow curved valleys (Rosenbrock-like) produce tiny per-iteration
  // decreases long before convergence; only stop on the f-tolerance after
  // several consecutive small changes.
  int small_change_streak = 0;

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    if (projected_gradient_inf_norm(result.x, grad, bounds) <
        options.gradient_tolerance) {
      result.reason = StopReason::kGradientTolerance;
      result.iterations = iter;
      return result;
    }

    std::vector<double> direction = two_loop_direction(pairs, grad);
    double slope = dot(direction, grad);
    if (!(slope < 0.0)) {
      // Not a descent direction (can happen after projections or with a
      // stale history); fall back to steepest descent and drop history.
      pairs.clear();
      for (std::size_t i = 0; i < direction.size(); ++i) direction[i] = -grad[i];
      slope = dot(direction, grad);
      if (!(slope < 0.0)) {
        result.reason = StopReason::kGradientTolerance;
        return result;
      }
    }

    // Approximate strong-Wolfe line search (bracket + bisection zoom).
    // When the box projection clips a trial point, the Wolfe curvature
    // test is skipped for that trial and plain Armijo acceptance applies.
    constexpr double kWolfeC2 = 0.9;
    double step = 1.0;
    double step_lo = 0.0;
    double step_hi = std::numeric_limits<double>::infinity();
    bool accepted = false;
    double candidate_value = 0.0;
    // Best Armijo-passing trial so far, used if the search budget runs out
    // while hunting for the curvature condition.
    bool have_fallback = false;
    std::vector<double> fallback_x;
    std::vector<double> fallback_grad;
    double fallback_value = 0.0;

    for (std::size_t ls = 0; ls < options.max_line_search_steps; ++ls) {
      bool clipped = false;
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        candidate[i] = result.x[i] + step * direction[i];
      }
      if (bounds.active()) {
        bounds.project(candidate);
        for (std::size_t i = 0; i < candidate.size(); ++i) {
          if (candidate[i] != result.x[i] + step * direction[i]) {
            clipped = true;
            break;
          }
        }
      }
      candidate_value = phases.value(candidate);
      ++result.evaluations;

      // Sufficient decrease, measured against the actual displacement
      // (which differs from step*direction after projection).
      double displacement_slope = 0.0;
      for (std::size_t i = 0; i < candidate.size(); ++i) {
        displacement_slope += grad[i] * (candidate[i] - result.x[i]);
      }
      const bool armijo =
          std::isfinite(candidate_value) &&
          candidate_value <= result.value + options.armijo_c1 * displacement_slope;

      if (!armijo) {
        // Too long: bracket from above and bisect down.
        step_hi = step;
        step = 0.5 * (step_lo + step_hi);
        continue;
      }
      // Only a trial that passes Armijo can be accepted or kept as the
      // fallback, so only such a trial pays for its gradient.
      phases.gradient(candidate_grad);
      if (clipped) {
        accepted = true;  // projected step with sufficient decrease
        break;
      }
      const double candidate_slope = dot(candidate_grad, direction);
      if (candidate_slope < kWolfeC2 * slope) {
        // Still descending steeply: step too short. Remember it, then
        // expand (or bisect upward once an upper bracket exists).
        if (!have_fallback || candidate_value < fallback_value) {
          have_fallback = true;
          fallback_x = candidate;
          fallback_grad = candidate_grad;
          fallback_value = candidate_value;
        }
        step_lo = step;
        step = std::isfinite(step_hi) ? 0.5 * (step_lo + step_hi) : 2.0 * step;
        continue;
      }
      accepted = true;  // strong-Wolfe satisfied
      break;
    }
    if (!accepted && have_fallback) {
      candidate = fallback_x;
      candidate_grad = fallback_grad;
      candidate_value = fallback_value;
      accepted = true;
    }
    if (!accepted) {
      result.reason = StopReason::kLineSearchFailed;
      return result;
    }

    CorrectionPair pair;
    pair.s.resize(candidate.size());
    pair.y.resize(candidate.size());
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      pair.s[i] = candidate[i] - result.x[i];
      pair.y[i] = candidate_grad[i] - grad[i];
    }
    const double sy = dot(pair.s, pair.y);
    if (sy > 1e-10 * linalg::norm2(pair.s) * linalg::norm2(pair.y)) {
      pair.rho = 1.0 / sy;
      pairs.push_back(std::move(pair));
      if (pairs.size() > options.history) pairs.pop_front();
    }

    const double previous_value = result.value;
    result.x = candidate;
    result.value = candidate_value;
    grad = candidate_grad;

    const double rel_change = std::abs(previous_value - result.value) /
                              std::max({std::abs(previous_value),
                                        std::abs(result.value), 1.0});
    small_change_streak =
        rel_change < options.relative_f_tolerance ? small_change_streak + 1 : 0;
    if (small_change_streak >= 3) {
      if (!pairs.empty()) {
        // Progress stalled with quasi-Newton history: the stored curvature
        // pairs can poison the direction in narrow curved valleys. Restart
        // from steepest descent once before concluding convergence.
        pairs.clear();
        small_change_streak = 0;
      } else {
        result.reason = StopReason::kFunctionTolerance;
        return result;
      }
    }
  }
  result.reason = StopReason::kMaxIterations;
  return result;
}

}  // namespace alamr::opt
