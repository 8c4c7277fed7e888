#pragma once

// Objective-function interface shared by the optimizers.
//
// GPR hyperparameter fitting (paper Eq. 9) maximizes the log marginal
// likelihood; we minimize its negation. Nelder-Mead and the finite-
// difference checker take a plain `Objective` (value, and the gradient
// when asked, in one call). L-BFGS takes a `PhasedObjective`, whose
// gradient is a separate call at the latest value point, so a line-search
// trial it rejects never pays for one; both phases share that point's
// Cholesky factorization.

#include <functional>
#include <span>
#include <vector>

namespace alamr::opt {

/// Evaluates f(x) and, if `grad` is non-empty, writes df/dx into it.
/// `grad.size()` is either 0 (value only) or x.size().
using Objective =
    std::function<double(std::span<const double> x, std::span<double> grad)>;

/// One L-BFGS run's view of a smooth objective, split in two phases:
/// `value(x)` returns f(x), and `gradient(grad)` writes df/dx at the x of
/// the latest `value` call. L-BFGS asks for a gradient only at the start
/// point and at line-search trials that pass the Armijo test, so an
/// objective whose gradient costs more than its value (the GPR LML: the
/// gradient adds an O(n^3) inverse) pays for it only there. The gradient
/// phase may reuse whatever the value phase computed at that point.
struct ObjectivePhases {
  std::function<double(std::span<const double> x)> value;
  std::function<void(std::span<double> grad)> gradient;
};

/// Makes fresh phase state for one L-BFGS run. Multistart calls it once
/// per start, possibly from several threads at once, so runs never share
/// the state that ties a gradient to its value point.
using PhasedObjective = std::function<ObjectivePhases()>;

/// Central finite-difference gradient of a value-only function; used to
/// verify analytic gradients in tests (LML gradient vs FD is one of the
/// repository's key property tests).
std::vector<double> finite_difference_gradient(const Objective& f,
                                               std::span<const double> x,
                                               double step = 1e-6);

/// Box bounds; empty vectors mean unbounded. When present, sizes must
/// match the dimension.
struct Bounds {
  std::vector<double> lower;
  std::vector<double> upper;

  bool active() const noexcept { return !lower.empty() || !upper.empty(); }
  /// Clamps x into the box (no-op for unbounded coordinates).
  void project(std::span<double> x) const;
  void validate(std::size_t dim) const;
};

}  // namespace alamr::opt
