#pragma once

// Adapts a value-and-gradient objective to the two-phase form L-BFGS
// takes, so the optimizer tests can keep writing plain objectives.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "alamr/opt/objective.hpp"

namespace alamr::testing {

/// Splits `f` into phases: `value(x)` calls f(x, {}) and `gradient(grad)`
/// calls f at the same x with `grad`.
inline opt::PhasedObjective split_phases(opt::Objective f) {
  return [f = std::move(f)] {
    auto x = std::make_shared<std::vector<double>>();
    return opt::ObjectivePhases{
        [f, x](std::span<const double> at) {
          x->assign(at.begin(), at.end());
          return f(at, {});
        },
        [f, x](std::span<double> grad) { f(*x, grad); }};
  };
}

}  // namespace alamr::testing
