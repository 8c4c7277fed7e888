#include "alamr/opt/multistart.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "alamr/core/faults.hpp"
#include "alamr/core/resilience.hpp"
#include "alamr/core/parallel.hpp"

namespace alamr::opt {

OptimizeResult multistart_minimize(const PhasedObjective& f,
                                   std::span<const double> x0,
                                   const Bounds& bounds,
                                   const MultistartOptions& options,
                                   stats::Rng& rng) {
  if (options.restarts > 0 &&
      (bounds.lower.size() != x0.size() || bounds.upper.size() != x0.size())) {
    throw std::invalid_argument(
        "multistart_minimize: random restarts need full box bounds");
  }

  // Draw every random start up-front, in restart order, so the rng stream
  // is consumed exactly as the serial loop consumed it — results do not
  // depend on the thread count.
  std::vector<std::vector<double>> starts;
  starts.reserve(options.restarts + 1);
  starts.emplace_back(x0.begin(), x0.end());
  for (std::size_t r = 0; r < options.restarts; ++r) {
    std::vector<double> start(x0.size());
    for (std::size_t i = 0; i < start.size(); ++i) {
      start[i] = rng.uniform(bounds.lower[i], bounds.upper[i]);
    }
    starts.push_back(std::move(start));
  }

  // Fault site "opt.diverge": consulted once per start HERE, on the
  // calling thread (never inside pool tasks), so the schedule is
  // deterministic whatever the thread count. A fired start is poisoned to
  // a NaN objective value, as if its line search diverged; callers that
  // see a non-finite best value walk the recovery ladder in gpr.cpp.
  const bool armed = core::faults::armed();
  std::vector<char> diverged;
  if (armed) {
    diverged.resize(starts.size(), 0);
    for (std::size_t r = 0; r < starts.size(); ++r) {
      diverged[r] = core::faults::fire(core::faults::Site::kOptDiverge) ? 1 : 0;
      if (diverged[r] != 0) {
        core::resilience::note(core::resilience::Event::kOptDiverge);
      }
    }
  }

  // The runs are independent; `f` may be called from several threads at
  // once (the GPR objective only reads the stored training data), and
  // each run keeps its phase state to itself. Under an armed injector the
  // runs stay on the calling thread, in start order: the fault sites
  // inside the objective (cholesky.non_psd) then consult this thread's
  // injector for every start at the same hit numbers, whatever the lane
  // count.
  std::vector<OptimizeResult> results(starts.size());
  const auto run = [&](std::size_t r) {
    if (!diverged.empty() && diverged[r] != 0) {
      results[r].x = starts[r];
      results[r].value = std::numeric_limits<double>::quiet_NaN();
      results[r].reason = StopReason::kLineSearchFailed;
      return;
    }
    results[r] = lbfgs_minimize(f, starts[r], options.lbfgs, bounds);
  };
  if (armed) {
    for (std::size_t r = 0; r < starts.size(); ++r) run(r);
  } else {
    core::parallel_for(starts.size(), run);
  }

  // Reduce in start order with a strict '<' so ties keep the earliest run
  // (the warm start in particular), matching the serial loop; evaluation
  // counts add up across all runs.
  std::size_t best_index = 0;
  std::size_t evaluations = results[0].evaluations;
  for (std::size_t r = 1; r < results.size(); ++r) {
    evaluations += results[r].evaluations;
    // NaN never wins a '<', so without the isnan escape a diverged warm
    // start would shadow every later finite restart.
    if ((std::isnan(results[best_index].value) &&
         !std::isnan(results[r].value)) ||
        results[r].value < results[best_index].value) {
      best_index = r;
    }
  }
  OptimizeResult best = std::move(results[best_index]);
  best.evaluations = evaluations;
  return best;
}

}  // namespace alamr::opt
