#pragma once

// Multi-restart driver around L-BFGS.
//
// The LML surface (paper Eq. 8) is multi-modal in the hyperparameters; GP
// libraries mitigate this with `n_restarts_optimizer`. We reproduce that:
// the first start is user-provided (warm start from the previous AL
// iteration per Algorithm 1's note), further starts are sampled uniformly
// inside the bounds.

#include "alamr/opt/lbfgs.hpp"
#include "alamr/stats/rng.hpp"

namespace alamr::opt {

struct MultistartOptions {
  std::size_t restarts = 0;  // additional random starts beyond x0
  LbfgsOptions lbfgs;
};

/// Minimizes `f` from `x0` and from `restarts` random points inside
/// `bounds` (which must be fully specified when restarts > 0); returns the
/// best result found. Restarts run on the global thread pool, so `f` must
/// tolerate concurrent calls; each start's L-BFGS run makes its own phase
/// state, which only that run touches. All starts are drawn from `rng`
/// up-front and ties keep the earliest start, making the result
/// independent of the thread count. Under an armed fault injector the
/// starts run serially on the calling thread, so the injector sees every
/// start's fault sites in start order whatever the lane count.
OptimizeResult multistart_minimize(const PhasedObjective& f,
                                   std::span<const double> x0,
                                   const Bounds& bounds,
                                   const MultistartOptions& options,
                                   stats::Rng& rng);

}  // namespace alamr::opt
