// Tests for the workspace-arena integration in the AL pass loop: the
// arena's footprint must be flat after the pre-warmed first pass (the
// check.sh zero-allocation gate reads the arena.* counters this suite
// pins), and no exit path — censored continue, kRetryNextCandidate, early
// stop — may leak arena scopes.

#include "alamr/core/simulator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "alamr/core/export.hpp"
#include "alamr/core/faults.hpp"
#include "alamr/core/parallel.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr::core;
using alamr::stats::Rng;
namespace faults = alamr::core::faults;

AlOptions arena_options(std::size_t max_iters = 12) {
  AlOptions options;
  options.n_test = 40;
  options.n_init = 10;
  options.max_iterations = max_iters;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 25;
  options.refit.max_opt_iterations = 5;
  return options;
}

const alamr::data::Dataset& dataset() {
  static const auto d = alamr::testing::synthetic_amr_dataset(120, 4242);
  return d;
}

TEST(ArenaGate, SteadyStateFootprintIsFlat) {
  AlOptions options = arena_options();
  options.trace = true;
  const AlSimulator sim(dataset(), options);
  Rng rng(7);
  const TrajectoryResult traj = sim.run(MaxSigma(), rng);

  // The fused path ran and its temporaries lived in the arena.
  EXPECT_GT(traj.trace.counter("predict.batch_calls"), 0u);
  EXPECT_GT(traj.trace.counter("predict.batch_queries"), 0u);
  EXPECT_GT(traj.trace.counter("arena.bytes_peak"), 0u);
  // The in-use peak counts pass allocations only, not the pre-warm, so it
  // shows how much of the reserved capacity the passes really touched.
  EXPECT_GT(traj.trace.counter("arena.inuse_peak_bytes"), 0u);
  EXPECT_LT(traj.trace.counter("arena.inuse_peak_bytes"),
            traj.trace.counter("arena.bytes_peak"));

  // The gate itself: the pre-warm sizes the arena once, so capacity
  // never grows after the first pass and every pass scope was closed.
  EXPECT_EQ(traj.trace.counter("arena.steady_growth"), 0u);
  EXPECT_EQ(traj.trace.counter("arena.scope_leaks"), 0u);
  EXPECT_EQ(traj.trace.counter("arena.chunk_allocs"), 1u)
      << "pre-warm should cover the whole trajectory in one chunk";
}

// kRetryNextCandidate exercises the pass loop's `continue` exit: the
// censored pass must release its arena scope, and the retry trajectory
// must stay byte-identical between the serial and the 4-lane pool.
TEST(ArenaGate, RetryPolicyLeaksNoScopesAndStaysByteIdentical) {
  AlOptions options = arena_options(8);
  options.trace = true;
  options.failures.plan = faults::FaultPlan::parse("acquire.oom:hits=1|3");
  options.failures.policy = CensorPolicy::kRetryNextCandidate;
  const AlSimulator sim(dataset(), options);

  set_global_parallel_threads(1);
  Rng rng_a(13);
  const TrajectoryResult serial = sim.run(RandGoodness(), rng_a);
  set_global_parallel_threads(4);
  Rng rng_b(13);
  const TrajectoryResult pooled = sim.run(RandGoodness(), rng_b);
  set_global_parallel_threads(0);  // restore the configured default

  EXPECT_GT(serial.censored_count, 0u) << "fault plan did not fire";
  EXPECT_EQ(serial.trace.counter("arena.scope_leaks"), 0u);
  EXPECT_EQ(serial.trace.counter("arena.steady_growth"), 0u);
  EXPECT_EQ(trajectory_to_csv(serial), trajectory_to_csv(pooled));
}

// Censored passes under kDropCensored take the same early `continue`;
// cover it too so both censor exits pin the scope bookkeeping.
TEST(ArenaGate, DropCensoredLeaksNoScopes) {
  AlOptions options = arena_options(8);
  options.trace = true;
  options.failures.plan = faults::FaultPlan::parse("acquire.timeout:hits=0|2");
  options.failures.policy = CensorPolicy::kDropCensored;
  const AlSimulator sim(dataset(), options);
  Rng rng(17);
  const TrajectoryResult traj = sim.run(RandGoodness(), rng);
  EXPECT_GT(traj.censored_count, 0u) << "fault plan did not fire";
  EXPECT_EQ(traj.trace.counter("arena.scope_leaks"), 0u);
  EXPECT_EQ(traj.trace.counter("arena.steady_growth"), 0u);
}

}  // namespace
