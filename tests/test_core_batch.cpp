// Tests for batch trajectory execution and cross-trajectory aggregation.

#include "alamr/core/batch.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "synthetic_dataset.hpp"

namespace {

using namespace alamr::core;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Bitwise comparison of everything a trajectory records — the shared-
// context path must not perturb a single bit.
void expect_trajectories_identical(const TrajectoryResult& a,
                                   const TrajectoryResult& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  EXPECT_EQ(a.partition.test, b.partition.test);
  EXPECT_EQ(a.partition.init, b.partition.init);
  EXPECT_EQ(a.partition.active, b.partition.active);
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const IterationRecord& ra = a.iterations[i];
    const IterationRecord& rb = b.iterations[i];
    EXPECT_EQ(ra.dataset_row, rb.dataset_row) << i;
    EXPECT_TRUE(same_bits(ra.predicted_cost_log10, rb.predicted_cost_log10))
        << i;
    EXPECT_TRUE(same_bits(ra.predicted_cost_sigma, rb.predicted_cost_sigma))
        << i;
    EXPECT_TRUE(same_bits(ra.predicted_mem_log10, rb.predicted_mem_log10))
        << i;
    EXPECT_TRUE(same_bits(ra.predicted_mem_sigma, rb.predicted_mem_sigma))
        << i;
    EXPECT_TRUE(same_bits(ra.rmse_cost, rb.rmse_cost)) << i;
    EXPECT_TRUE(same_bits(ra.rmse_mem, rb.rmse_mem)) << i;
    EXPECT_TRUE(same_bits(ra.cumulative_regret, rb.cumulative_regret)) << i;
  }
}

AlOptions fast_options() {
  AlOptions options;
  options.n_test = 30;
  options.n_init = 8;
  options.max_iterations = 6;
  options.initial_fit.restarts = 0;
  options.initial_fit.max_opt_iterations = 15;
  options.refit.max_opt_iterations = 3;
  return options;
}

const alamr::data::Dataset& dataset() {
  static const auto d = alamr::testing::synthetic_amr_dataset(90, 777);
  return d;
}

TEST(RunBatch, ProducesRequestedTrajectories) {
  const AlSimulator sim(dataset(), fast_options());
  BatchOptions batch;
  batch.trajectories = 4;
  batch.threads = 1;
  const auto results = run_batch(sim, RandUniform(), batch);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& traj : results) {
    EXPECT_EQ(traj.iterations.size(), 6u);
    EXPECT_EQ(traj.strategy_name, "RandUniform");
  }
}

TEST(RunBatch, TrajectoriesUseDifferentPartitions) {
  const AlSimulator sim(dataset(), fast_options());
  BatchOptions batch;
  batch.trajectories = 3;
  batch.threads = 1;
  const auto results = run_batch(sim, RandUniform(), batch);
  EXPECT_NE(results[0].partition.test, results[1].partition.test);
  EXPECT_NE(results[1].partition.test, results[2].partition.test);
}

TEST(RunBatch, DeterministicRegardlessOfThreadCount) {
  const AlSimulator sim(dataset(), fast_options());
  BatchOptions serial;
  serial.trajectories = 3;
  serial.threads = 1;
  serial.seed = 99;
  BatchOptions parallel = serial;
  parallel.threads = 3;

  const auto a = run_batch(sim, RandGoodness(), serial);
  const auto b = run_batch(sim, RandGoodness(), parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].iterations.size(), b[t].iterations.size());
    for (std::size_t i = 0; i < a[t].iterations.size(); ++i) {
      EXPECT_EQ(a[t].iterations[i].dataset_row, b[t].iterations[i].dataset_row);
    }
  }
}

TEST(RunBatch, ZeroTrajectoriesThrows) {
  const AlSimulator sim(dataset(), fast_options());
  BatchOptions batch;
  batch.trajectories = 0;
  EXPECT_THROW(run_batch(sim, RandUniform(), batch), std::invalid_argument);
}

TEST(RunBatch, SharedContextMatchesUnshared) {
  // run_batch gathers every distance cache from one shared context; each
  // trajectory must equal the same stream run alone with no context, which
  // recomputes every cache from features.
  const AlSimulator sim(dataset(), fast_options());
  BatchOptions batch;
  batch.trajectories = 3;
  batch.threads = 1;
  batch.seed = 404;
  const auto a = run_batch(sim, RandGoodness(), batch);
  ASSERT_EQ(a.size(), batch.trajectories);

  alamr::stats::Rng master(batch.seed);
  for (std::size_t t = 0; t < a.size(); ++t) {
    alamr::stats::Rng stream = master.split();
    const auto partition = alamr::data::make_partition(
        sim.dataset().size(), sim.options().n_test, sim.options().n_init,
        stream);
    const TrajectoryResult b =
        sim.run_with_partition(RandGoodness(), partition, stream);
    expect_trajectories_identical(a[t], b);
  }
}

TEST(RunBatch, SharedContextDeterministicAcrossThreadCounts) {
  // The context is read concurrently by every worker; results must not
  // depend on scheduling (also the tsan target for the shared structure).
  const AlSimulator sim(dataset(), fast_options());
  BatchOptions serial;
  serial.trajectories = 4;
  serial.threads = 1;
  serial.seed = 505;
  BatchOptions parallel = serial;
  parallel.threads = 4;

  const auto a = run_batch(sim, RandGoodness(), serial);
  const auto b = run_batch(sim, RandGoodness(), parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    expect_trajectories_identical(a[t], b[t]);
  }
}

TEST(RunBatch, SharedContextTrajectoriesOnlyGatherDistances) {
  namespace trace = alamr::core::trace;
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);

  const AlSimulator sim(dataset(), fast_options());
  const SharedBatchContext ctx = sim.make_shared_context();
  alamr::stats::Rng rng(808);
  const auto partition = alamr::data::make_partition(
      sim.dataset().size(), sim.options().n_test, sim.options().n_init, rng);
  const RandUniform strategy;
  const TrajectoryResult traj =
      sim.run_with_partition(strategy, partition, rng, &ctx);
  trace::set_enabled(was_enabled);

  // A batch member never recomputes a distance cache from features: the
  // train cache is gathered at fit, the cross cache gathered on (re)build
  // and append — the from-scratch counters stay at zero.
  EXPECT_EQ(traj.trace.counter("gp.dist_cache_build"), 0u);
  EXPECT_EQ(traj.trace.counter("gp.dist_base_build"), 0u);
  EXPECT_GT(traj.trace.counter("gp.dist_cache_gather"), 0u);
  EXPECT_GT(traj.trace.counter("sim.shared_context_runs"), 0u);
}

TEST(RunBatch, MismatchedSharedContextRejected) {
  const AlSimulator sim(dataset(), fast_options());
  const auto other_data = alamr::testing::synthetic_amr_dataset(70, 123);
  const AlSimulator other(other_data, fast_options());
  const SharedBatchContext wrong = other.make_shared_context();
  alamr::stats::Rng rng(9);
  EXPECT_THROW(sim.run(RandUniform(), rng, &wrong), std::invalid_argument);
}

TEST(ExtractSeries, PullsTheRightField) {
  TrajectoryResult traj;
  IterationRecord r1;
  r1.rmse_cost = 1.0;
  r1.cumulative_cost = 5.0;
  r1.actual_cost = 5.0;
  r1.cumulative_regret = 0.5;
  r1.rmse_mem = 2.0;
  IterationRecord r2 = r1;
  r2.rmse_cost = 0.5;
  r2.cumulative_cost = 7.0;
  r2.actual_cost = 2.0;
  traj.iterations = {r1, r2};

  EXPECT_EQ(extract_series(traj, Metric::kRmseCost),
            (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(extract_series(traj, Metric::kCumulativeCost),
            (std::vector<double>{5.0, 7.0}));
  EXPECT_EQ(extract_series(traj, Metric::kActualCost),
            (std::vector<double>{5.0, 2.0}));
  EXPECT_EQ(extract_series(traj, Metric::kCumulativeRegret),
            (std::vector<double>{0.5, 0.5}));
  EXPECT_EQ(extract_series(traj, Metric::kRmseMem),
            (std::vector<double>{2.0, 2.0}));
}

TEST(AggregateCurve, MeanMinMaxAcrossTrajectories) {
  TrajectoryResult a;
  TrajectoryResult b;
  for (int i = 0; i < 3; ++i) {
    IterationRecord ra;
    ra.rmse_cost = 1.0 + i;
    a.iterations.push_back(ra);
    IterationRecord rb;
    rb.rmse_cost = 3.0 - i;
    b.iterations.push_back(rb);
  }
  const std::vector<TrajectoryResult> trajectories{a, b};
  const auto curve = aggregate_curve(trajectories, Metric::kRmseCost);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].mean, 2.0);
  EXPECT_DOUBLE_EQ(curve[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].hi, 3.0);
  EXPECT_EQ(curve[0].count, 2u);
  EXPECT_DOUBLE_EQ(curve[2].mean, 2.0);  // (3 + 1) / 2
}

TEST(AggregateCurve, EarlyStoppedTrajectoriesDropOut) {
  TrajectoryResult longer;
  TrajectoryResult shorter;
  for (int i = 0; i < 5; ++i) {
    IterationRecord r;
    r.cumulative_regret = 1.0;
    longer.iterations.push_back(r);
    if (i < 2) shorter.iterations.push_back(r);
  }
  const std::vector<TrajectoryResult> trajectories{longer, shorter};
  const auto curve = aggregate_curve(trajectories, Metric::kCumulativeRegret);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_EQ(curve[1].count, 2u);
  EXPECT_EQ(curve[2].count, 1u);
  EXPECT_EQ(curve[4].count, 1u);
}

TEST(AggregateCurve, EmptyInput) {
  const std::vector<TrajectoryResult> none;
  EXPECT_TRUE(aggregate_curve(none, Metric::kRmseCost).empty());
}

}  // namespace
