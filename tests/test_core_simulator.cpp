// Tests for the Algorithm-1 simulator: bookkeeping, metric recording,
// early termination, and determinism. Uses a small synthetic dataset so
// each trajectory runs in well under a second.

#include "alamr/core/simulator.hpp"

#include "alamr/core/batch.hpp"
#include "alamr/core/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "alamr/linalg/simd.hpp"

#include "synthetic_dataset.hpp"

namespace {

using namespace alamr::core;
using alamr::stats::Rng;

AlOptions fast_options(std::size_t n_init = 10, std::size_t max_iters = 15) {
  AlOptions options;
  options.n_test = 40;
  options.n_init = n_init;
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

TEST(AlSimulator, RejectsTooSmallDataset) {
  const auto tiny = alamr::testing::synthetic_amr_dataset(30, 1);
  AlOptions options;
  options.n_test = 25;
  options.n_init = 10;
  EXPECT_THROW(AlSimulator(tiny, options), std::invalid_argument);
}

TEST(AlSimulator, RejectsNonFiniteFeatures) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    auto data = dataset();
    data.x(7, 2) = bad;
    EXPECT_THROW(AlSimulator(data, fast_options()), std::invalid_argument);
  }
}

TEST(AlSimulator, RejectsInfiniteCostOrMemory) {
  const double inf = std::numeric_limits<double>::infinity();
  auto cost = dataset();
  cost.cost[3] = inf;
  EXPECT_THROW(AlSimulator(cost, fast_options()), std::invalid_argument);
  auto memory = dataset();
  memory.memory[3] = inf;
  EXPECT_THROW(AlSimulator(memory, fast_options()), std::invalid_argument);
}

TEST(AlSimulator, MemoryLimitRuleMatchesPaperAnchor) {
  // The default L_mem reproduces the paper's anchor (7.53 MB limit vs
  // 8.00 MB median): the median of log10 memory, so roughly half the
  // samples exceed the limit.
  const AlSimulator sim(dataset(), fast_options());
  const auto log_mem = alamr::data::log10_transform(dataset().memory);
  std::size_t above = 0;
  for (const double m : log_mem) {
    if (m >= sim.memory_limit_log10()) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / log_mem.size(), 0.5, 0.05);
  EXPECT_NEAR(std::pow(10.0, sim.memory_limit_log10()), sim.memory_limit_mb(),
              1e-9);
}

TEST(AlSimulator, ExplicitMemoryLimitHonored) {
  AlOptions options = fast_options();
  options.memory_limit_log10 = 0.3;
  const AlSimulator sim(dataset(), options);
  EXPECT_DOUBLE_EQ(sim.memory_limit_log10(), 0.3);
}

TEST(AlSimulator, TrajectoryBookkeeping) {
  const AlSimulator sim(dataset(), fast_options(10, 20));
  Rng rng(1);
  const TrajectoryResult traj = sim.run(RandUniform(), rng);

  EXPECT_EQ(traj.strategy_name, "RandUniform");
  EXPECT_EQ(traj.iterations.size(), 20u);
  EXPECT_FALSE(traj.early_stopped);

  // Selected rows are distinct, come from the Active partition, and the
  // iteration indices are sequential.
  std::set<std::size_t> selected;
  const std::set<std::size_t> active(traj.partition.active.begin(),
                                     traj.partition.active.end());
  double cc = 0.0;
  for (std::size_t i = 0; i < traj.iterations.size(); ++i) {
    const IterationRecord& rec = traj.iterations[i];
    EXPECT_EQ(rec.iteration, i);
    EXPECT_TRUE(active.contains(rec.dataset_row));
    EXPECT_TRUE(selected.insert(rec.dataset_row).second) << "row selected twice";
    EXPECT_EQ(rec.candidates_before, traj.partition.active.size() - i);
    EXPECT_DOUBLE_EQ(rec.actual_cost, dataset().cost[rec.dataset_row]);
    EXPECT_DOUBLE_EQ(rec.actual_memory, dataset().memory[rec.dataset_row]);
    cc += rec.actual_cost;
    EXPECT_NEAR(rec.cumulative_cost, cc, 1e-12);
  }
}

TEST(AlSimulator, CumulativeRegretMatchesDefinition) {
  AlOptions options = fast_options(10, 25);
  // Put the limit low enough that violations actually occur.
  const auto log_mem = alamr::data::log10_transform(dataset().memory);
  std::vector<double> sorted(log_mem);
  std::sort(sorted.begin(), sorted.end());
  options.memory_limit_log10 = sorted[sorted.size() / 2];  // median

  const AlSimulator sim(dataset(), options);
  Rng rng(3);
  const TrajectoryResult traj = sim.run(RandUniform(), rng);
  double cr = 0.0;
  for (const IterationRecord& rec : traj.iterations) {
    if (rec.actual_memory >= traj.memory_limit_mb) cr += rec.actual_cost;
    EXPECT_NEAR(rec.cumulative_regret, cr, 1e-12);
  }
  EXPECT_GT(cr, 0.0);  // median limit: half the candidates violate
}

TEST(AlSimulator, RmseRecordedAndFiniteAndPositivePredictions) {
  const AlSimulator sim(dataset(), fast_options(15, 10));
  Rng rng(4);
  const TrajectoryResult traj = sim.run(MaxSigma(), rng);
  EXPECT_GT(traj.initial_rmse_cost, 0.0);
  for (const IterationRecord& rec : traj.iterations) {
    EXPECT_TRUE(std::isfinite(rec.rmse_cost));
    EXPECT_TRUE(std::isfinite(rec.rmse_mem));
    EXPECT_GT(rec.rmse_cost, 0.0);
  }
}

TEST(AlSimulator, LearningReducesCostRmseForUncertaintySampling) {
  // After enough uncertainty-driven samples the model should beat the
  // initial fit on test RMSE (the basic premise of AL).
  const AlSimulator sim(dataset(), fast_options(10, 40));
  Rng rng(5);
  const TrajectoryResult traj = sim.run(MaxSigma(), rng);
  EXPECT_LT(traj.iterations.back().rmse_cost, traj.initial_rmse_cost);
}

TEST(AlSimulator, RgmaStopsEarlyWhenNothingSafe) {
  AlOptions options = fast_options(10, 0);  // run to exhaustion
  // Limit below every sample's memory: no safe candidate ever exists.
  options.memory_limit_log10 = -10.0;
  const AlSimulator sim(dataset(), options);
  Rng rng(6);
  const TrajectoryResult traj =
      sim.run(Rgma(options.memory_limit_log10), rng);
  EXPECT_TRUE(traj.early_stopped);
  EXPECT_TRUE(traj.iterations.empty());
}

TEST(AlSimulator, RunToExhaustionConsumesAllActives) {
  AlOptions options = fast_options(10, 0);
  const auto small = alamr::testing::synthetic_amr_dataset(70, 9);
  AlOptions o2 = options;
  o2.n_test = 30;
  o2.n_init = 10;
  const AlSimulator sim(small, o2);
  Rng rng(7);
  const TrajectoryResult traj = sim.run(RandUniform(), rng);
  EXPECT_EQ(traj.iterations.size(), 30u);  // 70 - 30 test - 10 init
}

TEST(AlSimulator, DeterministicGivenSeed) {
  const AlSimulator sim(dataset(), fast_options(10, 8));
  const auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    const TrajectoryResult traj = sim.run(RandGoodness(), rng);
    std::vector<std::size_t> rows;
    for (const auto& rec : traj.iterations) rows.push_back(rec.dataset_row);
    return rows;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(AlSimulator, FixedPartitionIsolatesStrategyRandomness) {
  const AlSimulator sim(dataset(), fast_options(10, 8));
  Rng setup(21);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  Rng r1(1);
  Rng r2(1);
  const auto a = sim.run_with_partition(MinPred(), partition, r1);
  const auto b = sim.run_with_partition(MinPred(), partition, r2);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].dataset_row, b.iterations[i].dataset_row);
  }
}

TEST(AlSimulator, MinPredSelectsCheapSamples) {
  // MinPred's cumulative cost must be far below RandUniform's on the same
  // partition (paper Fig. 2's central observation).
  const AlSimulator sim(dataset(), fast_options(15, 20));
  Rng setup(31);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  Rng r1(2);
  Rng r2(2);
  const auto greedy = sim.run_with_partition(MinPred(), partition, r1);
  const auto uniform = sim.run_with_partition(RandUniform(), partition, r2);
  EXPECT_LT(greedy.iterations.back().cumulative_cost,
            0.5 * uniform.iterations.back().cumulative_cost);
}

TEST(AlSimulator, RmseStrideCarriesLastValue) {
  AlOptions options = fast_options(10, 9);
  options.rmse_stride = 3;
  const AlSimulator sim(dataset(), options);
  Rng rng(8);
  const TrajectoryResult traj = sim.run(RandUniform(), rng);
  // Within a stride the recorded RMSE is constant.
  EXPECT_DOUBLE_EQ(traj.iterations[1].rmse_cost, traj.iterations[0].rmse_cost);
  EXPECT_DOUBLE_EQ(traj.iterations[2].rmse_cost, traj.iterations[0].rmse_cost);
}

TEST(AlSimulator, RmseStrideFinalRecordIsFreshlyEvaluated) {
  // RMSE evaluation draws nothing from the rng, so a strided run selects
  // the exact same rows as a dense (stride=1) run on the same partition —
  // the dense run's records are the ground truth for what "fresh" means.
  AlOptions dense_options = fast_options(10, 10);
  AlOptions strided_options = dense_options;
  strided_options.rmse_stride = 4;  // budget 10 is NOT a multiple of 4

  const AlSimulator dense_sim(dataset(), dense_options);
  const AlSimulator strided_sim(dataset(), strided_options);
  Rng setup(51);
  const auto partition = alamr::data::make_partition(
      dataset().size(), dense_options.n_test, dense_options.n_init, setup);
  Rng r1(9);
  Rng r2(9);
  const auto dense = dense_sim.run_with_partition(RandUniform(), partition, r1);
  const auto strided =
      strided_sim.run_with_partition(RandUniform(), partition, r2);
  ASSERT_EQ(dense.iterations.size(), 10u);
  ASSERT_EQ(strided.iterations.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(strided.iterations[i].dataset_row, dense.iterations[i].dataset_row);
  }

  // Evaluated iterations (0, 4, 8) and the final one (9) match the dense
  // run bit-for-bit; the final record is fresh even though 9 % 4 != 0.
  for (const std::size_t i : {0u, 4u, 8u, 9u}) {
    EXPECT_DOUBLE_EQ(strided.iterations[i].rmse_cost,
                     dense.iterations[i].rmse_cost)
        << "iteration " << i;
    EXPECT_DOUBLE_EQ(strided.iterations[i].rmse_mem,
                     dense.iterations[i].rmse_mem)
        << "iteration " << i;
    EXPECT_DOUBLE_EQ(strided.iterations[i].rmse_cost_weighted,
                     dense.iterations[i].rmse_cost_weighted)
        << "iteration " << i;
  }
  // In-between iterations carry the previous evaluated value instead.
  for (const std::size_t i : {1u, 2u, 3u}) {
    EXPECT_DOUBLE_EQ(strided.iterations[i].rmse_cost,
                     strided.iterations[0].rmse_cost);
  }
  for (const std::size_t i : {5u, 6u, 7u}) {
    EXPECT_DOUBLE_EQ(strided.iterations[i].rmse_cost,
                     strided.iterations[4].rmse_cost);
  }
  // The carried values genuinely differ from a fresh evaluation (if they
  // did not, the stride would be untestable on this configuration).
  EXPECT_NE(strided.iterations[3].rmse_cost, dense.iterations[3].rmse_cost);
}

TEST(AlSimulator, RmseStrideFreshFinalOnEarlyStopToo) {
  // RGMA exhaustion ends the trajectory off the stride grid; the last
  // record must still be re-evaluated, not left carrying a stale value.
  // n_init = 20 gives a memory model accurate enough that RGMA's filter
  // engages mid-run instead of at iteration 0 or never.
  AlOptions dense_options = fast_options(20, 0);  // run until nothing is safe
  const auto log_mem = alamr::data::log10_transform(dataset().memory);
  std::vector<double> sorted(log_mem);
  std::sort(sorted.begin(), sorted.end());
  dense_options.memory_limit_log10 = sorted[(3 * sorted.size()) / 5];
  AlOptions strided_options = dense_options;
  strided_options.rmse_stride = 7;

  const AlSimulator dense_sim(dataset(), dense_options);
  const AlSimulator strided_sim(dataset(), strided_options);
  Rng setup(52);
  const auto partition = alamr::data::make_partition(
      dataset().size(), dense_options.n_test, dense_options.n_init, setup);
  const Rgma rgma(dense_options.memory_limit_log10);
  Rng r1(10);
  Rng r2(10);
  const auto dense = dense_sim.run_with_partition(rgma, partition, r1);
  const auto strided = strided_sim.run_with_partition(rgma, partition, r2);
  ASSERT_TRUE(strided.early_stopped);
  ASSERT_EQ(strided.iterations.size(), dense.iterations.size());
  ASSERT_FALSE(strided.iterations.empty());
  EXPECT_DOUBLE_EQ(strided.iterations.back().rmse_cost,
                   dense.iterations.back().rmse_cost);
  EXPECT_DOUBLE_EQ(strided.iterations.back().rmse_mem,
                   dense.iterations.back().rmse_mem);
  EXPECT_DOUBLE_EQ(strided.iterations.back().rmse_cost_weighted,
                   dense.iterations.back().rmse_cost_weighted);
}

TEST(AlSimulator, StopReasonsAreReported) {
  // Iteration budget.
  {
    const AlSimulator sim(dataset(), fast_options(10, 5));
    Rng rng(41);
    const auto traj = sim.run(RandUniform(), rng);
    EXPECT_EQ(traj.stop_reason, StopReason::kIterationBudget);
    EXPECT_FALSE(traj.early_stopped);
  }
  // Active exhausted.
  {
    const auto small = alamr::testing::synthetic_amr_dataset(60, 3);
    AlOptions options = fast_options(10, 0);
    options.n_test = 30;
    const AlSimulator sim(small, options);
    Rng rng(42);
    const auto traj = sim.run(RandUniform(), rng);
    EXPECT_EQ(traj.stop_reason, StopReason::kActiveExhausted);
  }
  // RGMA exhaustion.
  {
    AlOptions options = fast_options(10, 0);
    options.memory_limit_log10 = -10.0;
    const AlSimulator sim(dataset(), options);
    Rng rng(43);
    const auto traj = sim.run(Rgma(-10.0), rng);
    EXPECT_EQ(traj.stop_reason, StopReason::kNoSafeCandidates);
    EXPECT_TRUE(traj.early_stopped);
  }
  EXPECT_FALSE(to_string(StopReason::kStabilized).empty());
}

TEST(AlSimulator, StabilizingStopRuleFires) {
  AlOptions options = fast_options(30, 0);  // plenty of data, run long
  options.stopping.enabled = true;
  options.stopping.tolerance = 0.5;  // generous: stabilizes quickly
  options.stopping.patience = 3;
  options.stopping.min_iterations = 5;
  const AlSimulator sim(dataset(), options);
  Rng rng(44);
  const auto traj = sim.run(RandUniform(), rng);
  EXPECT_EQ(traj.stop_reason, StopReason::kStabilized);
  EXPECT_TRUE(traj.early_stopped);
  EXPECT_GE(traj.iterations.size(), options.stopping.min_iterations);
  EXPECT_LT(traj.iterations.size(), sim.dataset().size());
}

TEST(AlSimulator, StabilizingStopRespectsMinIterations) {
  AlOptions options = fast_options(30, 0);
  options.stopping.enabled = true;
  options.stopping.tolerance = 1e9;  // every iteration counts as stable
  options.stopping.patience = 1;
  options.stopping.min_iterations = 12;
  const AlSimulator sim(dataset(), options);
  Rng rng(45);
  const auto traj = sim.run(RandUniform(), rng);
  EXPECT_EQ(traj.iterations.size(), 12u);
  EXPECT_EQ(traj.stop_reason, StopReason::kStabilized);
}

TEST(AlSimulator, Log2FeatureTransformRunsAndScales) {
  AlOptions options = fast_options(10, 6);
  // p, mx and maxlevel are exponential-ish axes; transform the first two.
  options.feature_transforms = {
      alamr::data::ColumnTransform::kLog2, alamr::data::ColumnTransform::kLog2,
      alamr::data::ColumnTransform::kIdentity, alamr::data::ColumnTransform::kIdentity,
      alamr::data::ColumnTransform::kIdentity};
  const AlSimulator sim(dataset(), options);
  Rng rng(46);
  const auto traj = sim.run(RandGoodness(), rng);
  EXPECT_EQ(traj.iterations.size(), 6u);
  EXPECT_TRUE(std::isfinite(traj.iterations.back().rmse_cost));
}

TEST(AlSimulator, FeatureTransformChangesSelectionGeometry) {
  // The transform changes candidate distances, so trajectories generally
  // differ on the same partition with the same strategy seed.
  AlOptions plain = fast_options(10, 10);
  AlOptions logp = plain;
  logp.feature_transforms = {
      alamr::data::ColumnTransform::kLog2, alamr::data::ColumnTransform::kIdentity,
      alamr::data::ColumnTransform::kIdentity, alamr::data::ColumnTransform::kIdentity,
      alamr::data::ColumnTransform::kIdentity};
  const AlSimulator sim_plain(dataset(), plain);
  const AlSimulator sim_logp(dataset(), logp);
  Rng setup(47);
  const auto partition = alamr::data::make_partition(
      dataset().size(), plain.n_test, plain.n_init, setup);
  Rng r1(1);
  Rng r2(1);
  const auto a = sim_plain.run_with_partition(MaxSigma(), partition, r1);
  const auto b = sim_logp.run_with_partition(MaxSigma(), partition, r2);
  std::vector<std::size_t> rows_a;
  std::vector<std::size_t> rows_b;
  for (const auto& rec : a.iterations) rows_a.push_back(rec.dataset_row);
  for (const auto& rec : b.iterations) rows_b.push_back(rec.dataset_row);
  EXPECT_NE(rows_a, rows_b);
}

TEST(AlSimulator, WeightedRmseRecordedAndDiffersFromUniform) {
  const AlSimulator sim(dataset(), fast_options(15, 8));
  Rng rng(61);
  const auto traj = sim.run(RandUniform(), rng);
  for (const auto& rec : traj.iterations) {
    EXPECT_GT(rec.rmse_cost_weighted, 0.0);
    EXPECT_TRUE(std::isfinite(rec.rmse_cost_weighted));
    // Cost weighting emphasizes the expensive tail, so it must not
    // coincide with the uniform metric on this long-tailed dataset.
    EXPECT_NE(rec.rmse_cost_weighted, rec.rmse_cost);
  }
  const auto series = extract_series(traj, Metric::kRmseCostWeighted);
  ASSERT_EQ(series.size(), traj.iterations.size());
  EXPECT_DOUBLE_EQ(series.back(), traj.iterations.back().rmse_cost_weighted);
}

TEST(AlSimulatorBatched, BatchSizeOneMatchesSequentialStructure) {
  const AlSimulator sim(dataset(), fast_options(10, 12));
  Rng setup(51);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  Rng rng(9);
  const auto traj = sim.run_batched(RandGoodness(), 1, partition, rng);
  EXPECT_EQ(traj.iterations.size(), 12u);
  EXPECT_NE(traj.strategy_name.find("batch=1"), std::string::npos);
  // One-at-a-time batches retrain after every selection, so candidate
  // counts decrease by exactly one per record.
  for (std::size_t i = 0; i < traj.iterations.size(); ++i) {
    EXPECT_EQ(traj.iterations[i].candidates_before,
              partition.active.size() - i);
  }
}

TEST(AlSimulatorBatched, RoundsShareRmseAndNoDuplicates) {
  const AlSimulator sim(dataset(), fast_options(10, 12));
  Rng setup(52);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  Rng rng(10);
  const auto traj = sim.run_batched(RandGoodness(), 4, partition, rng);
  ASSERT_EQ(traj.iterations.size(), 12u);
  std::set<std::size_t> rows;
  for (const auto& rec : traj.iterations) {
    EXPECT_TRUE(rows.insert(rec.dataset_row).second);
  }
  // Records within one round carry the same post-round RMSE.
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t k = 1; k < 4; ++k) {
      EXPECT_DOUBLE_EQ(traj.iterations[4 * r].rmse_cost,
                       traj.iterations[4 * r + k].rmse_cost);
    }
  }
  // Candidate count is frozen within a round and drops by 4 across rounds.
  EXPECT_EQ(traj.iterations[0].candidates_before,
            traj.iterations[3].candidates_before);
  EXPECT_EQ(traj.iterations[4].candidates_before,
            traj.iterations[0].candidates_before - 4);
}

TEST(AlSimulatorBatched, RgmaEarlyStopPropagates) {
  AlOptions options = fast_options(10, 0);
  options.memory_limit_log10 = -10.0;
  const AlSimulator sim(dataset(), options);
  Rng setup(53);
  const auto partition = alamr::data::make_partition(
      dataset().size(), options.n_test, options.n_init, setup);
  Rng rng(11);
  const auto traj = sim.run_batched(Rgma(-10.0), 4, partition, rng);
  EXPECT_TRUE(traj.early_stopped);
  EXPECT_EQ(traj.stop_reason, StopReason::kNoSafeCandidates);
  EXPECT_TRUE(traj.iterations.empty());
}

TEST(AlSimulatorBatched, InvalidBatchSizeThrows) {
  const AlSimulator sim(dataset(), fast_options(10, 5));
  Rng setup(54);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  Rng rng(12);
  EXPECT_THROW(sim.run_batched(RandUniform(), 0, partition, rng),
               std::invalid_argument);
}

TEST(AlSimulatorBatched, CumulativeMetricsConsistent) {
  const AlSimulator sim(dataset(), fast_options(10, 10));
  Rng setup(55);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  Rng rng(13);
  const auto traj = sim.run_batched(MaxSigma(), 5, partition, rng);
  double cc = 0.0;
  for (const auto& rec : traj.iterations) {
    cc += rec.actual_cost;
    EXPECT_NEAR(rec.cumulative_cost, cc, 1e-12);
  }
}

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(alamr::linalg::simd::Level level)
      : saved_(alamr::linalg::simd::active_level()) {
    EXPECT_TRUE(alamr::linalg::simd::set_level(level));
  }
  ~ScopedSimdLevel() { alamr::linalg::simd::set_level(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  alamr::linalg::simd::Level saved_;
};

// FNV-1a over the bit patterns of every record field plus the trajectory's
// initial RMSEs, stop reason and censor totals.
std::uint64_t records_hash(const TrajectoryResult& traj) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto add = [&h](auto value) {
    unsigned char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  add(traj.initial_rmse_cost);
  add(traj.initial_rmse_mem);
  add(static_cast<std::uint64_t>(traj.stop_reason));
  add(static_cast<std::uint64_t>(traj.censored_count));
  add(traj.censored_cost);
  for (const IterationRecord& r : traj.iterations) {
    add(static_cast<std::uint64_t>(r.iteration));
    add(static_cast<std::uint64_t>(r.dataset_row));
    add(static_cast<std::uint64_t>(r.candidates_before));
    add(static_cast<std::uint64_t>(r.censor));
    for (const double v :
         {r.actual_cost, r.actual_memory, r.predicted_cost_log10,
          r.predicted_cost_sigma, r.predicted_mem_log10,
          r.predicted_mem_sigma, r.rmse_cost, r.rmse_mem,
          r.rmse_cost_weighted, r.cumulative_cost, r.cumulative_regret}) {
      add(v);
    }
  }
  return h;
}

// Pins computed at the scalar tier by the hand-written batch loop that
// refit every round with a full fit() and swept the pool with predict();
// the round-size fold of the sequential loop (extend at fixed theta, refit
// on the round's last point, one panel sweep per round) reproduces them.
TEST(AlSimulatorBatched, RecordsMatchPins) {
  const ScopedSimdLevel scalar(alamr::linalg::simd::Level::kScalar);
  const AlSimulator sim(dataset(), fast_options(10, 16));
  Rng setup(56);
  const auto partition = alamr::data::make_partition(
      dataset().size(), sim.options().n_test, sim.options().n_init, setup);
  struct Pin {
    std::size_t q;
    std::uint64_t goodness;
    std::uint64_t max_sigma;
  };
  const Pin pins[] = {
      {1, 0x079cbc75a28abd41ULL, 0x60495c955b615a6aULL},
      {2, 0xc557f0ac42a83f25ULL, 0x3d680de09d6260cbULL},
      {4, 0x822a5062c9e7ec2fULL, 0x760ff003267b28c9ULL},
      {8, 0xa1e6e2b656c47f40ULL, 0x95967f67bcecd085ULL},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE("q=" + std::to_string(pin.q));
    Rng rng_goodness(14);
    const auto goodness =
        sim.run_batched(RandGoodness(), pin.q, partition, rng_goodness);
    Rng rng_sigma(15);
    const auto sigma = sim.run_batched(MaxSigma(), pin.q, partition, rng_sigma);
    ASSERT_EQ(goodness.iterations.size(), 16u);
    ASSERT_EQ(sigma.iterations.size(), 16u);
    EXPECT_EQ(records_hash(goodness), pin.goodness)
        << std::hex << records_hash(goodness);
    EXPECT_EQ(records_hash(sigma), pin.max_sigma)
        << std::hex << records_hash(sigma);
  }
}

TEST(AlSimulatorBatched, BatchSizeOneIsTheSequentialLoopBitForBit) {
  AlOptions censoring = fast_options(10, 14);
  censoring.failures.failure_aware = true;
  censoring.failures.policy = CensorPolicy::kPenalizedLabel;
  AlOptions strided = fast_options(10, 14);
  strided.rmse_stride = 4;
  for (const AlOptions& options : {fast_options(10, 14), censoring, strided}) {
    const AlSimulator sim(dataset(), options);
    Rng setup(57);
    const auto partition = alamr::data::make_partition(
        dataset().size(), options.n_test, options.n_init, setup);
    const std::unique_ptr<Strategy> strategies[] = {
        std::make_unique<RandGoodness>(), std::make_unique<MaxSigma>()};
    for (const std::unique_ptr<Strategy>& strategy : strategies) {
      Rng rng_seq(16);
      const auto sequential = sim.run_with_partition(*strategy, partition, rng_seq);
      Rng rng_batch(16);
      const auto batched = sim.run_batched(*strategy, 1, partition, rng_batch);
      ASSERT_EQ(sequential.iterations.size(), batched.iterations.size());
      EXPECT_EQ(records_hash(sequential), records_hash(batched));
      EXPECT_EQ(rng_seq.save_state().words, rng_batch.save_state().words);
    }
  }
}

TEST(AlSimulatorBatched, FailureModelCensorsOverLimitPicks) {
  AlOptions options = fast_options(10, 16);
  options.failures.failure_aware = true;
  const AlSimulator sim(dataset(), options);
  Rng setup(58);
  const auto partition = alamr::data::make_partition(
      dataset().size(), options.n_test, options.n_init, setup);
  Rng rng(17);
  const auto traj = sim.run_batched(RandUniform(), 4, partition, rng);
  ASSERT_EQ(traj.iterations.size(), 16u);
  std::size_t censored = 0;
  double censored_cost = 0.0;
  for (const IterationRecord& r : traj.iterations) {
    const bool over = r.actual_memory > sim.memory_limit_mb();
    EXPECT_EQ(r.censor, over ? CensorKind::kOverLimit : CensorKind::kNone);
    if (over) {
      ++censored;
      censored_cost += r.actual_cost;
    }
  }
  EXPECT_GT(censored, 0u);
  EXPECT_EQ(traj.censored_count, censored);
  EXPECT_DOUBLE_EQ(traj.censored_cost, censored_cost);
}

TEST(AlSimulatorBatched, FaultSitesAreConsultedOncePerPick) {
  AlOptions options = fast_options(10, 12);
  options.failures.plan = faults::FaultPlan::parse("acquire.oom:hits=1|6");
  const AlSimulator sim(dataset(), options);
  Rng setup(59);
  const auto partition = alamr::data::make_partition(
      dataset().size(), options.n_test, options.n_init, setup);
  Rng rng(18);
  const auto traj = sim.run_batched(RandGoodness(), 4, partition, rng);
  ASSERT_EQ(traj.iterations.size(), 12u);
  for (std::size_t i = 0; i < traj.iterations.size(); ++i) {
    EXPECT_EQ(traj.iterations[i].censor,
              i == 1 || i == 6 ? CensorKind::kOom : CensorKind::kNone)
        << "pick " << i;
  }
  EXPECT_EQ(traj.censored_count, 2u);
}

// Kernel ablation plumbing: every kernel choice must run end to end.
class SimulatorKernelSweep : public ::testing::TestWithParam<KernelChoice> {};

TEST_P(SimulatorKernelSweep, RunsAndRecords) {
  AlOptions options = fast_options(10, 5);
  options.kernel = GetParam();
  const AlSimulator sim(dataset(), options);
  Rng rng(9);
  const TrajectoryResult traj = sim.run(RandGoodness(), rng);
  EXPECT_EQ(traj.iterations.size(), 5u);
  EXPECT_TRUE(std::isfinite(traj.iterations.back().rmse_cost));
}

INSTANTIATE_TEST_SUITE_P(Kernels, SimulatorKernelSweep,
                         ::testing::Values(KernelChoice::kRbf,
                                           KernelChoice::kRbfArd,
                                           KernelChoice::kMatern32,
                                           KernelChoice::kMatern52),
                         [](const ::testing::TestParamInfo<KernelChoice>& info) {
                           switch (info.param) {
                             case KernelChoice::kRbf: return "rbf";
                             case KernelChoice::kRbfArd: return "ard";
                             case KernelChoice::kMatern32: return "matern32";
                             case KernelChoice::kMatern52: return "matern52";
                           }
                           return "unknown";
                         });

// --- Incremental refit and thread-count invariance ------------------------

void expect_identical_records(const TrajectoryResult& a,
                              const TrajectoryResult& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const IterationRecord& ra = a.iterations[i];
    const IterationRecord& rb = b.iterations[i];
    EXPECT_EQ(ra.dataset_row, rb.dataset_row) << "iteration " << i;
    EXPECT_EQ(ra.candidates_before, rb.candidates_before);
    EXPECT_DOUBLE_EQ(ra.actual_cost, rb.actual_cost);
    EXPECT_DOUBLE_EQ(ra.actual_memory, rb.actual_memory);
    EXPECT_DOUBLE_EQ(ra.predicted_cost_log10, rb.predicted_cost_log10);
    EXPECT_DOUBLE_EQ(ra.predicted_cost_sigma, rb.predicted_cost_sigma);
    EXPECT_DOUBLE_EQ(ra.predicted_mem_log10, rb.predicted_mem_log10);
    EXPECT_DOUBLE_EQ(ra.predicted_mem_sigma, rb.predicted_mem_sigma);
    EXPECT_DOUBLE_EQ(ra.rmse_cost, rb.rmse_cost);
    EXPECT_DOUBLE_EQ(ra.rmse_mem, rb.rmse_mem);
    EXPECT_DOUBLE_EQ(ra.rmse_cost_weighted, rb.rmse_cost_weighted);
    EXPECT_DOUBLE_EQ(ra.cumulative_cost, rb.cumulative_cost);
    EXPECT_DOUBLE_EQ(ra.cumulative_regret, rb.cumulative_regret);
  }
}

TEST(AlSimulatorParallel, ThreadCountDoesNotChangeTrajectory) {
  // The pool parallelizes predict-variance solves and multistart restarts
  // inside the trajectory; records must be bit-identical for 1 vs 4 lanes.
  const AlSimulator sim(dataset(), fast_options(10, 8));
  const auto run = [&] {
    Rng rng(23);
    return sim.run(Rgma(sim.memory_limit_log10()), rng);
  };
  alamr::core::set_global_parallel_threads(1);
  const TrajectoryResult serial = run();
  alamr::core::set_global_parallel_threads(4);
  const TrajectoryResult threaded = run();
  alamr::core::set_global_parallel_threads(0);  // env/hardware default
  expect_identical_records(serial, threaded);
}

TEST(AlSimulatorParallel, BatchThreadCountDoesNotChangeResults) {
  const AlSimulator sim(dataset(), fast_options(10, 5));
  const Rgma rgma(sim.memory_limit_log10());
  BatchOptions batch;
  batch.trajectories = 3;
  batch.seed = 99;
  batch.threads = 1;
  const auto serial = run_batch(sim, rgma, batch);
  batch.threads = 4;
  const auto threaded = run_batch(sim, rgma, batch);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    expect_identical_records(serial[t], threaded[t]);
  }
}

}  // namespace
