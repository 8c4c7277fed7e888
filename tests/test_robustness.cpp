// Failure-injection and pathological-input tests: the library must stay
// numerically sane (no NaNs, no crashes, meaningful exceptions) when fed
// degenerate data — constant responses, extreme outliers, duplicated
// configurations, near-empty partitions — and, with an armed fault plan,
// must censor/recover/checkpoint deterministically (DESIGN.md §9).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "alamr/core/batch.hpp"
#include "alamr/core/checkpoint.hpp"
#include "alamr/core/export.hpp"
#include "alamr/core/faults.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/data/partition.hpp"
#include "alamr/gp/gpr.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
namespace faults = alamr::core::faults;

/// Small, fast AL configuration shared by the failure-model tests.
core::AlOptions small_al_options(std::size_t max_iterations) {
  core::AlOptions options;
  options.n_test = 30;
  options.n_init = 12;
  options.max_iterations = max_iterations;
  options.initial_fit.restarts = 0;
  options.initial_fit.max_opt_iterations = 10;
  options.refit.max_opt_iterations = 3;
  return options;
}

data::Partition small_partition(const data::Dataset& dataset,
                                const core::AlOptions& options,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  return data::make_partition(dataset.size(), options.n_test, options.n_init,
                              rng);
}

TEST(Robustness, GprWithConstantTargets) {
  // Zero-variance targets: the fit must not blow up, predictions equal
  // the constant, and stddev stays finite.
  stats::Rng rng(1);
  linalg::Matrix x(12, 2);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    x(i, 1) = rng.uniform(0.0, 1.0);
  }
  const std::vector<double> y(12, 3.25);
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), {});
  gpr.fit(x, y, rng);
  const gp::Prediction pred = gpr.predict(x);
  for (std::size_t i = 0; i < pred.mean.size(); ++i) {
    EXPECT_NEAR(pred.mean[i], 3.25, 1e-3);
    EXPECT_TRUE(std::isfinite(pred.stddev[i]));
  }
}

TEST(Robustness, GprWithExtremeOutlier) {
  stats::Rng rng(2);
  linalg::Matrix x(15, 1);
  std::vector<double> y(15);
  for (std::size_t i = 0; i < 15; ++i) {
    x(i, 0) = static_cast<double>(i) / 14.0;
    y[i] = std::sin(4.0 * x(i, 0));
  }
  y[7] = 1e4;  // catastrophic measurement
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), {});
  EXPECT_NO_THROW(gpr.fit(x, y, rng));
  const auto mean = gpr.predict_mean(x);
  for (const double m : mean) EXPECT_TRUE(std::isfinite(m));
}

TEST(Robustness, GprWithManyDuplicatedRows) {
  // Replicate-heavy design matrices make K singular without jitter.
  stats::Rng rng(3);
  linalg::Matrix x(20, 2);
  std::vector<double> y(20);
  for (std::size_t i = 0; i < 20; ++i) {
    // Only 4 distinct locations, 5 copies each, noisy targets.
    x(i, 0) = static_cast<double>(i % 4) / 3.0;
    x(i, 1) = 0.5;
    y[i] = std::cos(x(i, 0)) + rng.normal(0.0, 0.01);
  }
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), {});
  EXPECT_NO_THROW(gpr.fit(x, y, rng));
  const gp::Prediction pred = gpr.predict(x);
  for (const double s : pred.stddev) {
    EXPECT_TRUE(std::isfinite(s));
    EXPECT_GE(s, 0.0);
  }
}

TEST(Robustness, SimulatorWithNearConstantMemoryResponses) {
  // If memory barely varies, the default limit rule still produces a
  // usable threshold and RGMA does not crash.
  auto dataset = alamr::testing::synthetic_amr_dataset(80, 5);
  for (double& m : dataset.memory) m = 1.0 + 1e-9 * m;
  core::AlOptions options;
  options.n_test = 30;
  options.n_init = 10;
  options.max_iterations = 5;
  options.initial_fit.restarts = 0;
  options.refit.max_opt_iterations = 3;
  const core::AlSimulator sim(dataset, options);
  stats::Rng rng(6);
  const core::Rgma rgma(sim.memory_limit_log10());
  EXPECT_NO_THROW(sim.run(rgma, rng));
}

TEST(Robustness, SimulatorWithTinyActiveSet) {
  // n_active == 1: a single AL step, then exhaustion.
  auto dataset = alamr::testing::synthetic_amr_dataset(42, 7);
  core::AlOptions options;
  options.n_test = 31;
  options.n_init = 10;
  options.max_iterations = 0;
  options.initial_fit.restarts = 0;
  options.refit.max_opt_iterations = 3;
  const core::AlSimulator sim(dataset, options);
  stats::Rng rng(8);
  const auto traj = sim.run(core::RandGoodness(), rng);
  EXPECT_EQ(traj.iterations.size(), 1u);
  EXPECT_EQ(traj.stop_reason, core::StopReason::kActiveExhausted);
}

TEST(Robustness, StrategiesHandleZeroSigmaEverywhere) {
  // Degenerate predictions (all sigma = 0) must not divide by zero.
  linalg::Matrix x(3, 2, 0.5);
  const std::vector<double> mu{0.2, 0.1, 0.3};
  const std::vector<double> zeros{0.0, 0.0, 0.0};
  const core::CandidateView view{x, mu, zeros, mu, zeros};
  stats::Rng rng(9);
  EXPECT_NO_THROW(core::RandGoodness().select(view, rng));
  EXPECT_NO_THROW(core::MaxSigma().select(view, rng));
  EXPECT_NO_THROW(core::ExpectedImprovement().select(view, rng));
  EXPECT_EQ(core::MinPred().select(view, rng), 1u);
}

// --- Fault injection determinism -----------------------------------------

TEST(Faults, SameSeedAndPlanGiveIdenticalTrajectories) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(100, 13);
  core::AlOptions options = small_al_options(12);
  options.failures.plan = faults::FaultPlan::parse(
      "seed=19;acquire.oom:p=0.2;data.nan_row:p=0.1;acquire.timeout:hits=1");
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 21);

  stats::Rng rng_a(7);
  const auto a = sim.run_with_partition(core::RandGoodness(), partition, rng_a);
  stats::Rng rng_b(7);
  const auto b = sim.run_with_partition(core::RandGoodness(), partition, rng_b);

  EXPECT_EQ(core::trajectory_to_csv(a), core::trajectory_to_csv(b));
  // hits=1 guarantees at least the pass-1 timeout censoring fired.
  EXPECT_GE(a.censored_count, 1u);
  EXPECT_GT(a.censored_cost, 0.0);
  EXPECT_EQ(a.censored_count, b.censored_count);
  EXPECT_EQ(a.censored_cost, b.censored_cost);
}

TEST(Faults, ArmedButNeverFiringPlanIsByteIdenticalToNoPlan) {
  // An injector that is installed and consulted but never fires must have
  // ZERO effect on the trajectory bytes — the golden-preservation property
  // the disarmed fire() path promises, exercised through the armed path.
  // Under the check.sh faults leg the "no plan" baseline inherits the
  // environment plan and genuinely censors, so the comparison is void.
  if (std::getenv("ALAMR_FAULT_PLAN") != nullptr) GTEST_SKIP();
  const auto dataset = alamr::testing::synthetic_amr_dataset(100, 17);
  core::AlOptions plain = small_al_options(10);
  core::AlOptions armed = plain;
  armed.failures.plan = faults::FaultPlan::parse("acquire.oom:hits=999999");
  const core::AlSimulator sim_plain(dataset, plain);
  const core::AlSimulator sim_armed(dataset, armed);
  const data::Partition partition = small_partition(dataset, plain, 5);

  stats::Rng rng_a(3);
  const auto a =
      sim_plain.run_with_partition(core::RandGoodness(), partition, rng_a);
  stats::Rng rng_b(3);
  const auto b =
      sim_armed.run_with_partition(core::RandGoodness(), partition, rng_b);
  EXPECT_EQ(core::trajectory_to_csv(a), core::trajectory_to_csv(b));
  EXPECT_EQ(b.censored_count, 0u);
}

// --- Censored-acquisition accounting ---------------------------------------

TEST(Faults, CensoredAcquisitionBurnsCostIntoCcAndCr) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(100, 23);
  core::AlOptions options = small_al_options(4);
  options.failures.plan = faults::FaultPlan::parse("acquire.oom:hits=0");
  options.failures.policy = core::CensorPolicy::kDropCensored;
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 9);

  stats::Rng rng(11);
  const auto traj = sim.run_with_partition(core::RandGoodness(), partition, rng);
  ASSERT_EQ(traj.iterations.size(), 4u);  // censored pass consumed budget

  const auto& rec0 = traj.iterations[0];
  EXPECT_EQ(rec0.censor, core::CensorKind::kOom);
  // Full waste: the whole actual cost lands in CC and, because nothing
  // usable came back, in CR too.
  EXPECT_EQ(rec0.cumulative_cost, rec0.actual_cost);
  EXPECT_EQ(rec0.cumulative_regret, rec0.actual_cost);
  // Models unchanged => RMSE columns carry the post-init values.
  EXPECT_EQ(rec0.rmse_cost, traj.initial_rmse_cost);
  EXPECT_EQ(rec0.rmse_mem, traj.initial_rmse_mem);

  EXPECT_EQ(traj.censored_count, 1u);
  EXPECT_EQ(traj.censored_cost, rec0.actual_cost);
  EXPECT_EQ(traj.iterations[1].censor, core::CensorKind::kNone);

  // The censored CSV gains the censor columns; clean rows mark 0/none.
  const std::string csv = core::trajectory_to_csv(traj);
  EXPECT_NE(csv.find(",censored,censor_kind"), std::string::npos);
  EXPECT_NE(csv.find(",1,oom"), std::string::npos);
  EXPECT_NE(csv.find(",0,none"), std::string::npos);
}

TEST(Faults, RetryPolicyConsumesBudgetOnlyOnSuccess) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(100, 23);
  core::AlOptions options = small_al_options(4);
  options.failures.plan = faults::FaultPlan::parse("acquire.oom:hits=0");
  options.failures.policy = core::CensorPolicy::kRetryNextCandidate;
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 9);

  stats::Rng rng(11);
  const auto traj = sim.run_with_partition(core::RandGoodness(), partition, rng);
  // 1 censored pass (recorded, not budgeted) + 4 successful acquisitions.
  ASSERT_EQ(traj.iterations.size(), 5u);
  std::size_t censored = 0;
  for (const auto& rec : traj.iterations) {
    censored += rec.censor != core::CensorKind::kNone ? 1 : 0;
  }
  EXPECT_EQ(censored, 1u);
  EXPECT_EQ(traj.censored_count, 1u);
}

TEST(Faults, PenalizedLabelTrainsOnCensoredPoint) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(100, 29);
  core::AlOptions drop = small_al_options(6);
  drop.failures.plan = faults::FaultPlan::parse("acquire.oom:hits=2");
  drop.failures.policy = core::CensorPolicy::kDropCensored;
  core::AlOptions penalized = drop;
  penalized.failures.policy = core::CensorPolicy::kPenalizedLabel;

  const data::Partition partition = small_partition(dataset, drop, 31);
  const core::AlSimulator sim_drop(dataset, drop);
  const core::AlSimulator sim_pen(dataset, penalized);

  stats::Rng rng_a(13);
  const auto t_drop =
      sim_drop.run_with_partition(core::RandGoodness(), partition, rng_a);
  stats::Rng rng_b(13);
  const auto t_pen =
      sim_pen.run_with_partition(core::RandGoodness(), partition, rng_b);

  ASSERT_GE(t_drop.iterations.size(), 3u);
  ASSERT_GE(t_pen.iterations.size(), 3u);
  EXPECT_EQ(t_drop.iterations[2].censor, core::CensorKind::kOom);
  EXPECT_EQ(t_pen.iterations[2].censor, core::CensorKind::kOom);
  // Drop: models untouched, RMSE carried over bitwise from pass 1.
  EXPECT_EQ(t_drop.iterations[2].rmse_cost, t_drop.iterations[1].rmse_cost);
  // Penalized: the failure became a label, the models moved, and the
  // freshly evaluated RMSE reflects it.
  EXPECT_NE(t_pen.iterations[2].rmse_cost, t_pen.iterations[1].rmse_cost);
  // Both policies burn the cost identically (same partition, same rng up
  // to the censored pass => same picks so far).
  EXPECT_EQ(t_pen.iterations[2].cumulative_cost,
            t_drop.iterations[2].cumulative_cost);
}

TEST(Faults, FailureAwareCensorsRealOverLimitAcquisitions) {
  // With failure awareness on and a memory-blind strategy, acquisitions
  // whose TRUE memory exceeds L_mem crash: no label, full cost wasted.
  const auto dataset = alamr::testing::synthetic_amr_dataset(120, 37);
  core::AlOptions options = small_al_options(15);
  options.failures.failure_aware = true;
  options.failures.policy = core::CensorPolicy::kDropCensored;
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 41);

  stats::Rng rng(17);
  const auto traj = sim.run_with_partition(core::RandGoodness(), partition, rng);
  // L_mem is the median memory, so a memory-blind policy hits violators
  // with probability ~1/2 per pick; 15 picks make zero hits astronomically
  // unlikely (and the run is deterministic, so this cannot flake).
  EXPECT_GE(traj.censored_count, 1u);
  for (const auto& rec : traj.iterations) {
    if (rec.censor == core::CensorKind::kOverLimit) {
      EXPECT_GT(rec.actual_memory, traj.memory_limit_mb * 0.999);
    }
  }
}

// --- Recovery ladder --------------------------------------------------------

TEST(Faults, OptimizerDivergenceDegradesToNelderMead) {
  stats::Rng rng(19);
  linalg::Matrix x(14, 2);
  std::vector<double> y(14);
  for (std::size_t i = 0; i < 14; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    x(i, 1) = rng.uniform(0.0, 1.0);
    y[i] = std::sin(3.0 * x(i, 0)) + 0.5 * x(i, 1);
  }
  gp::GprOptions opts;
  opts.restarts = 0;
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), opts);

  core::trace::set_enabled(true);
  core::trace::TraceCollector collector;
  {
    const core::trace::ScopedCollector trace_scope(collector);
    // hits=0 poisons the single L-BFGS start; the Nelder-Mead rung's own
    // consult (hit 1) stays clean, so the ladder stops there.
    faults::FaultInjector injector(
        faults::FaultPlan::parse("opt.diverge:hits=0"));
    const faults::ScopedFaultInjector fault_scope(injector);
    gpr.fit(x, y, rng);
  }
  const auto report = collector.report();
  core::trace::set_enabled(false);
  EXPECT_GE(report.counter("gpr.opt_degrade_nm"), 1u);
  EXPECT_EQ(report.counter("gpr.opt_keep_previous"), 0u);
  ASSERT_TRUE(gpr.fitted());
  for (const double m : gpr.predict_mean(x)) EXPECT_TRUE(std::isfinite(m));
}

TEST(Faults, TotalOptimizerFailureKeepsPreviousHyperparameters) {
  stats::Rng rng(23);
  linalg::Matrix x(12, 1);
  std::vector<double> y(12);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = static_cast<double>(i) / 11.0;
    y[i] = std::cos(5.0 * x(i, 0));
  }
  gp::GprOptions opts;
  opts.restarts = 0;
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), opts);

  core::trace::set_enabled(true);
  core::trace::TraceCollector collector;
  {
    const core::trace::ScopedCollector trace_scope(collector);
    // p=1 vetoes the L-BFGS start AND the Nelder-Mead rung: the ladder
    // bottoms out at keep-previous-theta, and the posterior is still built
    // (at the kernel's current parameters) instead of throwing.
    faults::FaultInjector injector(faults::FaultPlan::parse("opt.diverge:p=1"));
    const faults::ScopedFaultInjector fault_scope(injector);
    gpr.fit(x, y, rng);
  }
  const auto report = collector.report();
  core::trace::set_enabled(false);
  EXPECT_GE(report.counter("gpr.opt_keep_previous"), 1u);
  ASSERT_TRUE(gpr.fitted());
  for (const double m : gpr.predict_mean(x)) EXPECT_TRUE(std::isfinite(m));
}

TEST(Faults, TrajectorySurvivesPersistentOptimizerDivergence) {
  // End-to-end: every refit's optimizer diverges for the whole trajectory;
  // the run must complete (hyperparameters frozen) rather than abort.
  const auto dataset = alamr::testing::synthetic_amr_dataset(90, 43);
  core::AlOptions options = small_al_options(6);
  options.trace = true;
  options.failures.plan = faults::FaultPlan::parse("opt.diverge:p=1");
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 3);
  stats::Rng rng(29);
  const auto traj = sim.run_with_partition(core::RandGoodness(), partition, rng);
  EXPECT_EQ(traj.iterations.size(), 6u);
  EXPECT_GE(traj.trace.counter("gpr.opt_keep_previous") +
                traj.trace.counter("gpr.opt_degrade_nm"),
            1u);
  for (const auto& rec : traj.iterations) {
    EXPECT_TRUE(std::isfinite(rec.rmse_cost));
  }
  core::trace::set_enabled(false);
}

// --- Checkpoint / kill / resume --------------------------------------------

std::filesystem::path temp_checkpoint(const char* name) {
  return std::filesystem::path(::testing::TempDir()) / name;
}

TEST(Checkpoint, ResumedRunIsByteIdenticalToUninterrupted) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(110, 47);
  const core::AlOptions options = small_al_options(14);
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 53);

  stats::Rng rng_full(31);
  const auto full =
      sim.run_with_partition(core::RandGoodness(), partition, rng_full);

  const std::filesystem::path path = temp_checkpoint("resume_plain.json");
  std::filesystem::remove(path);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 3;
  cfg.halt_after_iterations = 7;  // "kill" mid-trajectory
  stats::Rng rng_first(31);
  const auto first =
      sim.run_resumable(core::RandGoodness(), partition, rng_first, cfg);
  EXPECT_EQ(first.stop_reason, core::StopReason::kCheckpointHalt);
  EXPECT_EQ(first.iterations.size(), 7u);
  ASSERT_TRUE(std::filesystem::exists(path));

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  stats::Rng rng_second(31);
  const auto resumed =
      sim.run_resumable(core::RandGoodness(), partition, rng_second, cfg);
  EXPECT_EQ(core::trajectory_to_csv(resumed), core::trajectory_to_csv(full));
  EXPECT_EQ(resumed.stop_reason, full.stop_reason);
  // A completed trajectory retires its checkpoint file.
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Checkpoint, ResumeUnderFaultPlanRestoresInjectorCounters) {
  // The continuation must consult the fault schedule at the same hit
  // numbers the uninterrupted run would — censoring patterns included.
  const auto dataset = alamr::testing::synthetic_amr_dataset(110, 59);
  core::AlOptions options = small_al_options(14);
  options.failures.plan = faults::FaultPlan::parse(
      "seed=5;acquire.oom:p=0.15;data.nan_row:hits=3");
  options.failures.policy = core::CensorPolicy::kPenalizedLabel;
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 61);

  stats::Rng rng_full(37);
  const auto full =
      sim.run_with_partition(core::RandGoodness(), partition, rng_full);
  EXPECT_GE(full.censored_count, 1u);  // hits=3 guarantees one censoring

  const std::filesystem::path path = temp_checkpoint("resume_faulted.json");
  std::filesystem::remove(path);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 2;
  cfg.halt_after_iterations = 5;
  stats::Rng rng_first(37);
  (void)sim.run_resumable(core::RandGoodness(), partition, rng_first, cfg);
  ASSERT_TRUE(std::filesystem::exists(path));

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  stats::Rng rng_second(37);
  const auto resumed =
      sim.run_resumable(core::RandGoodness(), partition, rng_second, cfg);
  EXPECT_EQ(core::trajectory_to_csv(resumed), core::trajectory_to_csv(full));
  EXPECT_EQ(resumed.censored_count, full.censored_count);
  EXPECT_EQ(resumed.censored_cost, full.censored_cost);
}

TEST(Checkpoint, DoubleHaltThenResumeStillMatches) {
  // Two kills at different points before completing — state must thread
  // through multiple checkpoint generations unchanged.
  const auto dataset = alamr::testing::synthetic_amr_dataset(110, 67);
  const core::AlOptions options = small_al_options(12);
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 71);

  stats::Rng rng_full(41);
  const auto full =
      sim.run_with_partition(core::RandGoodness(), partition, rng_full);

  const std::filesystem::path path = temp_checkpoint("resume_double.json");
  std::filesystem::remove(path);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 4;
  cfg.halt_after_iterations = 4;
  stats::Rng rng_a(41);
  (void)sim.run_resumable(core::RandGoodness(), partition, rng_a, cfg);
  cfg.resume = true;
  cfg.halt_after_iterations = 3;
  stats::Rng rng_b(41);
  const auto mid =
      sim.run_resumable(core::RandGoodness(), partition, rng_b, cfg);
  EXPECT_EQ(mid.stop_reason, core::StopReason::kCheckpointHalt);
  EXPECT_EQ(mid.iterations.size(), 7u);
  cfg.halt_after_iterations = 0;
  stats::Rng rng_c(41);
  const auto resumed =
      sim.run_resumable(core::RandGoodness(), partition, rng_c, cfg);
  EXPECT_EQ(core::trajectory_to_csv(resumed), core::trajectory_to_csv(full));
}

/// MaxSigma until the pool shrinks to `floor`, then no safe candidate.
class MaxSigmaUntilFloor final : public core::Strategy {
 public:
  explicit MaxSigmaUntilFloor(std::size_t floor) : floor_(floor) {}
  std::string name() const override { return "MaxSigmaUntilFloor"; }
  std::optional<std::size_t> select(const core::CandidateView& candidates,
                                    stats::Rng& rng) const override {
    if (candidates.size() <= floor_) return std::nullopt;
    return core::MaxSigma().select(candidates, rng);
  }
  std::unique_ptr<core::Strategy> clone() const override {
    return std::make_unique<MaxSigmaUntilFloor>(*this);
  }

 private:
  std::size_t floor_;
};

TEST(Checkpoint, ResumeThatPicksNothingKeepsStridedRecords) {
  // Halt after pass 5, which is not an rmse_stride point, so the saved
  // last record carries an older RMSE. The resumed run's first select
  // finds no candidate; the end-of-run evaluation must then rewrite only
  // that last record, as the uninterrupted run does.
  const auto dataset = alamr::testing::synthetic_amr_dataset(110, 97);
  core::AlOptions options = small_al_options(14);
  options.rmse_stride = 4;
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 101);
  const MaxSigmaUntilFloor strategy(partition.active.size() - 6);

  stats::Rng rng_full(47);
  const auto full = sim.run_with_partition(strategy, partition, rng_full);
  ASSERT_EQ(full.iterations.size(), 6u);
  EXPECT_EQ(full.stop_reason, core::StopReason::kNoSafeCandidates);
  // Passes 1-3 carry pass 0's RMSE; pass 5 holds the final evaluation.
  EXPECT_EQ(full.iterations[1].rmse_cost, full.iterations[0].rmse_cost);
  EXPECT_NE(full.iterations[1].rmse_cost, full.iterations[5].rmse_cost);

  const std::filesystem::path path = temp_checkpoint("resume_no_pick.json");
  core::remove_durable_payload(path, core::CheckpointConfig{}.retain);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 4;
  cfg.halt_after_iterations = 6;
  stats::Rng rng_first(47);
  const auto first = sim.run_resumable(strategy, partition, rng_first, cfg);
  EXPECT_EQ(first.stop_reason, core::StopReason::kCheckpointHalt);
  ASSERT_TRUE(std::filesystem::exists(path));

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  stats::Rng rng_second(47);
  const auto resumed = sim.run_resumable(strategy, partition, rng_second, cfg);
  EXPECT_EQ(resumed.stop_reason, core::StopReason::kNoSafeCandidates);
  EXPECT_EQ(core::trajectory_to_csv(resumed), core::trajectory_to_csv(full));
}

TEST(Checkpoint, MissingFileWithResumeRunsFresh) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(90, 73);
  const core::AlOptions options = small_al_options(5);
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 79);

  stats::Rng rng_full(43);
  const auto full =
      sim.run_with_partition(core::RandGoodness(), partition, rng_full);

  const std::filesystem::path path = temp_checkpoint("resume_missing.json");
  // Every generation must be gone, not just `path`: resume falls back to
  // the newest intact older generation (path.1, path.2, ...), and one left
  // behind by an earlier run would be resumed instead of starting fresh.
  core::remove_durable_payload(path, core::CheckpointConfig{}.retain);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 2;
  cfg.resume = true;  // nothing to resume: must start fresh, not throw
  stats::Rng rng(43);
  const auto traj =
      sim.run_resumable(core::RandGoodness(), partition, rng, cfg);
  EXPECT_EQ(core::trajectory_to_csv(traj), core::trajectory_to_csv(full));
  // Completion retires every generation the stride saves rotated.
  for (std::size_t g = 0; g < cfg.retain; ++g) {
    EXPECT_FALSE(
        std::filesystem::exists(core::checkpoint_generation_path(path, g)))
        << "generation " << g;
  }
}

TEST(Checkpoint, IncompatibleFingerprintIsRejected) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(90, 83);
  const core::AlOptions options = small_al_options(8);
  const core::AlSimulator sim(dataset, options);
  const data::Partition partition = small_partition(dataset, options, 89);

  const std::filesystem::path path = temp_checkpoint("resume_mismatch.json");
  std::filesystem::remove(path);
  core::CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 2;
  cfg.halt_after_iterations = 3;
  stats::Rng rng_a(47);
  (void)sim.run_resumable(core::RandGoodness(), partition, rng_a, cfg);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Same checkpoint, different configuration: refuse loudly.
  const core::AlOptions other_options = small_al_options(9);
  const core::AlSimulator other(dataset, other_options);
  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  stats::Rng rng_b(47);
  EXPECT_THROW(
      other.run_resumable(core::RandGoodness(), partition, rng_b, cfg),
      std::runtime_error);
  std::filesystem::remove(path);
}

// --- Batch isolation --------------------------------------------------------

TEST(BatchIsolation, MatchesPlainBatchSlotForSlot) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(110, 97);
  const core::AlOptions options = small_al_options(6);
  const core::AlSimulator sim(dataset, options);
  core::BatchOptions batch;
  batch.trajectories = 3;
  batch.seed = 424242;
  batch.threads = 2;

  const auto plain = core::run_batch(sim, core::RandGoodness(), batch);
  const auto isolated =
      core::run_batch_isolated(sim, core::RandGoodness(), batch);
  ASSERT_EQ(isolated.size(), plain.size());
  for (std::size_t t = 0; t < plain.size(); ++t) {
    ASSERT_TRUE(isolated[t].ok) << isolated[t].error;
    EXPECT_EQ(core::trajectory_to_csv(isolated[t].result),
              core::trajectory_to_csv(plain[t]));
  }
}

TEST(BatchIsolation, PoisonedTrajectoriesFailAsSlotsNotAsBatch) {
  // An unrecoverable plan (every Cholesky attempt vetoed, forever) kills
  // every trajectory — the isolated batch must return failed slots with
  // the error text instead of propagating the exception. Resilience is
  // disarmed so the degradation ladder cannot ride the plan out (that
  // recovery path has its own tests in test_online_resilience.cpp).
  const auto dataset = alamr::testing::synthetic_amr_dataset(90, 101);
  core::AlOptions options = small_al_options(4);
  options.failures.plan = faults::FaultPlan::parse("cholesky.non_psd:p=1");
  options.resilience.enabled = false;
  const core::AlSimulator sim(dataset, options);
  core::BatchOptions batch;
  batch.trajectories = 3;
  batch.seed = 7;
  batch.threads = 2;

  const auto slots = core::run_batch_isolated(sim, core::RandGoodness(), batch);
  ASSERT_EQ(slots.size(), 3u);
  for (const auto& slot : slots) {
    EXPECT_FALSE(slot.ok);
    EXPECT_FALSE(slot.error.empty());
  }
}

TEST(BatchIsolation, CheckpointedBatchCompletesAndRetiresFiles) {
  const auto dataset = alamr::testing::synthetic_amr_dataset(100, 103);
  const core::AlOptions options = small_al_options(5);
  const core::AlSimulator sim(dataset, options);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "batch_ckpt";
  std::filesystem::remove_all(dir);

  core::BatchOptions batch;
  batch.trajectories = 2;
  batch.seed = 31337;
  batch.threads = 2;
  batch.checkpoint_dir = dir;
  batch.checkpoint_stride = 2;

  const auto slots = core::run_batch_isolated(sim, core::RandGoodness(), batch);
  ASSERT_EQ(slots.size(), 2u);
  for (const auto& slot : slots) ASSERT_TRUE(slot.ok) << slot.error;
  // Completed trajectories deleted their checkpoint files.
  EXPECT_FALSE(std::filesystem::exists(dir / "trajectory_0.json"));
  EXPECT_FALSE(std::filesystem::exists(dir / "trajectory_1.json"));

  // And the checkpointed batch matches the plain one bit for bit.
  core::BatchOptions plain_batch = batch;
  plain_batch.checkpoint_dir.clear();
  const auto plain = core::run_batch(sim, core::RandGoodness(), plain_batch);
  for (std::size_t t = 0; t < slots.size(); ++t) {
    EXPECT_EQ(core::trajectory_to_csv(slots[t].result),
              core::trajectory_to_csv(plain[t]));
  }
}

TEST(Robustness, SimulatorSurvivesHugeDynamicRange) {
  // Costs spanning 12 orders of magnitude (far beyond the paper's 5.4e3).
  auto dataset = alamr::testing::synthetic_amr_dataset(60, 11);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    dataset.cost[i] = std::pow(10.0, -6.0 + 12.0 * (i % 10) / 9.0);
  }
  core::AlOptions options;
  options.n_test = 20;
  options.n_init = 10;
  options.max_iterations = 5;
  options.initial_fit.restarts = 0;
  options.refit.max_opt_iterations = 3;
  const core::AlSimulator sim(dataset, options);
  stats::Rng rng(12);
  const auto traj = sim.run(core::RandGoodness(), rng);
  for (const auto& rec : traj.iterations) {
    EXPECT_TRUE(std::isfinite(rec.rmse_cost));
    EXPECT_TRUE(std::isfinite(rec.cumulative_cost));
  }
}

}  // namespace
