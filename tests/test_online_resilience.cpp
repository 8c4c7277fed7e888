// Serving-core resilience (DESIGN.md §14): the online driver under oracle
// failures and injected timeouts, the breaker-guarded degradation ladder
// (exact -> subset-of-data -> prior mean) with half-open recovery, and
// online checkpoint halt/kill/resume byte-identity.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>

#include "alamr/core/checkpoint.hpp"
#include "alamr/core/export.hpp"
#include "alamr/core/online.hpp"
#include "alamr/data/partition.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
using namespace alamr::core;
namespace faults = alamr::core::faults;
namespace res = alamr::core::resilience;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

std::pair<double, double> synthetic_oracle(std::span<const double> f) {
  const double cost = 0.01 * std::pow(10.0, 2.0 * f[0]);
  const double memory = 0.5 * std::pow(10.0, 1.5 * f[1]);
  return {cost, memory};
}

Matrix unit_grid(std::size_t per_axis) {
  Matrix grid(per_axis * per_axis, 2);
  for (std::size_t i = 0; i < per_axis; ++i) {
    for (std::size_t j = 0; j < per_axis; ++j) {
      grid(i * per_axis + j, 0) =
          static_cast<double>(i) / static_cast<double>(per_axis - 1);
      grid(i * per_axis + j, 1) =
          static_cast<double>(j) / static_cast<double>(per_axis - 1);
    }
  }
  return grid;
}

OnlineAlOptions fast_options(std::size_t n_init = 3, std::size_t iters = 8) {
  OnlineAlOptions options;
  options.n_init = n_init;
  options.iterations = iters;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 20;
  options.refit.max_opt_iterations = 4;
  return options;
}

/// Byte-exact serialization of an online run's records (hexfloat doubles).
std::string records_to_string(const OnlineResult& result) {
  std::string out;
  char line[256];
  for (const OnlineRecord& r : result.records) {
    std::snprintf(line, sizeof(line), "%zu,%a,%a,%a,%a,%a,%a,%d\n",
                  r.grid_row, r.cost, r.memory, r.predicted_cost_log10,
                  r.predicted_mem_log10, r.cumulative_cost,
                  r.cumulative_regret, r.initial_phase ? 1 : 0);
    out += line;
  }
  return out;
}

TEST(OnlineResilience, PersistentOracleFailureSkipsCandidateAndContinues) {
  // The very first candidate's oracle fails every attempt: the executor
  // retries, gives up, and the run abandons the candidate instead of
  // dying — the remaining experiments complete normally.
  std::size_t calls = 0;
  const ExperimentOracle oracle =
      [&](std::span<const double> f) -> std::pair<double, double> {
    ++calls;
    if (calls <= 3) throw std::runtime_error("node offline");
    return synthetic_oracle(f);
  };
  OnlineAlDriver driver(unit_grid(8), oracle, fast_options(3, 8));
  Rng rng(11);
  const OnlineResult result = driver.run(RandGoodness(), rng);
  EXPECT_EQ(result.oracle_giveups, 1u);
  EXPECT_EQ(result.records.size(), 11u);  // 3 init + 8 AL, none lost
  EXPECT_EQ(calls, 3u + 11u);             // 3 failed attempts + 11 successes
  // The abandoned candidate is out of the pool too.
  EXPECT_EQ(driver.remaining_candidates(), 64u - 12u);
}

TEST(OnlineResilience, TransientOracleFailureRecoversWithinRetryBudget) {
  // Two failures then success: same records as an unfailing run, one
  // recovered operation, zero giveups.
  std::size_t calls = 0;
  const ExperimentOracle flaky =
      [&](std::span<const double> f) -> std::pair<double, double> {
    ++calls;
    if (calls <= 2) throw std::runtime_error("transient");
    return synthetic_oracle(f);
  };
  OnlineAlDriver flaky_driver(unit_grid(8), flaky, fast_options(3, 8));
  Rng rng_a(11);
  const OnlineResult with_failures = flaky_driver.run(RandGoodness(), rng_a);

  OnlineAlDriver clean_driver(unit_grid(8), synthetic_oracle,
                              fast_options(3, 8));
  Rng rng_b(11);
  const OnlineResult clean = clean_driver.run(RandGoodness(), rng_b);

  EXPECT_EQ(with_failures.oracle_giveups, 0u);
  EXPECT_EQ(records_to_string(with_failures), records_to_string(clean));
}

TEST(OnlineResilience, InjectedTimeoutsRetryWithoutPerturbingTheRun) {
  // acquire.timeout fires on the first two consultations: the first
  // oracle call times out twice and succeeds on the third attempt.
  // Retries burn virtual ticks only — records stay byte-identical to an
  // unfaulted run.
  OnlineAlOptions faulted = fast_options(3, 8);
  faulted.plan = faults::FaultPlan::parse("acquire.timeout:hits=0|1");
  OnlineAlDriver faulted_driver(unit_grid(8), synthetic_oracle, faulted);
  Rng rng_a(3);
  const OnlineResult with_timeouts = faulted_driver.run(RandGoodness(), rng_a);

  OnlineAlDriver clean_driver(unit_grid(8), synthetic_oracle,
                              fast_options(3, 8));
  Rng rng_b(3);
  const OnlineResult clean = clean_driver.run(RandGoodness(), rng_b);

  EXPECT_EQ(with_timeouts.oracle_giveups, 0u);
  EXPECT_EQ(records_to_string(with_timeouts), records_to_string(clean));
}

TEST(OnlineResilience, TimeoutStormIsDeterministicAcrossRuns) {
  // A heavy probabilistic timeout plan: whatever mix of retries, giveups,
  // and skips it produces, two runs produce the same mix byte-for-byte.
  const auto run_once = [] {
    OnlineAlOptions options = fast_options(3, 8);
    options.plan = faults::FaultPlan::parse("seed=21;acquire.timeout:p=0.4");
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, options);
    Rng rng(9);
    return driver.run(RandGoodness(), rng);
  };
  const OnlineResult a = run_once();
  const OnlineResult b = run_once();
  EXPECT_EQ(records_to_string(a), records_to_string(b));
  EXPECT_EQ(a.oracle_giveups, b.oracle_giveups);
}

TEST(OnlineResilience, DisabledResilienceRestoresFailFastContract) {
  std::size_t calls = 0;
  const ExperimentOracle oracle =
      [&](std::span<const double>) -> std::pair<double, double> {
    ++calls;
    throw std::runtime_error("node offline");
  };
  OnlineAlOptions options = fast_options(3, 8);
  options.resilience.enabled = false;
  OnlineAlDriver driver(unit_grid(8), oracle, options);
  Rng rng(2);
  EXPECT_THROW(driver.run(RandGoodness(), rng), std::runtime_error);
  EXPECT_EQ(calls, 1u);  // no retries without the executor
}

// --- Degradation ladder ----------------------------------------------------

/// Small clean training set for direct backend tests.
struct LadderFixture {
  Matrix x{12, 2};
  std::vector<double> y;
  LadderFixture() {
    Rng rng(4);
    y.reserve(12);
    for (std::size_t i = 0; i < 12; ++i) {
      x(i, 0) = rng.uniform(0.0, 1.0);
      x(i, 1) = rng.uniform(0.0, 1.0);
      y.push_back(std::sin(3.0 * x(i, 0)) + 0.5 * x(i, 1));
    }
  }
};

std::unique_ptr<gp::PosteriorBackend> make_guarded_exact(
    const res::Options& resilience) {
  gp::BackendOptions backend;
  backend.kind = gp::BackendKind::kExact;
  gp::GprOptions quiet;
  quiet.optimize = false;
  return gp::make_resilient_backend(
      backend, resilience, [] { return gp::make_paper_kernel(); }, quiet);
}

TEST(OnlineLadder, ExternalEventsTripBreakerDegradeAndHalfOpenRecover) {
  res::Options resilience;
  resilience.breaker_threshold = 3;
  resilience.probe_after = 2;
  auto backend = make_guarded_exact(resilience);
  auto* guarded = dynamic_cast<gp::ResilientBackend*>(backend.get());
  ASSERT_NE(guarded, nullptr);

  LadderFixture data;
  Rng rng(5);
  backend->fit(data.x, data.y, rng);
  EXPECT_EQ(guarded->health(), res::Health::kHealthy);
  EXPECT_EQ(guarded->rung(), 0u);

  // Three acquisition timeouts attributed to this model trip its breaker;
  // the NEXT operation steps the ladder.
  for (int i = 0; i < 3; ++i) {
    guarded->record_external_event(res::Event::kAcquireTimeout);
  }
  EXPECT_TRUE(guarded->breaker().tripped());
  backend->predict(data.x);
  EXPECT_EQ(guarded->rung(), 1u);
  EXPECT_EQ(guarded->active_kind(), gp::BackendKind::kSubsetOfData);
  EXPECT_EQ(guarded->health(), res::Health::kDegraded);
  EXPECT_EQ(guarded->breaker().trips(), 1u);
  EXPECT_EQ(guarded->kind(), gp::BackendKind::kExact)
      << "configured kind must not change under degradation";

  // The degrade-op's own success already opened the ok streak (1); one
  // more clean op reaches probe_after=2, and the NEXT op probes the rung
  // above — the rebuild succeeds and the model recovers to the
  // configured backend.
  backend->predict(data.x);
  EXPECT_EQ(guarded->rung(), 1u);
  backend->predict(data.x);
  EXPECT_EQ(guarded->rung(), 0u);
  EXPECT_EQ(guarded->active_kind(), gp::BackendKind::kExact);
  EXPECT_EQ(guarded->health(), res::Health::kHealthy);
  EXPECT_TRUE(backend->fitted());
}

TEST(OnlineLadder, RestoreThatThrowsLeavesTheBackendAsItWas) {
  // A degraded backend handed a decorated state whose inner local-experts
  // state is malformed: the restore throws, and the backend keeps its
  // rung, breaker, saved state and predictions.
  gp::BackendOptions options;
  options.kind = gp::BackendKind::kLocalExperts;
  options.experts = 2;
  options.min_expert_size = 2;
  gp::GprOptions quiet;
  quiet.optimize = false;
  res::Options resilience;
  resilience.breaker_threshold = 3;
  resilience.probe_after = 1000;  // no half-open probe during the test
  auto backend = gp::make_resilient_backend(
      options, resilience, [] { return gp::make_paper_kernel(); }, quiet);
  auto* guarded = dynamic_cast<gp::ResilientBackend*>(backend.get());
  ASSERT_NE(guarded, nullptr);

  LadderFixture data;
  Rng rng(5);
  backend->fit(data.x, data.y, rng);
  for (int i = 0; i < 3; ++i) {
    guarded->record_external_event(res::Event::kAcquireTimeout);
  }
  backend->predict(data.x);  // the tripped breaker steps the ladder
  ASSERT_EQ(guarded->rung(), 1u);
  const gp::Prediction before = backend->predict(data.x);
  const std::string saved = backend->save_state();

  const std::string inner = "centroids v1;2x2;0x3ff0000000000000";  // 1 cell
  EXPECT_THROW(
      backend->restore_state(
          "resil v1;rung=0;health=0;breaker=0,0,0,0;thetas=;inner=" +
          std::to_string(inner.size()) + ":" + inner),
      std::runtime_error);
  EXPECT_EQ(guarded->rung(), 1u);
  EXPECT_EQ(guarded->health(), res::Health::kDegraded);
  EXPECT_EQ(backend->save_state(), saved);
  const gp::Prediction after = backend->predict(data.x);
  EXPECT_EQ(after.mean, before.mean);
  EXPECT_EQ(after.stddev, before.stddev);
}

TEST(OnlineLadder, NonPsdPlanWalksExactToSodToPriorMean) {
  // Every Cholesky attempt vetoed, forever: exact fails, the
  // subset-of-data rebuild fails too, and the ladder lands on the
  // prior-mean rung — degraded but alive, with a sane posterior.
  faults::FaultInjector injector(
      faults::FaultPlan::parse("cholesky.non_psd:p=1"));
  const faults::ScopedFaultInjector scope(injector);

  res::Options resilience;  // defaults: threshold 3, max_attempts 3
  auto backend = make_guarded_exact(resilience);
  auto* guarded = dynamic_cast<gp::ResilientBackend*>(backend.get());
  ASSERT_NE(guarded, nullptr);

  LadderFixture data;
  Rng rng(6);
  ASSERT_NO_THROW(backend->fit(data.x, data.y, rng));
  EXPECT_EQ(guarded->active_kind(), gp::BackendKind::kPriorMean);
  EXPECT_EQ(guarded->rung(), 2u);
  EXPECT_EQ(guarded->health(), res::Health::kDegraded);
  EXPECT_TRUE(backend->fitted());

  const gp::Prediction pred = backend->predict(data.x);
  double mean_y = 0.0;
  for (const double v : data.y) mean_y += v;
  mean_y /= static_cast<double>(data.y.size());
  for (std::size_t i = 0; i < pred.mean.size(); ++i) {
    EXPECT_NEAR(pred.mean[i], mean_y, 1e-12);
    EXPECT_GT(pred.stddev[i], 0.0);
  }
}

TEST(OnlineLadder, LadderDisabledHaltsInsteadOfDegrading) {
  faults::FaultInjector injector(
      faults::FaultPlan::parse("cholesky.non_psd:p=1"));
  const faults::ScopedFaultInjector scope(injector);

  res::Options resilience;
  resilience.ladder = false;  // no rungs below the configured backend
  auto backend = make_guarded_exact(resilience);
  auto* guarded = dynamic_cast<gp::ResilientBackend*>(backend.get());
  ASSERT_NE(guarded, nullptr);

  LadderFixture data;
  Rng rng(6);
  EXPECT_THROW(backend->fit(data.x, data.y, rng), std::runtime_error);
  EXPECT_EQ(guarded->health(), res::Health::kHalted);
}

TEST(OnlineLadder, TrajectoryUnderNonPsdPlanIsDeterministic) {
  // Acceptance: cholesky.non_psd:p=1 deterministically degrades the
  // simulator's models down the ladder, and two runs agree on both the
  // trajectory bytes and the resilience.* counters.
  const bool was_enabled = core::trace::enabled();
  core::trace::set_enabled(true);
  const auto dataset = alamr::testing::synthetic_amr_dataset(80, 13);
  core::AlOptions options;
  options.n_test = 30;
  options.n_init = 12;
  options.max_iterations = 3;
  options.initial_fit.restarts = 0;
  options.initial_fit.max_opt_iterations = 10;
  options.refit.max_opt_iterations = 3;
  options.failures.plan = faults::FaultPlan::parse("cholesky.non_psd:p=1");

  const auto run_once = [&](std::uint64_t* degrades) {
    const core::AlSimulator sim(dataset, options);
    Rng rng(17);
    const std::uint64_t before =
        core::trace::global_report().counter("resilience.degrade_steps");
    const core::TrajectoryResult result = sim.run(core::RandGoodness(), rng);
    *degrades =
        core::trace::global_report().counter("resilience.degrade_steps") -
        before;
    return core::trajectory_to_csv(result);
  };
  std::uint64_t degrades_a = 0;
  std::uint64_t degrades_b = 0;
  const std::string a = run_once(&degrades_a);
  const std::string b = run_once(&degrades_b);
  core::trace::set_enabled(was_enabled);

  EXPECT_EQ(a, b);
  EXPECT_EQ(degrades_a, degrades_b);
  // Both models walked exact -> subset-of-data -> prior mean.
  EXPECT_GE(degrades_a, 4u);
}

// --- Online checkpoint halt/resume -----------------------------------------

std::filesystem::path online_ckpt_path(const char* name) {
  const std::filesystem::path p = std::filesystem::temp_directory_path() / name;
  remove_online_checkpoint(p, 8);
  return p;
}

TEST(OnlineCheckpointResume, HaltAndResumeMatchesUninterruptedRunByteForByte) {
  const auto reference = [] {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
    Rng rng(23);
    return driver.run(RandGoodness(), rng);
  }();

  const std::filesystem::path path =
      online_ckpt_path("alamr_online_resume.ckpt");
  CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 2;
  cfg.halt_after_iterations = 5;
  {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
    Rng rng(23);
    const OnlineResult halted = driver.run(RandGoodness(), rng, &cfg);
    EXPECT_TRUE(halted.halted_at_checkpoint);
    EXPECT_EQ(halted.records.size(), 5u);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
  Rng rng(99);  // must be irrelevant: the checkpoint carries the rng state
  const OnlineResult resumed = driver.run(RandGoodness(), rng, &cfg);
  EXPECT_FALSE(resumed.halted_at_checkpoint);
  EXPECT_EQ(records_to_string(resumed), records_to_string(reference));
  EXPECT_EQ(driver.remaining_candidates(), 64u - 11u);
  ASSERT_TRUE(resumed.cost_model);
  EXPECT_TRUE(resumed.cost_model->fitted());
  remove_online_checkpoint(path);
}

TEST(OnlineCheckpointResume, ResumeFromInitBoundaryStrideSaveMatches) {
  // The stride save that lands on the last initial-phase record is taken
  // after the one-time initial fit, so resuming from it (here: the newest
  // generation is lost) must not skip that fit.
  const auto reference = [] {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
    Rng rng(23);
    return driver.run(RandGoodness(), rng);
  }();

  const std::filesystem::path path =
      online_ckpt_path("alamr_online_init_boundary.ckpt");
  CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 3;
  cfg.halt_after_iterations = 3;
  {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
    Rng rng(23);
    EXPECT_TRUE(driver.run(RandGoodness(), rng, &cfg).halted_at_checkpoint);
  }
  // Drop the halt save: the record-3 stride save becomes the newest.
  const std::filesystem::path older = std::filesystem::path(path).concat(".1");
  ASSERT_TRUE(std::filesystem::exists(older));
  std::filesystem::remove(path);
  std::filesystem::rename(older, path);

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
  Rng rng(5);
  const OnlineResult resumed = driver.run(RandGoodness(), rng, &cfg);
  EXPECT_EQ(records_to_string(resumed), records_to_string(reference));
  remove_online_checkpoint(path);
}

TEST(OnlineCheckpointResume, ResumeSurvivesTornFinalSave) {
  // The halt-point save (the newest, most advanced generation) is torn
  // mid-write; resume must quarantine it, fall back to the previous
  // intact generation, replay the lost records, and still match the
  // uninterrupted run byte-for-byte.
  OnlineAlOptions options = fast_options(3, 8);
  // Saves before the halt-save land at records 2 and 4 (stride 2), so the
  // halt-save is the torn_write site's third consultation: hit 2.
  options.plan = faults::FaultPlan::parse("io.torn_write:hits=2");

  const auto reference = [&] {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, options);
    Rng rng(23);
    return driver.run(RandGoodness(), rng);  // io.* never consulted: no saves
  }();

  const std::filesystem::path path = online_ckpt_path("alamr_online_torn.ckpt");
  CheckpointConfig cfg;
  cfg.path = path;
  cfg.stride = 2;
  cfg.halt_after_iterations = 5;
  {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, options);
    Rng rng(23);
    const OnlineResult halted = driver.run(RandGoodness(), rng, &cfg);
    EXPECT_TRUE(halted.halted_at_checkpoint);
  }

  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  OnlineAlDriver driver(unit_grid(8), synthetic_oracle, options);
  Rng rng(7);
  const OnlineResult resumed = driver.run(RandGoodness(), rng, &cfg);
  EXPECT_EQ(records_to_string(resumed), records_to_string(reference));
  // The torn generation was quarantined as forensic evidence.
  const std::filesystem::path bad = std::filesystem::path(path).concat(".bad");
  EXPECT_TRUE(std::filesystem::exists(bad));
  remove_online_checkpoint(path);
  std::error_code ec;
  std::filesystem::remove(bad, ec);
}

TEST(OnlineCheckpointResume, RejectsCheckpointFromDifferentConfiguration) {
  const std::filesystem::path path =
      online_ckpt_path("alamr_online_mismatch.ckpt");
  CheckpointConfig cfg;
  cfg.path = path;
  cfg.halt_after_iterations = 4;
  {
    OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 8));
    Rng rng(23);
    driver.run(RandGoodness(), rng, &cfg);
  }
  cfg.resume = true;
  cfg.halt_after_iterations = 0;
  // Different iteration budget => different fingerprint => refuse.
  OnlineAlDriver driver(unit_grid(8), synthetic_oracle, fast_options(3, 12));
  Rng rng(23);
  try {
    driver.run(RandGoodness(), rng, &cfg);
    FAIL() << "expected fingerprint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("refusing to resume"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(std::filesystem::exists(path)) << "mismatch must keep the file";
  remove_online_checkpoint(path);
}

}  // namespace
