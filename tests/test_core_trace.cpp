// The observability layer (core/trace.hpp): counters, timer aggregation,
// JSON/CSV export, thread-safety of concurrent increments, and the
// per-trajectory reports the simulator attaches.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alamr/core/online.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/simulator.hpp"
#include "alamr/core/strategies.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/linalg/simd.hpp"
#include "synthetic_dataset.hpp"

namespace {

using namespace alamr;
using namespace alamr::core;

/// Saves and restores the process-wide enabled flag so tests compose.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : previous_(trace::enabled()) {
    trace::set_enabled(on);
  }
  ~EnabledGuard() { trace::set_enabled(previous_); }

 private:
  bool previous_;
};

TEST(Trace, DisabledCallsAreNoOps) {
  const EnabledGuard guard(false);
  trace::TraceCollector collector;
  const trace::ScopedCollector scope(collector);
  trace::count("noop.counter", 5);
  trace::record_time("noop.phase", 1.0);
  {
    const trace::ScopedTimer timer("noop.timer");
  }
  const trace::TraceReport report = collector.report();
  EXPECT_TRUE(report.counters.empty());
  EXPECT_TRUE(report.phases.empty());
}

TEST(Trace, CountersAccumulateIntoCurrentCollector) {
  const EnabledGuard guard(true);
  trace::TraceCollector collector;
  {
    const trace::ScopedCollector scope(collector);
    trace::count("alpha");
    trace::count("alpha", 3);
    trace::count("beta", 7);
  }
  // Outside the scope nothing lands in this collector any more.
  trace::count("alpha", 100);

  const trace::TraceReport report = collector.report();
  EXPECT_EQ(report.counter("alpha"), 4u);
  EXPECT_EQ(report.counter("beta"), 7u);
  EXPECT_EQ(report.counter("never.incremented"), 0u);
  ASSERT_EQ(report.counters.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(report.counters[0].name, "alpha");
  EXPECT_EQ(report.counters[1].name, "beta");
}

TEST(Trace, ScopedCollectorsNestAndRestore) {
  const EnabledGuard guard(true);
  trace::TraceCollector outer;
  trace::TraceCollector inner;
  {
    const trace::ScopedCollector outer_scope(outer);
    trace::count("x");
    {
      const trace::ScopedCollector inner_scope(inner);
      EXPECT_EQ(trace::current_collector(), &inner);
      trace::count("x");
    }
    EXPECT_EQ(trace::current_collector(), &outer);
    trace::count("x");
  }
  EXPECT_EQ(outer.report().counter("x"), 2u);
  EXPECT_EQ(inner.report().counter("x"), 1u);
}

TEST(Trace, TimerAggregationTracksCallsTotalMinMax) {
  trace::TraceCollector collector;
  collector.record("phase", 2e-6);
  collector.record("phase", 8e-6);
  collector.record("phase", 2e-3);

  const trace::TraceReport report = collector.report();
  const trace::PhaseStats* stats = report.phase("phase");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 3u);
  EXPECT_DOUBLE_EQ(stats->total_seconds, 2e-6 + 8e-6 + 2e-3);
  EXPECT_DOUBLE_EQ(stats->min_seconds, 2e-6);
  EXPECT_DOUBLE_EQ(stats->max_seconds, 2e-3);
  EXPECT_EQ(report.phase("missing"), nullptr);
}

TEST(Trace, HistogramBucketsAreLogScale) {
  // Bucket 0: < 1 us; bucket b: [4^(b-1), 4^b) us; last bucket open-ended.
  EXPECT_EQ(trace::histogram_bucket(0.0), 0u);
  EXPECT_EQ(trace::histogram_bucket(0.5e-6), 0u);
  EXPECT_EQ(trace::histogram_bucket(1e-6), 1u);
  EXPECT_EQ(trace::histogram_bucket(3.9e-6), 1u);
  EXPECT_EQ(trace::histogram_bucket(4e-6), 2u);
  EXPECT_EQ(trace::histogram_bucket(15e-6), 2u);
  EXPECT_EQ(trace::histogram_bucket(1e-3), 5u);  // 1000 us in [256, 1024)
  EXPECT_EQ(trace::histogram_bucket(1e9), trace::kHistogramBuckets - 1);

  trace::TraceCollector collector;
  collector.record("p", 2e-6);
  collector.record("p", 3e-6);
  collector.record("p", 1e-3);
  // phase() points into the report, so the report must stay alive.
  const trace::TraceReport report = collector.report();
  const trace::PhaseStats* stats = report.phase("p");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->histogram[1], 2u);
  EXPECT_EQ(stats->histogram[5], 1u);
}

TEST(Trace, ScopedTimerRecordsElapsedTime) {
  const EnabledGuard guard(true);
  trace::TraceCollector collector;
  const trace::ScopedCollector scope(collector);
  {
    const trace::ScopedTimer timer("timed");
    // Do a little observable work so elapsed > 0 even at coarse clocks.
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  const trace::TraceReport report = collector.report();
  const trace::PhaseStats* stats = report.phase("timed");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 1u);
  EXPECT_GE(stats->total_seconds, 0.0);
  EXPECT_GE(stats->max_seconds, stats->min_seconds);
}

TEST(Trace, ConcurrentIncrementsFromPoolSumExactly) {
  const EnabledGuard guard(true);
  constexpr std::size_t kIncrements = 20000;

  // Direct hammering of one shared collector from 4 pool lanes.
  trace::TraceCollector collector;
  ThreadPool pool(4);
  pool.parallel_for(kIncrements, [&collector](std::size_t i) {
    collector.count("concurrent", 1);
    collector.record("concurrent.phase", 1e-6 * static_cast<double>(i % 3));
  });
  const trace::TraceReport report = collector.report();
  EXPECT_EQ(report.counter("concurrent"), kIncrements);
  ASSERT_NE(report.phase("concurrent.phase"), nullptr);
  EXPECT_EQ(report.phase("concurrent.phase")->calls, kIncrements);

  // The same through the free-function API: worker threads have no
  // thread-local collector, so the global sink must absorb every count.
  trace::global_collector().clear();
  pool.parallel_for(kIncrements,
                    [](std::size_t) { trace::count("concurrent.global"); });
  EXPECT_EQ(trace::global_report().counter("concurrent.global"), kIncrements);
}

TEST(Trace, PoolTaskDispatchIsCounted) {
  const EnabledGuard guard(true);
  trace::TraceCollector collector;
  const trace::ScopedCollector scope(collector);
  ThreadPool pool(4);
  std::atomic<std::size_t> touched{0};
  pool.parallel_for_chunks(100, [&touched](std::size_t begin, std::size_t end) {
    touched.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(touched.load(), 100u);
  // 4 lanes: the caller runs chunk 0 inline, 3 tasks go to the queue — and
  // they are counted on the submitting thread, i.e. into this collector.
  EXPECT_EQ(collector.report().counter("pool.tasks"), 3u);
}

TEST(Trace, JsonExportContainsCountersPhasesAndFingerprint) {
  trace::TraceCollector collector;
  collector.count("gpr.fit_full", 3);
  collector.record("refit", 0.25);
  collector.record("refit", 0.75);
  trace::TraceReport report = collector.report();
  report.fingerprint = "00ff00ff00ff00ff";

  const std::string json = trace::trace_report_to_json(report);
  EXPECT_NE(json.find("\"fingerprint\": \"00ff00ff00ff00ff\""),
            std::string::npos);
  EXPECT_NE(json.find("\"gpr.fit_full\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"refit\": {\"calls\": 2, \"total_s\": 1"),
            std::string::npos);
  EXPECT_NE(json.find("\"mean_s\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"min_s\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"max_s\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"histogram_us\""), std::string::npos);
}

TEST(Trace, CsvExportHasOneRowPerEntry) {
  trace::TraceCollector collector;
  collector.count("alpha", 2);
  collector.count("beta", 5);
  collector.record("select", 0.5);
  trace::TraceReport report = collector.report();
  report.fingerprint = "deadbeefdeadbeef";

  const std::string csv = trace::trace_report_to_csv(report);
  std::istringstream lines(csv);
  std::string line;
  std::vector<std::string> rows;
  while (std::getline(lines, line)) rows.push_back(line);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0], "kind,name,value,calls,total_s,mean_s,min_s,max_s");
  EXPECT_EQ(rows[1], "fingerprint,deadbeefdeadbeef,,,,,,");
  EXPECT_EQ(rows[2], "counter,alpha,2,,,,,");
  EXPECT_EQ(rows[3], "counter,beta,5,,,,,");
  EXPECT_EQ(rows[4], "phase,select,,1,0.5,0.5,0.5,0.5");
}

TEST(Trace, ReportsRoundTripThroughFiles) {
  trace::TraceCollector collector;
  collector.count("io.counter", 42);
  collector.record("io.phase", 0.125);
  trace::TraceReport report = collector.report();
  report.fingerprint = "0123456789abcdef";

  const auto dir = std::filesystem::temp_directory_path();
  const auto json_path = dir / "alamr_trace_test.json";
  const auto csv_path = dir / "alamr_trace_test.csv";
  trace::write_trace_json(report, json_path);
  trace::write_trace_csv(report, csv_path);

  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  EXPECT_EQ(slurp(json_path), trace::trace_report_to_json(report));
  EXPECT_EQ(slurp(csv_path), trace::trace_report_to_csv(report));
  std::filesystem::remove(json_path);
  std::filesystem::remove(csv_path);
}

TEST(Trace, ParseTraceFlagFormsAndEnabling) {
  const EnabledGuard guard(false);

  const char* no_flag[] = {"prog", "--other"};
  EXPECT_FALSE(trace::parse_trace_flag(2, const_cast<char**>(no_flag)));
  EXPECT_FALSE(trace::enabled());

  const char* spaced[] = {"prog", "--trace", "/tmp/out.json"};
  const auto path = trace::parse_trace_flag(3, const_cast<char**>(spaced));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, "/tmp/out.json");
  EXPECT_TRUE(trace::enabled());

  trace::set_enabled(false);
  const char* equals[] = {"prog", "--trace=/tmp/eq.json"};
  const auto eq_path = trace::parse_trace_flag(2, const_cast<char**>(equals));
  ASSERT_TRUE(eq_path.has_value());
  EXPECT_EQ(*eq_path, "/tmp/eq.json");
  EXPECT_TRUE(trace::enabled());
}

TEST(Trace, FingerprintIsDeterministicAndSensitive) {
  trace::Fingerprint a;
  a.add("strategy").add(std::uint64_t{50}).add(1.5).add(true);
  trace::Fingerprint b;
  b.add("strategy").add(std::uint64_t{50}).add(1.5).add(true);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 16u);

  trace::Fingerprint c;
  c.add("strategy").add(std::uint64_t{51}).add(1.5).add(true);
  EXPECT_NE(a.hex(), c.hex());

  // The length separator keeps concatenations distinct.
  trace::Fingerprint ab;
  ab.add("ab").add("c");
  trace::Fingerprint a_bc;
  a_bc.add("a").add("bc");
  EXPECT_NE(ab.hex(), a_bc.hex());
}

// --- Simulator integration -----------------------------------------------

AlOptions trace_test_options(std::size_t iterations) {
  AlOptions options;
  options.n_test = 40;
  options.n_init = 12;
  options.max_iterations = iterations;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 25;
  options.refit.restarts = 0;
  // Zero refit budget: the warm start is returned unchanged every
  // iteration, so every refit takes the incremental fast path.
  options.refit.max_opt_iterations = 0;
  return options;
}

TEST(TraceSimulator, FastPathCountsMatchIncrementalRefit) {
  const EnabledGuard guard(true);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);
  constexpr std::size_t kIterations = 8;

  const AlOptions options = trace_test_options(kIterations);
  const AlSimulator simulator(dataset, options);
  const RandGoodness strategy;
  stats::Rng rng(7);
  const TrajectoryResult result = simulator.run(strategy, rng);
  ASSERT_EQ(result.iterations.size(), kIterations);

  // Two models (cost + memory): the initial fits are the only full
  // posterior builds; every refit extends incrementally.
  EXPECT_EQ(result.trace.counter("gpr.fit_full"), 2u);
  EXPECT_EQ(result.trace.counter("gpr.fit_incremental"), 2 * kIterations);
  EXPECT_EQ(result.trace.counter("sim.iterations"), kIterations);
  EXPECT_EQ(result.trace.counter("cholesky.extend"), 2 * kIterations);
  EXPECT_EQ(result.trace.counter("cholesky.extend_rejected"), 0u);
}

TEST(TraceSimulator, CrossCovarianceCountersMatchIncrementalPath) {
  const EnabledGuard guard(true);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);
  constexpr std::size_t kIterations = 8;

  const AlOptions options = trace_test_options(kIterations);
  const AlSimulator simulator(dataset, options);
  const RandGoodness strategy;
  stats::Rng rng(7);
  const TrajectoryResult result = simulator.run(strategy, rng);
  ASSERT_EQ(result.iterations.size(), kIterations);

  // Iteration 0 builds K(X_train, X_active) for both models; the
  // zero-budget warm-started refits never move the hyperparameters, so
  // every later iteration reuses the matrices (column erase + row append)
  // and nothing is ever invalidated.
  EXPECT_EQ(result.trace.counter("sim.kstar_rebuild"), 2u);
  EXPECT_EQ(result.trace.counter("sim.kstar_reuse"), 2 * (kIterations - 1));
  EXPECT_EQ(result.trace.counter("sim.kstar_append"), 2 * kIterations);
  EXPECT_EQ(result.trace.counter("sim.kstar_invalidate"), 0u);
  // Every fit/refit objective evaluation consumed the training-distance
  // cache.
  EXPECT_GT(result.trace.counter("gpr.dist_cache_hit"), 0u);
  EXPECT_EQ(result.trace.counter("gpr.dist_cache_miss"), 0u);
}

TEST(TraceSimulator, FullRefitInvalidatesCrossCovariance) {
  const EnabledGuard guard(true);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);
  constexpr std::size_t kIterations = 8;

  AlOptions options = trace_test_options(kIterations);
  // A warm-refit budget that moves theta: those refits rebuild the
  // posterior in full, and the cross matrix built at the old theta must
  // not survive them.
  options.refit.max_opt_iterations = 4;
  const AlSimulator simulator(dataset, options);
  const RandGoodness strategy;
  stats::Rng rng(7);
  const TrajectoryResult result = simulator.run(strategy, rng);
  ASSERT_EQ(result.iterations.size(), kIterations);

  // Beyond the two initial fits, every full fit is a theta-moving refit,
  // and each one invalidated the live cross matrix instead of appending.
  const std::uint64_t invalidated = result.trace.counter("sim.kstar_invalidate");
  EXPECT_GT(invalidated, 0u);
  EXPECT_EQ(invalidated, result.trace.counter("gpr.fit_full") - 2);
  EXPECT_EQ(invalidated + result.trace.counter("sim.kstar_append"),
            2 * kIterations);
  // Every predict phase either rebuilt or reused each model's matrix.
  EXPECT_EQ(result.trace.counter("sim.kstar_rebuild") +
                result.trace.counter("sim.kstar_reuse"),
            2 * kIterations);
}

TEST(TraceSimulator, PhaseTimersCoverTheLoop) {
  const EnabledGuard guard(true);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);
  constexpr std::size_t kIterations = 6;

  const AlSimulator simulator(dataset, trace_test_options(kIterations));
  const RandGoodness strategy;
  stats::Rng rng(11);
  const TrajectoryResult result = simulator.run(strategy, rng);

  for (const char* phase : {"predict", "select", "reveal", "refit"}) {
    const trace::PhaseStats* stats = result.trace.phase(phase);
    ASSERT_NE(stats, nullptr) << phase;
    EXPECT_EQ(stats->calls, kIterations) << phase;
    EXPECT_GE(stats->total_seconds, 0.0) << phase;
  }
  // rmse: per-iteration evaluations plus the post-init one.
  ASSERT_NE(result.trace.phase("rmse"), nullptr);
  EXPECT_EQ(result.trace.phase("rmse")->calls, kIterations + 1);
  ASSERT_NE(result.trace.phase("init"), nullptr);
  EXPECT_EQ(result.trace.phase("init")->calls, 1u);
}

TEST(TraceSimulator, RgmaFilterCounterFires) {
  const EnabledGuard guard(true);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);

  const AlSimulator simulator(dataset, trace_test_options(6));
  // A limit below every response filters every candidate immediately.
  const Rgma impossible(-100.0);
  stats::Rng rng(3);
  const TrajectoryResult result = simulator.run(impossible, rng);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_EQ(result.stop_reason, StopReason::kNoSafeCandidates);
  EXPECT_GT(result.trace.counter("strategy.rgma_filtered"), 0u);
  EXPECT_EQ(result.trace.counter("strategy.rgma_exhausted"), 1u);
}

TEST(TraceSimulator, DisabledTracingLeavesReportEmptyButFingerprinted) {
  const EnabledGuard guard(false);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);

  const AlSimulator simulator(dataset, trace_test_options(4));
  const RandGoodness strategy;
  stats::Rng rng(5);
  const TrajectoryResult result = simulator.run(strategy, rng);
  EXPECT_TRUE(result.trace.counters.empty());
  EXPECT_TRUE(result.trace.phases.empty());
  EXPECT_EQ(result.trace.fingerprint.size(), 16u);
}

TEST(TraceSimulator, FingerprintIdentifiesConfigurationAndPartition) {
  const EnabledGuard guard(false);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);
  const AlOptions options = trace_test_options(4);
  const AlSimulator simulator(dataset, options);
  const RandGoodness strategy;

  stats::Rng partition_rng(21);
  const data::Partition partition = data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);

  stats::Rng r1(5);
  stats::Rng r2(99);  // different selection stream, same config
  const auto a = simulator.run_with_partition(strategy, partition, r1);
  const auto b = simulator.run_with_partition(strategy, partition, r2);
  EXPECT_EQ(a.trace.fingerprint, b.trace.fingerprint);

  // A different partition (i.e. a different seed) changes the fingerprint.
  stats::Rng other_rng(22);
  const data::Partition other = data::make_partition(
      dataset.size(), options.n_test, options.n_init, other_rng);
  const auto c = simulator.run_with_partition(strategy, other, r1);
  EXPECT_NE(a.trace.fingerprint, c.trace.fingerprint);

  // A different option too.
  AlOptions stride_options = options;
  stride_options.rmse_stride = 3;
  const AlSimulator stride_sim(dataset, stride_options);
  const auto d = stride_sim.run_with_partition(strategy, partition, r2);
  EXPECT_NE(a.trace.fingerprint, d.trace.fingerprint);

  // And the strategy identity.
  const RandUniform uniform;
  const auto e = simulator.run_with_partition(uniform, partition, r2);
  EXPECT_NE(a.trace.fingerprint, e.trace.fingerprint);
}

TEST(TraceSimulator, AlOptionsTraceTurnsTracingOn) {
  const EnabledGuard guard(false);
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(120, 4242);
  AlOptions options = trace_test_options(3);
  options.trace = true;
  const AlSimulator simulator(dataset, options);  // enables process-wide
  EXPECT_TRUE(trace::enabled());
  const RandGoodness strategy;
  stats::Rng rng(13);
  const TrajectoryResult result = simulator.run(strategy, rng);
  EXPECT_GT(result.trace.counter("sim.iterations"), 0u);
}

// --- Checkpoint compatibility keys -----------------------------------------
//
// Resume validates a checkpoint by these digests, so their bytes must not
// drift when options are retired: the values below were computed before
// AlOptions::{incremental_refit, incremental_cross, batched_predict} were
// removed (the fingerprint now feeds their always-on values as constants),
// and checkpoints written then must keep resuming.

TEST(FingerprintPin, DefaultOptionsTrajectoryFingerprint) {
  namespace simd = alamr::linalg::simd;
  const simd::Level saved = simd::active_level();
  ASSERT_TRUE(simd::set_level(simd::Level::kScalar));
  const data::Dataset dataset = alamr::testing::synthetic_amr_dataset(260, 4242);
  const AlSimulator simulator(dataset, AlOptions{});
  stats::Rng partition_rng(11);
  const data::Partition partition =
      data::make_partition(dataset.size(), simulator.options().n_test,
                           simulator.options().n_init, partition_rng);
  stats::Rng rng(2024);
  const TrajectoryResult result =
      simulator.run_with_partition(MaxSigma(), partition, rng);
  simd::set_level(saved);
  EXPECT_EQ(result.trace.fingerprint, "cfb4bc3f18ad9e8e");
}

TEST(FingerprintPin, DefaultOptionsOnlineFingerprint) {
  linalg::Matrix grid(6, 2);
  for (std::size_t r = 0; r < grid.rows(); ++r) {
    grid(r, 0) = 0.1 * static_cast<double>(r);
    grid(r, 1) = 1.0 - 0.15 * static_cast<double>(r);
  }
  EXPECT_EQ(online_run_fingerprint(grid, MaxSigma().name(), OnlineAlOptions{},
                                   ""),
            "418b06e32ef60863");
}

}  // namespace
