// Multi-tenant session engine (DESIGN.md §15): byte-identity of the
// batched engine against serial OnlineAlDriver runs, batched-vs-serial
// arm parity at serving strides, evict/restore round-trips, degradation
// isolation between co-hosted tenants, the request-protocol contract,
// and concurrent shard traffic (the TSan target).

#include "alamr/core/serve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <thread>
#include <vector>

#include "alamr/core/online.hpp"

namespace {

using namespace alamr::core;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

/// Synthetic 2-D oracle: cost grows exponentially along x0, memory along
/// x1. Deterministic, positive — the engine's client runs this between
/// suggest and observe.
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

OnlineAlOptions fast_al(std::size_t n_init = 2, std::size_t iters = 6) {
  OnlineAlOptions options;
  options.n_init = n_init;
  options.iterations = iters;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 10;
  options.refit.max_opt_iterations = 4;
  return options;
}

SessionOptions session_options(std::uint64_t seed, std::size_t stride = 1) {
  SessionOptions options;
  options.al = fast_al();
  options.seed = seed;
  options.retrain_stride = stride;
  return options;
}

/// Drives one session to completion on the calling thread (the
/// per-session-serial protocol).
void drive_sync(SessionEngine& engine, SessionId id) {
  for (;;) {
    const Suggestion s = engine.suggest(id);
    if (s.done) return;
    const auto [cost, memory] = synthetic_oracle(s.features);
    engine.observe(id, cost, memory);
  }
}

/// Drives every session through the queued protocol in lockstep rounds,
/// so each drain coalesces the whole tenant set's suggest work.
void drive_batched(SessionEngine& engine, const std::vector<SessionId>& ids) {
  std::vector<char> done(ids.size(), 0);
  for (;;) {
    bool any = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!done[i]) {
        engine.enqueue_suggest(ids[i]);
        any = true;
      }
    }
    if (!any) return;
    engine.drain();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (done[i]) continue;
      const std::optional<Suggestion> s = engine.take_suggestion(ids[i]);
      ASSERT_TRUE(s.has_value());
      if (s->done) {
        done[i] = 1;
        continue;
      }
      const auto [cost, memory] = synthetic_oracle(s->features);
      engine.enqueue_observe(ids[i], cost, memory);
    }
    engine.drain();
  }
}

void expect_same_records(const std::vector<OnlineRecord>& a,
                         const std::vector<OnlineRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].grid_row, b[i].grid_row) << "record " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << "record " << i;
    EXPECT_EQ(a[i].memory, b[i].memory) << "record " << i;
    EXPECT_EQ(a[i].predicted_cost_log10, b[i].predicted_cost_log10)
        << "record " << i;
    EXPECT_EQ(a[i].predicted_mem_log10, b[i].predicted_mem_log10)
        << "record " << i;
    EXPECT_EQ(a[i].cumulative_cost, b[i].cumulative_cost) << "record " << i;
    EXPECT_EQ(a[i].cumulative_regret, b[i].cumulative_regret)
        << "record " << i;
    EXPECT_EQ(a[i].initial_phase, b[i].initial_phase) << "record " << i;
  }
}

/// Bitwise posterior comparison of two finished runs over the scaled grid.
void expect_same_posterior(const OnlineResult& a, const OnlineResult& b,
                           const Matrix& grid) {
  const auto scaler = alamr::data::FeatureScaler::fit(grid);
  const Matrix xs = scaler.transform(grid);
  const auto pca = a.cost_model->predict(xs);
  const auto pcb = b.cost_model->predict(xs);
  const auto pma = a.memory_model->predict(xs);
  const auto pmb = b.memory_model->predict(xs);
  ASSERT_EQ(pca.mean.size(), pcb.mean.size());
  for (std::size_t i = 0; i < pca.mean.size(); ++i) {
    EXPECT_EQ(pca.mean[i], pcb.mean[i]) << "cost mean " << i;
    EXPECT_EQ(pca.stddev[i], pcb.stddev[i]) << "cost stddev " << i;
    EXPECT_EQ(pma.mean[i], pmb.mean[i]) << "mem mean " << i;
    EXPECT_EQ(pma.stddev[i], pmb.stddev[i]) << "mem stddev " << i;
  }
}

// At retrain_stride == 1 a session IS the OnlineAlDriver recipe: the
// queued protocol (coalesced drains, off-path retrains) and the
// synchronous convenience path with inline retrains must both reproduce N
// independent driver runs bit for bit. The same suite runs under
// ALAMR_THREADS=1 and =4 (ctest).
TEST(ServeEngine, MatchesSerialDriversAtStride1) {
  const Matrix grid = unit_grid(5);
  const std::vector<std::uint64_t> seeds{11, 22, 33};
  const RandUniform rand_uniform;
  const MaxSigma max_sigma;
  std::vector<const Strategy*> strategies{&rand_uniform, &max_sigma,
                                          &rand_uniform};

  std::vector<OnlineResult> reference;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    OnlineAlDriver driver(
        grid, [](std::span<const double> f) { return synthetic_oracle(f); },
        fast_al());
    Rng rng(seeds[i]);
    reference.push_back(driver.run(*strategies[i], rng));
  }

  {
    SessionEngine engine({.shards = 4, .retrain_workers = 2});
    std::vector<SessionId> ids;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ids.push_back(i + 1);
      engine.open_session(ids.back(), grid, *strategies[i],
                          session_options(seeds[i]));
    }
    drive_batched(engine, ids);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const OnlineResult got = engine.finish_session(ids[i]);
      expect_same_records(reference[i].records, got.records);
      EXPECT_EQ(reference[i].oracle_giveups, got.oracle_giveups);
      EXPECT_EQ(reference[i].exhausted_safe_candidates,
                got.exhausted_safe_candidates);
      expect_same_posterior(reference[i], got, grid);
    }
  }

  {
    SessionEngine engine({.retrain_workers = 0});
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      engine.open_session(i + 1, grid, *strategies[i],
                          session_options(seeds[i]));
      drive_sync(engine, i + 1);
      const OnlineResult got = engine.finish_session(i + 1);
      expect_same_records(reference[i].records, got.records);
      expect_same_posterior(reference[i], got, grid);
    }
  }
}

// The queued protocol with off-path retrain workers and the synchronous
// protocol with inline retrains must produce byte-identical per-session
// outputs at a serving stride, differing only in where the work runs.
TEST(ServeEngine, BatchedArmMatchesSerialArmAtStride) {
  const Matrix grid = unit_grid(5);
  const std::vector<std::uint64_t> seeds{5, 6, 7, 8};
  const MaxSigma strategy;
  constexpr std::size_t kStride = 3;

  SessionEngine batched({.shards = 4, .retrain_workers = 2});
  SessionEngine serial({.retrain_workers = 0});
  std::vector<SessionId> ids;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    ids.push_back(i + 1);
    batched.open_session(ids.back(), grid, strategy,
                         session_options(seeds[i], kStride));
    serial.open_session(ids.back(), grid, strategy,
                        session_options(seeds[i], kStride));
  }
  drive_batched(batched, ids);
  for (const SessionId id : ids) drive_sync(serial, id);
  for (const SessionId id : ids) {
    const OnlineResult a = batched.finish_session(id);
    const OnlineResult b = serial.finish_session(id);
    expect_same_records(a.records, b.records);
    expect_same_posterior(a, b, grid);
  }
}

// Evict-to-disk then restore-by-id mid-run must continue the trajectory
// byte-identically to the uninterrupted session — including the stride
// phase of the retrain schedule, which is re-derived from the records.
TEST(ServeEvictRestore, MidRunByteIdentity) {
  const Matrix grid = unit_grid(5);
  const MaxSigma strategy;
  constexpr std::uint64_t kSeed = 99;
  constexpr std::size_t kStride = 2;

  SessionEngine reference_engine({.retrain_workers = 1});
  reference_engine.open_session(1, grid, strategy,
                                session_options(kSeed, kStride));
  drive_sync(reference_engine, 1);
  const OnlineResult reference = reference_engine.finish_session(1);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "alamr_serve_evict";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SessionOptions options = session_options(kSeed, kStride);
  options.checkpoint = dir / "tenant1.ck";

  SessionEngine engine({.retrain_workers = 1});
  engine.open_session(1, grid, strategy, options);
  for (int step = 0; step < 4; ++step) {
    const Suggestion s = engine.suggest(1);
    ASSERT_FALSE(s.done);
    const auto [cost, memory] = synthetic_oracle(s.features);
    engine.observe(1, cost, memory);
  }
  engine.evict_session(1);
  EXPECT_EQ(engine.session_count(), 0u);
  EXPECT_THROW(engine.suggest(1), std::invalid_argument);

  engine.restore_session(1, grid, strategy, options);
  drive_sync(engine, 1);
  const OnlineResult resumed = engine.finish_session(1);
  expect_same_records(reference.records, resumed.records);
  expect_same_posterior(reference, resumed, grid);
  std::filesystem::remove_all(dir);
}

// A tenant whose fault plan keeps firing cholesky.non_psd degrades down
// its own ladder; co-hosted tenants stay healthy and their trajectories
// are byte-identical to running them alone.
TEST(ServeDegradeIsolation, ArmedTenantDoesNotPerturbNeighbors) {
  const Matrix grid = unit_grid(5);
  const MaxSigma strategy;

  SessionOptions armed = session_options(50);
  armed.al.plan = faults::FaultPlan::parse("seed=7;cholesky.non_psd:p=1");

  SessionEngine engine({.shards = 2, .retrain_workers = 2});
  engine.open_session(1, grid, strategy, session_options(40));
  engine.open_session(2, grid, strategy, armed);
  engine.open_session(3, grid, strategy, session_options(60));
  drive_batched(engine, {1, 2, 3});

  const SessionStatus mid = engine.status(2);
  EXPECT_NE(mid.cost_health, resilience::Health::kHealthy);
  EXPECT_NE(mid.cost_active, alamr::gp::BackendKind::kExact);
  EXPECT_EQ(engine.status(1).cost_health, resilience::Health::kHealthy);
  EXPECT_EQ(engine.status(3).cost_health, resilience::Health::kHealthy);

  const OnlineResult left = engine.finish_session(1);
  const OnlineResult right = engine.finish_session(3);
  for (const std::uint64_t seed : {std::uint64_t{40}, std::uint64_t{60}}) {
    SessionEngine solo({.retrain_workers = 1});
    solo.open_session(9, grid, strategy, session_options(seed));
    drive_sync(solo, 9);
    const OnlineResult alone = solo.finish_session(9);
    const OnlineResult& together = seed == 40 ? left : right;
    expect_same_records(alone.records, together.records);
  }
}

// The request protocol's contract errors: they must throw
// OnlineContractError (or invalid_argument for unknown ids) without
// corrupting the session.
TEST(ServeEngine, ProtocolContractViolationsThrow) {
  const Matrix grid = unit_grid(4);
  const RandUniform strategy;
  SessionEngine engine({.retrain_workers = 0});

  EXPECT_THROW(engine.suggest(7), std::invalid_argument);
  EXPECT_THROW(engine.enqueue_suggest(7), std::invalid_argument);

  engine.open_session(1, grid, strategy, session_options(3));
  EXPECT_THROW(engine.open_session(1, grid, strategy, session_options(3)),
               OnlineContractError);
  EXPECT_THROW(engine.observe(1, 1.0, 1.0), OnlineContractError);
  EXPECT_THROW(engine.observe_failure(1), OnlineContractError);
  EXPECT_THROW(engine.checkpoint_session(1), OnlineContractError);

  const Suggestion s = engine.suggest(1);
  ASSERT_FALSE(s.done);
  EXPECT_THROW(engine.suggest(1), OnlineContractError);
  EXPECT_THROW(engine.observe(1, 0.0, 1.0), OnlineContractError);
  EXPECT_THROW(engine.observe(1, 1.0, -2.0), OnlineContractError);
  engine.observe(1, 1.0, 1.0);  // the session survives the bad reports

  engine.open_session(2, grid, strategy, session_options(4));
  EXPECT_THROW(engine.query_posterior(2, grid), OnlineContractError);

  EXPECT_TRUE(engine.status(1).records == 1);
  engine.close_session(1);
  engine.close_session(2);
  EXPECT_EQ(engine.session_count(), 0u);
}

// An abandoned suggestion (observe_failure) is dropped exactly like a
// driver oracle give-up: censored from the pool, counted, and the run
// continues.
TEST(ServeEngine, ObserveFailureCensorsCandidate) {
  const Matrix grid = unit_grid(4);
  const RandUniform strategy;
  SessionEngine engine({.retrain_workers = 1});
  engine.open_session(1, grid, strategy, session_options(12));

  bool failed_one = false;
  for (;;) {
    const Suggestion s = engine.suggest(1);
    if (s.done) break;
    if (!failed_one && !s.initial_phase) {
      failed_one = true;
      engine.observe_failure(1);
      continue;
    }
    const auto [cost, memory] = synthetic_oracle(s.features);
    engine.observe(1, cost, memory);
  }
  const SessionStatus status = engine.status(1);
  EXPECT_EQ(status.oracle_giveups, 1u);
  const OnlineResult result = engine.finish_session(1);
  EXPECT_EQ(result.oracle_giveups, 1u);
  // One AL iteration was consumed by the failure, so one fewer record.
  EXPECT_EQ(result.records.size(),
            session_options(12).al.n_init + session_options(12).al.iterations -
                1);
}

// Posterior queries ride the drain sweep and serve the session's current
// epoch; trace counters expose the coalescing and the retrain swaps.
TEST(ServeEngine, QueriesTraceCountersAndEpochs) {
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  const Matrix grid = unit_grid(4);
  const RandUniform strategy;
  SessionEngine engine({.shards = 2, .retrain_workers = 1});
  engine.open_session(1, grid, strategy, session_options(21));
  engine.open_session(2, grid, strategy, session_options(31));

  trace::TraceCollector outer;
  {
    trace::ScopedCollector scope(outer);
    drive_batched(engine, {1, 2});
    engine.enqueue_query(1, grid);
    engine.enqueue_query(2, grid);
    engine.drain();
  }
  const std::optional<QueryResult> q1 = engine.take_query_result(1);
  const std::optional<QueryResult> q2 = engine.take_query_result(2);
  ASSERT_TRUE(q1.has_value());
  ASSERT_TRUE(q2.has_value());
  EXPECT_EQ(q1->cost.mean.size(), grid.rows());
  for (const double v : q1->cost.stddev) EXPECT_GE(v, 0.0);
  EXPECT_FALSE(engine.take_query_result(1).has_value());

  const trace::TraceReport report = outer.report();
  EXPECT_GT(report.counter("serve.batched_sweeps"), 0u);
  EXPECT_GT(report.counter("serve.coalesce_width"),
            report.counter("serve.batched_sweeps"));

  const trace::TraceReport session = engine.session_trace(1);
  EXPECT_GT(session.counter("serve.requests"), 0u);
  EXPECT_GT(session.counter("serve.retrain_swaps"), 0u);
  EXPECT_GT(engine.status(1).epoch, 0u);
  trace::set_enabled(was_enabled);
}

// Sharing one immutable GridContext between tenants on a bit-identical
// grid changes nothing observable: two tenants of one engine (one shared
// context) match the same tenants each alone in its own engine.
TEST(ServeEngine, SharedGridContextIsByteInvisible) {
  const Matrix grid = unit_grid(5);
  const MaxSigma strategy;
  SessionEngine shared({.retrain_workers = 1});
  shared.open_session(1, grid, strategy, session_options(77));
  shared.open_session(2, grid, strategy, session_options(78));
  drive_batched(shared, {1, 2});
  const OnlineResult shared_1 = shared.finish_session(1);
  const OnlineResult shared_2 = shared.finish_session(2);

  SessionEngine alone_1({.retrain_workers = 1});
  SessionEngine alone_2({.retrain_workers = 1});
  alone_1.open_session(1, grid, strategy, session_options(77));
  alone_2.open_session(2, grid, strategy, session_options(78));
  drive_batched(alone_1, {1});
  drive_batched(alone_2, {2});
  expect_same_records(shared_1.records, alone_1.finish_session(1).records);
  expect_same_records(shared_2.records, alone_2.finish_session(2).records);
}

// Concurrent shard traffic: several client threads drive disjoint tenant
// sets through the sync path while also pushing queued queries through
// competing drain() calls. Run under TSan by check.sh's serving leg.
TEST(ServeConcurrent, MixedShardTraffic) {
  const Matrix grid = unit_grid(4);
  const RandUniform strategy;
  SessionEngine engine({.shards = 8, .retrain_workers = 2});

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kPerThread = 4;
  SessionOptions options;
  options.al = fast_al(1, 3);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < kPerThread; ++k) {
      options.seed = 100 + t * kPerThread + k;
      engine.open_session(t * kPerThread + k + 1, grid, strategy, options);
    }
  }

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const SessionId id = t * kPerThread + k + 1;
        bool queried = false;
        for (;;) {
          const Suggestion s = engine.suggest(id);
          if (s.done) break;
          const auto [cost, memory] = synthetic_oracle(s.features);
          engine.observe(id, cost, memory);
          if (!queried) {
            queried = true;
            engine.enqueue_query(id, grid);
            while (!engine.take_query_result(id).has_value()) {
              engine.drain();
              std::this_thread::yield();
            }
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  for (std::size_t id = 1; id <= kThreads * kPerThread; ++id) {
    const OnlineResult result = engine.finish_session(id);
    EXPECT_EQ(result.records.size(), 1u + 3u);  // n_init + iterations
  }
}

}  // namespace
