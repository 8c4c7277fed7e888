// The online AL step against independent references: the textbook loop of
// reference_online.hpp (both SessionEngine arms and OnlineAlDriver must
// reproduce it bit for bit at retrain stride 1), and FNV-1a pins of
// OnlineAlDriver runs taken before the driver became a scheduler over the
// shared session step. The suite runs at ALAMR_THREADS=1 and =4 (ctest);
// the pins hold the scalar SIMD tier internally, like the byte goldens.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alamr/core/online.hpp"
#include "alamr/core/serve.hpp"
#include "alamr/linalg/simd.hpp"
#include "reference_online.hpp"

namespace {

using namespace alamr;
using namespace alamr::core;
using linalg::Matrix;
namespace simd = alamr::linalg::simd;

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

OnlineAlOptions effort(std::size_t n_init, std::size_t iters,
                       std::size_t initial_iters) {
  OnlineAlOptions options;
  options.n_init = n_init;
  options.iterations = iters;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = initial_iters;
  options.refit.max_opt_iterations = 4;
  return options;
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

void expect_same_prediction(const gp::Prediction& a, const gp::Prediction& b,
                            const char* what) {
  ASSERT_EQ(a.mean.size(), b.mean.size());
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    EXPECT_EQ(a.mean[i], b.mean[i]) << what << " mean " << i;
    EXPECT_EQ(a.stddev[i], b.stddev[i]) << what << " stddev " << i;
  }
}

struct ReferenceCase {
  std::size_t per_axis;
  OnlineAlOptions options;
  std::shared_ptr<const Strategy> strategy;
  std::uint64_t seed;
};

std::vector<ReferenceCase> reference_cases() {
  OnlineAlOptions rgma = effort(3, 10, 20);
  rgma.memory_limit_log10 = std::log10(2.0);
  return {
      {5, effort(2, 6, 10), std::make_shared<RandUniform>(), 11},
      {5, effort(2, 6, 10), std::make_shared<MaxSigma>(), 22},
      {5, effort(3, 8, 20), std::make_shared<MinPred>(), 33},
      {6, rgma, std::make_shared<Rgma>(rgma.memory_limit_log10), 9},
  };
}

// The driver, the engine's synchronous arm (inline retrains) and its
// queued arm (coalesced drains, off-path retrain workers) all equal the
// textbook loop: records bit for bit, and the final posteriors over the
// grid bit for bit.
TEST(ServeReference, EngineArmsAndDriverMatchTextbookLoop) {
  for (const ReferenceCase& c : reference_cases()) {
    SCOPED_TRACE(std::string(c.strategy->name()) + " seed " +
                 std::to_string(c.seed));
    const Matrix grid = unit_grid(c.per_axis);
    const Matrix scaled = data::FeatureScaler::fit(grid).transform(grid);
    const alamr::testing::ReferenceOnlineRun ref =
        alamr::testing::reference_online_run(grid, synthetic_oracle,
                                             c.options, *c.strategy, c.seed);
    const gp::Prediction ref_cost = ref.cost.predict(scaled);
    const gp::Prediction ref_mem = ref.memory.predict(scaled);
    const auto expect_matches = [&](const OnlineResult& got) {
      expect_same_records(ref.records, got.records);
      expect_same_prediction(ref_cost, got.cost_model->predict(scaled),
                             "cost");
      expect_same_prediction(ref_mem, got.memory_model->predict(scaled),
                             "memory");
    };

    OnlineAlDriver driver(grid, synthetic_oracle, c.options);
    stats::Rng rng(c.seed);
    expect_matches(driver.run(*c.strategy, rng));

    SessionOptions session;
    session.al = c.options;
    session.seed = c.seed;
    for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
      SessionEngine engine({.retrain_workers = workers});
      engine.open_session(1, grid, *c.strategy, session);
      for (;;) {
        std::optional<Suggestion> s;
        if (workers == 0) {
          s = engine.suggest(1);
        } else {
          engine.enqueue_suggest(1);
          engine.drain();
          s = engine.take_suggestion(1);
        }
        ASSERT_TRUE(s.has_value());
        if (s->done) break;
        const auto [cost, memory] = synthetic_oracle(s->features);
        if (workers == 0) {
          engine.observe(1, cost, memory);
        } else {
          engine.enqueue_observe(1, cost, memory);
          engine.drain();
        }
      }
      expect_matches(engine.finish_session(1));
    }
  }
}

// --- Driver pins ------------------------------------------------------------

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level) : saved_(simd::active_level()) {
    EXPECT_TRUE(simd::set_level(level));
  }
  ~ScopedSimdLevel() { simd::set_level(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  simd::Level saved_;
};

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
};

struct Pin {
  const char* name;
  std::size_t per_axis;
  OnlineAlOptions options;
  std::function<std::unique_ptr<Strategy>()> strategy;
  std::uint64_t seed;
  std::size_t failing_calls;  // leading oracle calls that throw
  std::uint64_t records;      // records + giveups + exhausted flag
  std::uint64_t posterior;    // cost then memory mean/stddev over the grid
  std::uint64_t rng;          // the caller's rng state after run()
};

// Computed at the scalar tier by OnlineAlDriver before it became a
// scheduler over the shared session step; the engine at stride 1 gave the
// same record and posterior hashes for every configuration it can run.
std::vector<Pin> driver_pins() {
  OnlineAlOptions rgma = effort(3, 10, 20);
  rgma.memory_limit_log10 = std::log10(2.0);
  OnlineAlOptions timeouts = effort(3, 8, 20);
  timeouts.plan = faults::FaultPlan::parse("seed=21;acquire.timeout:p=0.8");
  OnlineAlOptions non_psd = effort(3, 8, 20);
  non_psd.plan = faults::FaultPlan::parse("cholesky.non_psd:p=1");
  const auto rand_uniform = [] { return std::make_unique<RandUniform>(); };
  const auto goodness = [] { return std::make_unique<RandGoodness>(); };
  return {
      {"stride1_rand_uniform_11", 5, effort(2, 6, 10), rand_uniform, 11, 0,
       0x5e2e5d797db9bf5bULL, 0xf7637a857e967abcULL, 0xdc903eb77f8dbd55ULL},
      {"stride1_max_sigma_22", 5, effort(2, 6, 10),
       [] { return std::make_unique<MaxSigma>(); }, 22, 0,
       0xe20155b0c8f6e222ULL, 0x6f8708ccaf675279ULL, 0xd80036a8298ae8ecULL},
      {"stride1_rand_uniform_33", 5, effort(2, 6, 10), rand_uniform, 33, 0,
       0xa40d47301560f957ULL, 0x19a9698e7fa2c191ULL, 0xf201ecd78062cf43ULL},
      {"rgma_memory_limit", 6, rgma,
       [] { return std::make_unique<Rgma>(std::log10(2.0)); }, 9, 0,
       0xd1a56e2586e936e5ULL, 0x13e0b5762cddc289ULL, 0xc1ce60a6ec8bd888ULL},
      {"oracle_transient", 6, effort(3, 8, 20), goodness, 11, 2,
       0x8a14dd2c3cc90c1dULL, 0xba43ded588d07af9ULL, 0x7afa734fb31711b5ULL},
      {"oracle_persistent", 6, effort(3, 8, 20), goodness, 11, 3,
       0x42146d25556a78abULL, 0x080bf55985deee3cULL, 0xc2000a2ed14f5c03ULL},
      {"acquire_timeout", 6, timeouts, goodness, 9, 0, 0xe037af7575606620ULL,
       0x1a7699ccc1525da6ULL, 0xe08b1617dd47dbd6ULL},
      {"cholesky_non_psd", 6, non_psd,
       [] { return std::make_unique<MinPred>(); }, 5, 0,
       0xdf41fb36c09e6857ULL, 0x203e953282179e8bULL, 0xb1330f032ec65ccaULL},
  };
}

TEST(OnlineDriverPin, RecordsPosteriorsAndCallerRngMatchPins) {
  const ScopedSimdLevel scalar(simd::Level::kScalar);
  for (const Pin& pin : driver_pins()) {
    SCOPED_TRACE(pin.name);
    const Matrix grid = unit_grid(pin.per_axis);
    std::size_t calls = 0;
    const ExperimentOracle oracle =
        [&](std::span<const double> f) -> std::pair<double, double> {
      if (++calls <= pin.failing_calls) {
        throw std::runtime_error("node offline");
      }
      return synthetic_oracle(f);
    };
    OnlineAlDriver driver(grid, oracle, pin.options);
    stats::Rng rng(pin.seed);
    const OnlineResult result = driver.run(*pin.strategy(), rng);

    Fnv1a records;
    for (const OnlineRecord& r : result.records) {
      records.add(static_cast<std::uint64_t>(r.grid_row));
      records.add(r.cost);
      records.add(r.memory);
      records.add(r.predicted_cost_log10);
      records.add(r.predicted_mem_log10);
      records.add(r.cumulative_cost);
      records.add(r.cumulative_regret);
      records.add(std::uint64_t{r.initial_phase ? 1U : 0U});
    }
    records.add(static_cast<std::uint64_t>(result.oracle_giveups));
    records.add(std::uint64_t{result.exhausted_safe_candidates ? 1U : 0U});

    Fnv1a posterior;
    const Matrix scaled = data::FeatureScaler::fit(grid).transform(grid);
    for (const auto* model :
         {result.cost_model.get(), result.memory_model.get()}) {
      const gp::Prediction p = model->predict(scaled);
      for (const double v : p.mean) posterior.add(v);
      for (const double v : p.stddev) posterior.add(v);
    }

    Fnv1a caller_rng;
    const stats::Rng::State state = rng.save_state();
    for (const std::uint64_t w : state.words) caller_rng.add(w);
    caller_rng.add(state.cached_normal);
    caller_rng.add(std::uint64_t{state.has_cached_normal ? 1U : 0U});

    EXPECT_EQ(records.h, pin.records);
    EXPECT_EQ(posterior.h, pin.posterior);
    EXPECT_EQ(caller_rng.h, pin.rng);
  }
}

}  // namespace
