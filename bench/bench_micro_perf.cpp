// P1 — microbenchmarks (google-benchmark): the kernels whose cost governs
// the AL loop (Cholesky, gram construction, GPR fit/predict scaling in n)
// and the AMR solver's cell-update throughput.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "alamr/amr/solver.hpp"
#include "alamr/core/batch.hpp"
#include "alamr/core/serve.hpp"
#include "alamr/core/strategies.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/gp/backend.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/linalg/cholesky.hpp"
#include "alamr/linalg/simd.hpp"
#include "alamr/linalg/workspace.hpp"
#include "alamr/stats/rng.hpp"
#include "reference_cholesky.hpp"
#include "synthetic_dataset.hpp"

// P5 — BM_ArenaPass reports heap allocations per AL pass, so this binary
// counts every operator new. One relaxed atomic increment per allocation:
// noise for the other benchmarks, decisive data for the arena ones.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// The deallocation functions stay out of line: once GCC inlines one into a
// new-expression's cleanup path, it sees free() on a pointer that came from
// operator new and reports -Wmismatched-new-delete, although this
// operator new is malloc underneath.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace alamr;

linalg::Matrix random_points(std::size_t n, std::size_t d, stats::Rng& rng) {
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(0.0, 1.0);
  }
  return x;
}

linalg::Matrix random_spd(std::size_t n, stats::Rng& rng) {
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  linalg::Matrix spd = linalg::aat(a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

void BM_Cholesky(benchmark::State& state) {
  stats::Rng rng(1);
  const auto a = random_spd(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto factor = linalg::CholeskyFactor::factor(a);
    benchmark::DoNotOptimize(factor);
  }
}
BENCHMARK(BM_Cholesky)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// O(n^2) rank-1 extension vs the O(n^3) BM_Cholesky refactor above. The
// per-iteration copy of the base factor is itself O(n^2), so the numbers
// are an upper bound on the real extension cost.
void BM_CholeskyExtend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(6);
  const auto spd = random_spd(n + 1, rng);
  linalg::Matrix lead(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) lead(i, j) = spd(i, j);
  }
  const auto base = *linalg::CholeskyFactor::factor(lead);
  std::vector<double> row(n);
  for (std::size_t i = 0; i < n; ++i) row[i] = spd(n, i);
  const double diag = spd(n, n);
  for (auto _ : state) {
    auto factor = base;
    benchmark::DoNotOptimize(factor.extend(row, diag));
  }
}
BENCHMARK(BM_CholeskyExtend)->Arg(50)->Arg(100)->Arg(200)->Arg(400);

// P3 — the distance cache: kernel-matrix + gradient construction (the body
// of every L-BFGS objective probe) from raw features (Arg 0: the squared
// distances are recomputed each probe) vs from a prebuilt PairwiseDistances
// (Arg 1, what refits actually run). In Arg 1 the cache construction is
// outside the loop: it happens once per training set, not once per probe.
void BM_KernelDistanceCache(benchmark::State& state) {
  const bool cached = state.range(1) != 0;
  stats::Rng rng(3);
  const auto x = random_points(static_cast<std::size_t>(state.range(0)), 5, rng);
  const gp::Kernel kernel = gp::make_paper_kernel();
  const gp::PairwiseDistances prebuilt = gp::PairwiseDistances::train(x);
  std::vector<linalg::Matrix> gradients;
  for (auto _ : state) {
    if (cached) {
      benchmark::DoNotOptimize(
          kernel.gram_with_gradients_cached(prebuilt, gradients));
    } else {
      const gp::PairwiseDistances dist = gp::PairwiseDistances::train(x);
      benchmark::DoNotOptimize(
          kernel.gram_with_gradients_cached(dist, gradients));
    }
  }
}
BENCHMARK(BM_KernelDistanceCache)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({600, 0})
    ->Args({600, 1});

// A K* build: the n x M training-by-candidate cross-covariance every pool
// sweep starts from, read from a prebuilt rectangular cache (n = 300
// training points, M = 400 candidates, d = 5).
void BM_KernelCrossCached(benchmark::State& state) {
  stats::Rng rng(5);
  const auto x = random_points(300, 5, rng);
  const auto pool = random_points(400, 5, rng);
  const gp::Kernel kernel = gp::make_paper_kernel(1.3, 0.7, 0.02);
  const gp::PairwiseDistances dist = gp::PairwiseDistances::cross(x, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.cross_cached(dist));
  }
}
BENCHMARK(BM_KernelCrossCached);

// P3 — blocked right-looking Cholesky (factor) vs the unblocked
// left-looking seed algorithm (factor_reference). Same bits, different
// cache behavior: the blocked panels keep the working set resident.
void BM_BlockedCholesky(benchmark::State& state) {
  const bool blocked = state.range(1) != 0;
  stats::Rng rng(1);
  const auto a = random_spd(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    auto factor = blocked ? linalg::CholeskyFactor::factor(a)
                          : test_reference::factor_reference(a);
    benchmark::DoNotOptimize(factor);
  }
}
BENCHMARK(BM_BlockedCholesky)
    ->Args({300, 0})
    ->Args({300, 1})
    ->Args({600, 0})
    ->Args({600, 1});

// P3 — blocked panel inverse (the LML gradient's K^{-1}) vs the
// column-at-a-time reference.
void BM_CholeskyInverse(benchmark::State& state) {
  const bool blocked = state.range(1) != 0;
  stats::Rng rng(1);
  const auto a = random_spd(static_cast<std::size_t>(state.range(0)), rng);
  const auto factor = *linalg::CholeskyFactor::factor(a);
  for (auto _ : state) {
    auto inv = blocked ? factor.inverse()
                       : test_reference::inverse_reference(factor);
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_CholeskyInverse)->Args({300, 0})->Args({300, 1});

// P3 — one full hyperparameter-refit objective evaluation (LML value +
// gradient) at fixed n. Arg 1 is the real path refits run at the start
// point and at every line-search trial that passes Armijo:
// log_marginal_likelihood's value phase plus gradient phase, consuming the
// training-distance cache and the blocked factorization. Arg 0 replays the pre-cache recipe through public
// API: direct gram_with_gradients from features plus the unblocked
// reference factorization, followed by the identical solve/inverse/trace
// tail. The ratio is what each L-BFGS iteration gained.
void BM_RefitObjective(benchmark::State& state) {
  const bool optimized = state.range(1) != 0;
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(4);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.optimize = false;
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  const std::vector<double> theta = gpr.kernel().log_params();
  std::vector<double> grad(theta.size());

  if (optimized) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(gpr.log_marginal_likelihood(theta, grad));
    }
    return;
  }
  // Center y the way fit(normalize_y) does, so both arms factor the same K.
  double mean = 0.0;
  for (const double v : y) mean += v;
  mean /= static_cast<double>(n);
  std::vector<double> yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - mean;
  for (auto _ : state) {
    gp::Kernel probe = gpr.kernel();
    probe.set_log_params(theta);
    std::vector<linalg::Matrix> gradients;
    const linalg::Matrix k = probe.gram_with_gradients_cached(
        gp::PairwiseDistances::train(x), gradients);
    const auto factor = test_reference::factor_reference(k);
    const linalg::Vector alpha = factor->solve(yc);
    double lml = -0.5 * linalg::dot(yc, alpha) - 0.5 * factor->log_det();
    const linalg::Matrix k_inv = test_reference::inverse_reference(*factor);
    for (std::size_t j = 0; j < gradients.size(); ++j) {
      const linalg::Matrix& dk = gradients[j];
      double trace = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        const auto dk_row = dk.row(r);
        const auto kinv_row = k_inv.row(r);
        double off_acc = 0.0;
        for (std::size_t c = r + 1; c < n; ++c) {
          off_acc += (alpha[r] * alpha[c] - kinv_row[c]) * dk_row[c];
        }
        trace += (alpha[r] * alpha[r] - kinv_row[r]) * dk_row[r] + 2.0 * off_acc;
      }
      grad[j] = 0.5 * trace;
    }
    benchmark::DoNotOptimize(lml);
    benchmark::DoNotOptimize(grad);
  }
}
BENCHMARK(BM_RefitObjective)->Args({300, 0})->Args({300, 1});

// The value-only LML — what the Nelder-Mead rung of the recovery ladder
// and finite-difference checks evaluate. Not what an L-BFGS line-search
// trial costs: the value phase a trial runs also builds the dK matrices,
// and only a trial that passes Armijo goes on to the O(n^3) inverse and
// the trace.
// Skips the gradient matrices and the inverse, so the distance-cache and
// blocked-factor gains dominate the measurement.
void BM_RefitObjectiveValue(benchmark::State& state) {
  const bool optimized = state.range(1) != 0;
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(4);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.optimize = false;
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  const std::vector<double> theta = gpr.kernel().log_params();

  if (optimized) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(gpr.log_marginal_likelihood(theta, {}));
    }
    return;
  }
  // Seed recipe: rebuild the Gram matrix from raw features and factor with
  // the unblocked reference algorithm, as the pre-optimization code did on
  // every objective probe.
  double mean = 0.0;
  for (const double v : y) mean += v;
  mean /= static_cast<double>(n);
  std::vector<double> yc(n);
  for (std::size_t i = 0; i < n; ++i) yc[i] = y[i] - mean;
  for (auto _ : state) {
    gp::Kernel probe = gpr.kernel();
    probe.set_log_params(theta);
    const linalg::Matrix k =
        probe.gram_cached(gp::PairwiseDistances::train(x));
    const auto factor = test_reference::factor_reference(k);
    const linalg::Vector alpha = factor->solve(yc);
    double lml = -0.5 * linalg::dot(yc, alpha) - 0.5 * factor->log_det();
    benchmark::DoNotOptimize(lml);
  }
}
BENCHMARK(BM_RefitObjectiveValue)->Args({300, 0})->Args({300, 1});

void BM_GprFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(4);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.restarts = 0;
  options.max_opt_iterations = 5;
  for (auto _ : state) {
    gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options);
    gpr.fit(x, y, rng);
    benchmark::DoNotOptimize(gpr);
  }
}
BENCHMARK(BM_GprFit)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

// The AL refit pair: posterior update after one new training point, from
// scratch (n^2 kernel evaluations + O(n^3) factor) vs incrementally
// (n kernel evaluations + O(n^2) extension). Optimization is disabled in
// both so the numbers isolate the posterior math the fast path replaces.
void BM_GprFullRefit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(7);
  const auto x = random_points(n + 1, 5, rng);
  std::vector<double> y(n + 1);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.optimize = false;
  for (auto _ : state) {
    gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options);
    gpr.fit(x, y, rng);
    benchmark::DoNotOptimize(gpr);
  }
}
BENCHMARK(BM_GprFullRefit)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_GprAddPoint(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(7);  // same data as BM_GprFullRefit
  const auto x = random_points(n + 1, 5, rng);
  std::vector<double> y(n + 1);
  for (double& v : y) v = rng.normal();
  linalg::Matrix x0(n, 5);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 5; ++j) x0(i, j) = x(i, j);
  }
  gp::GprOptions options;
  options.optimize = false;
  gp::GaussianProcessRegressor base(gp::make_paper_kernel(), options);
  base.fit(x0, std::span<const double>(y.data(), n), rng);
  for (auto _ : state) {
    // The deep copy of the fitted model is O(n^2), so as with
    // BM_CholeskyExtend this is an upper bound on the add_point cost.
    gp::GaussianProcessRegressor gpr = base;
    gpr.add_point(x.row(n), y[n]);
    benchmark::DoNotOptimize(gpr);
  }
}
BENCHMARK(BM_GprAddPoint)->Arg(50)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_GprPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(5);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.optimize = false;
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  const auto queries = random_points(200, 5, rng);
  for (auto _ : state) {
    auto pred = gpr.predict(queries);
    benchmark::DoNotOptimize(pred);
  }
}
BENCHMARK(BM_GprPredict)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

// P5 — the fused batched posterior vs the per-candidate path it
// supersedes, at n = 300 training points and 300 candidates. Arg 0 is the
// historical per-candidate recipe: one 1-row predict() per candidate,
// each rebuilding its own 1-column cross-covariance and re-streaming the
// factor. Arg 1 is one GEMM-shaped sweep over a prebuilt cross matrix:
// predict_batch_panel with the panel invalidated first, so every sweep
// re-solves the full Z = L^-1 K* (the work a theta move costs). The
// acceptance bar is arm 1 >= 1.5x arm 0 (BENCH_PR5.json: BM_PredictBatch).
void BM_PredictBatch(benchmark::State& state) {
  const bool fused = state.range(1) != 0;
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 300;
  stats::Rng rng(5);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.optimize = false;
  gp::GaussianProcessRegressor gpr(gp::make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  const auto queries = random_points(m, 5, rng);

  if (fused) {
    const linalg::Matrix k_star = gpr.kernel().cross(x, queries);
    const std::vector<double> prior = gpr.kernel().diagonal(queries);
    std::vector<double> mean(m);
    std::vector<double> stddev(m);
    for (auto _ : state) {
      gpr.panel_invalidate();
      gpr.predict_batch_panel(k_star, prior, mean, stddev);
      benchmark::DoNotOptimize(mean);
      benchmark::DoNotOptimize(stddev);
    }
    return;
  }
  linalg::Matrix xq(1, 5);
  std::vector<double> mean(m);
  std::vector<double> stddev(m);
  for (auto _ : state) {
    for (std::size_t q = 0; q < m; ++q) {
      const auto src = queries.row(q);
      std::copy(src.begin(), src.end(), xq.row(0).begin());
      const gp::Prediction pred = gpr.predict(xq);
      mean[q] = pred.mean[0];
      stddev[q] = pred.stddev[0];
    }
    benchmark::DoNotOptimize(mean);
    benchmark::DoNotOptimize(stddev);
  }
}
BENCHMARK(BM_PredictBatch)->Args({300, 0})->Args({300, 1});

// P8 — the steady-state AL sweep the candidate panel accelerates: each
// iteration learns one point (O(n^2) factor extension), appends its
// cross-covariance row, and re-sweeps all M = 300 candidates through
// predict_batch_panel, which resumes the forward substitution at the one
// new row (O(M n)). Every 25 iterations the model rewinds to the base fit
// (outside timing) so the factor stays near n; the panel is re-warmed
// inside the paused region, so the timed sweeps are pure appends, which
// keeps the median stable under the bench-trend gate's short runs. The
// full re-solve arm (/0) is recorded in BENCH_PR8.json. Counter deltas
// (rows_appended / rebuilds) are read per run — the global sink is
// cleared at entry so repetitions don't bleed together.
void BM_SweepIncremental(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 300;
  constexpr std::size_t kWindow = 25;
  core::trace::global_collector().clear();
  const bool was_enabled = core::trace::enabled();
  core::trace::set_enabled(true);
  stats::Rng rng(21);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions options;
  options.optimize = false;
  gp::GaussianProcessRegressor base(gp::make_paper_kernel(), options);
  base.fit(x, y, rng);
  base.reserve_additional(kWindow);
  base.panel_reserve(n + kWindow, m);
  const auto queries = random_points(m, 5, rng);
  const linalg::Matrix base_k_star = base.kernel().cross(x, queries);
  const std::vector<double> prior = base.kernel().diagonal(queries);
  const auto x_new = random_points(kWindow, 5, rng);
  const linalg::Matrix new_rows = base.kernel().cross(x_new, queries);

  std::vector<double> mean(m);
  std::vector<double> stddev(m);
  gp::GaussianProcessRegressor gpr = base;
  linalg::Matrix k_star = base_k_star;
  k_star.reserve(n + kWindow, m);
  std::size_t step = kWindow;  // forces the reset on the first iteration
  std::uint64_t sweeps = 0;
  for (auto _ : state) {
    if (step == kWindow) {
      state.PauseTiming();
      gpr = base;
      k_star = base_k_star;
      k_star.reserve(n + kWindow, m);
      gpr.predict_batch_panel(k_star, prior, mean, stddev);
      step = 0;
      state.ResumeTiming();
    }
    gpr.add_point(x_new.row(step), 0.5);
    k_star.push_row(new_rows.row(step));
    gpr.predict_batch_panel(k_star, prior, mean, stddev);
    ++step;
    ++sweeps;
    benchmark::DoNotOptimize(mean);
    benchmark::DoNotOptimize(stddev);
  }
  core::trace::set_enabled(was_enabled);
  const core::trace::TraceReport report = core::trace::global_report();
  state.counters["rows_appended"] =
      static_cast<double>(report.counter("panel.rows_appended"));
  state.counters["rebuilds"] =
      static_cast<double>(report.counter("panel.rebuilds"));
  state.counters["sweeps"] = static_cast<double>(sweeps);
}
BENCHMARK(BM_SweepIncremental)->Args({50, 1})->Args({200, 1})->Args({800, 1});

// P5 — one full AL pass through the public simulator API, with heap
// allocations counted by this binary's operator-new override.
// allocs_per_iter is the decisive counter: the arena path's steady-state
// predict phase contributes zero. The scalar per-pass posterior arm (/0)
// is recorded in BENCH_PR5.json.
void BM_ArenaPass(benchmark::State& state) {
  const data::Dataset dataset = testing::synthetic_amr_dataset(200, 99);
  core::AlOptions options;
  options.n_test = 40;
  options.n_init = 30;
  options.max_iterations = 50;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 30;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 0;
  const core::AlSimulator simulator(dataset, options);
  const core::Rgma rgma(simulator.memory_limit_log10());
  stats::Rng partition_rng(31);
  const data::Partition partition = data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);
  std::uint64_t allocs = 0;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    stats::Rng rng(77);
    const std::uint64_t before = g_alloc_count.load();
    auto result = simulator.run_with_partition(rgma, partition, rng);
    allocs += g_alloc_count.load() - before;
    iterations += result.iterations.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(iterations);
}
BENCHMARK(BM_ArenaPass)->Args({200, 1})->Unit(benchmark::kMillisecond);

// P7 — PosteriorBackend cost at the fit and candidate-sweep bottlenecks.
// Arg 0 is the exact backend (the seed GPR recipe through the interface),
// Arg 1 the subset-of-data backend at capacity 128 — the configuration
// that makes 10^5-candidate pools tractable (EXPERIMENTS.md §P7). The fit
// arms isolate the approximation's O(n^3) -> O(m^3) win. In the sweep
// arms both backends keep their cross matrix and candidate panel across
// repeated sweeps of the same pool, so each timed sweep is a panel resume
// at unchanged n (the mean pass plus the variance finalize).
gp::BackendOptions bench_backend_options(bool approx) {
  gp::BackendOptions options;
  if (approx) {
    options.kind = gp::BackendKind::kSubsetOfData;
    options.inducing_points = 128;
  }
  return options;
}

void BM_BackendFit(benchmark::State& state) {
  const bool approx = state.range(1) != 0;
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(13);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions fit_options;
  fit_options.optimize = false;  // isolate the linear algebra
  for (auto _ : state) {
    auto backend = gp::make_backend(bench_backend_options(approx),
                                    gp::make_paper_kernel(), fit_options);
    stats::Rng fit_rng(17);
    backend->fit(x, y, fit_rng);
    benchmark::DoNotOptimize(backend);
  }
}
BENCHMARK(BM_BackendFit)->Args({600, 0})->Args({600, 1})->Unit(benchmark::kMillisecond);

void BM_BackendPredictBatch(benchmark::State& state) {
  const bool approx = state.range(1) != 0;
  const auto m = static_cast<std::size_t>(state.range(0));  // candidates
  const std::size_t n = 600;
  stats::Rng rng(19);
  const auto x = random_points(n, 5, rng);
  std::vector<double> y(n);
  for (double& v : y) v = rng.normal();
  gp::GprOptions fit_options;
  fit_options.optimize = false;
  auto backend = gp::make_backend(bench_backend_options(approx),
                                  gp::make_paper_kernel(), fit_options);
  stats::Rng fit_rng(23);
  backend->fit(x, y, fit_rng);

  const auto pool_x = random_points(m, 5, rng);
  const gp::CandidateRef pool{pool_x, {}};
  linalg::Workspace ws;
  for (auto _ : state) {
    const linalg::Workspace::Scope pass(ws);
    const gp::PosteriorSpans post = backend->predict_candidates(pool, ws);
    benchmark::DoNotOptimize(post.mean.data());
    benchmark::DoNotOptimize(post.stddev.data());
  }
}
BENCHMARK(BM_BackendPredictBatch)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

// P6 — the raw dispatch kernels: a strictly-sequential inline loop
// (Arg 0, the bits the scalar table reproduces) vs the runtime-selected
// kernel table (Arg 1). Arg 1 measures whatever level the process
// selected at startup — pin it with ALAMR_SIMD_LEVEL to compare tiers;
// the active level is recorded in the JSON context block (simd_level).
void BM_SimdKernels(benchmark::State& state) {
  const bool vectorized = state.range(1) != 0;
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(9);
  std::vector<double> a(n);
  std::vector<double> b(n);
  std::vector<double> acc(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0);
    b[i] = rng.uniform(-1.0, 1.0);
  }
  if (vectorized) {
    for (auto _ : state) {
      double d = linalg::simd::dot(a.data(), b.data(), n);
      double r2 = linalg::simd::squared_distance(a.data(), b.data(), n);
      linalg::simd::axpy(0.5, a.data(), acc.data(), n);
      benchmark::DoNotOptimize(d);
      benchmark::DoNotOptimize(r2);
      benchmark::DoNotOptimize(acc);
    }
    return;
  }
  for (auto _ : state) {
    double d = 0.0;
    double r2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d += a[i] * b[i];
      const double diff = a[i] - b[i];
      r2 += diff * diff;
    }
    for (std::size_t i = 0; i < n; ++i) acc[i] += 0.5 * a[i];
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(r2);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SimdKernels)->Args({256, 0})->Args({256, 1})->Args({4096, 0})->Args({4096, 1});

// Trajectory fan-out on the thread pool: 4 independent AL trajectories
// at Args({lanes, 1}). Results are bit-identical across lane counts (each
// trajectory has its own derived rng stream); only wall-clock moves.
// run_batch builds the dataset-wide DistanceBase once and hands it to
// every trajectory, replacing each member's from-scratch distance passes
// with gathers; the unshared arms (/0) are recorded in BENCH_PR6.json.
// The 50-pass trajectories mirror the paper's fig4/fig5 workload, where
// per-pass cross/test evaluations dominate the one-time initial fit.
void BM_TrajectoryBatch(benchmark::State& state) {
  const data::Dataset dataset = testing::synthetic_amr_dataset(200, 99);
  core::AlOptions options;
  options.n_test = 40;
  options.n_init = 30;
  options.max_iterations = 50;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 30;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 0;
  const core::AlSimulator simulator(dataset, options);
  const core::Rgma rgma(simulator.memory_limit_log10());
  core::BatchOptions batch;
  batch.trajectories = 4;
  batch.seed = 1234;
  batch.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto results = core::run_batch(simulator, rgma, batch);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_TrajectoryBatch)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// P2: cost of the observability layer on a 100-iteration RGMA trajectory.
// Arg(0) = tracing disabled (every instrumentation call reduces to one
// relaxed atomic load — must be within noise, <= 2%, of the pre-trace
// numbers), Arg(1) = enabled (counters + per-phase timers + per-trajectory
// report). The refit budget is 0 so every iteration takes the incremental
// fast path — the configuration where fixed per-iteration overhead is the
// largest fraction of the work.
void BM_TraceOverhead(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  // Repetitions of this function share the process-wide trace sink;
  // clear it so per-run counter deltas stay attributable to this run.
  core::trace::global_collector().clear();
  const data::Dataset dataset = testing::synthetic_amr_dataset(200, 99);
  core::AlOptions options;
  options.n_test = 40;
  options.n_init = 30;
  options.max_iterations = 100;
  options.initial_fit.restarts = 1;
  options.initial_fit.max_opt_iterations = 30;
  options.refit.restarts = 0;
  options.refit.max_opt_iterations = 0;
  const core::AlSimulator simulator(dataset, options);
  const core::Rgma rgma(simulator.memory_limit_log10());
  stats::Rng partition_rng(31);
  const data::Partition partition = data::make_partition(
      dataset.size(), options.n_test, options.n_init, partition_rng);
  const bool was_enabled = core::trace::enabled();
  core::trace::set_enabled(tracing);
  std::uint64_t incremental = 0;
  std::uint64_t full = 0;
  for (auto _ : state) {
    stats::Rng rng(77);
    auto result = simulator.run_with_partition(rgma, partition, rng);
    incremental = result.trace.counter("gpr.fit_incremental");
    full = result.trace.counter("gpr.fit_full");
    benchmark::DoNotOptimize(result);
  }
  core::trace::set_enabled(was_enabled);
  if (tracing) {
    state.counters["fit_incremental"] = static_cast<double>(incremental);
    state.counters["fit_full"] = static_cast<double>(full);
  }
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_AmrStep(benchmark::State& state) {
  amr::ShockBubbleProblem problem;
  problem.mx = static_cast<int>(state.range(0));
  problem.max_level = 3;
  amr::FvSolver solver(problem);
  solver.mesh().fill_ghosts();
  const double dt = solver.mesh().compute_dt();
  std::size_t cells = 0;
  for (auto _ : state) {
    solver.step(dt);
    cells += solver.mesh().total_cells();
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AmrStep)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_AmrRegrid(benchmark::State& state) {
  amr::ShockBubbleProblem problem;
  problem.mx = 8;
  problem.max_level = static_cast<int>(state.range(0));
  amr::FvSolver solver(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.mesh().regrid());
  }
}
BENCHMARK(BM_AmrRegrid)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// P10 — multi-tenant session engine: requests served per second at
// 64/256/1024 concurrent tenants (BENCH_PR10.json: BM_SessionThroughput).
// Every tenant goes through the queued protocol: drain() coalesces each
// round's suggest work into one micro-batched pass whose sweeps resume the
// cross-iteration candidate panel (O(M n)) over a shared distance base,
// and full refits run on a background worker off the request path. The
// per-session-serial reference arm (/0: fresh O(M n^2) sweeps, inline
// retrains) is recorded in BENCH_PR10.json.
void BM_SessionThroughput(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));

  constexpr std::size_t kPerAxis = 20;  // 400-candidate grid per tenant
  linalg::Matrix grid(kPerAxis * kPerAxis, 2);
  for (std::size_t i = 0; i < kPerAxis; ++i) {
    for (std::size_t j = 0; j < kPerAxis; ++j) {
      grid(i * kPerAxis + j, 0) =
          static_cast<double>(i) / static_cast<double>(kPerAxis - 1);
      grid(i * kPerAxis + j, 1) =
          static_cast<double>(j) / static_cast<double>(kPerAxis - 1);
    }
  }
  const auto oracle = [](std::span<const double> f) {
    return std::pair{0.01 * std::pow(10.0, 2.0 * f[0]),
                     0.5 * std::pow(10.0, 1.5 * f[1])};
  };

  core::SessionOptions options;
  options.al.n_init = 2;
  options.al.iterations = 47;
  options.al.initial_fit.restarts = 1;
  options.al.initial_fit.max_opt_iterations = 8;
  options.al.refit.max_opt_iterations = 1;
  options.retrain_stride = 16;
  const core::MaxSigma strategy;

  std::size_t requests = 0;
  for (auto _ : state) {
    core::SessionEngine engine({.retrain_workers = 1});
    for (core::SessionId id = 1; id <= sessions; ++id) {
      options.seed = 1000 + id;
      engine.open_session(id, grid, strategy, options);
    }
    std::vector<char> done(sessions + 1, 0);
    for (;;) {
      bool any = false;
      for (core::SessionId id = 1; id <= sessions; ++id) {
        if (done[id]) continue;
        engine.enqueue_suggest(id);
        any = true;
      }
      if (!any) break;
      requests += engine.drain();
      for (core::SessionId id = 1; id <= sessions; ++id) {
        if (done[id]) continue;
        const std::optional<core::Suggestion> s = engine.take_suggestion(id);
        if (!s || s->done) {
          done[id] = 1;
          continue;
        }
        const auto [cost, memory] = oracle(s->features);
        engine.enqueue_observe(id, cost, memory);
      }
      requests += engine.drain();
    }
    benchmark::DoNotOptimize(engine.session_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_SessionThroughput)
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main so every JSON/console report carries the dispatch decision
// in its context block: which kernel tier this process selected at
// startup (after the ALAMR_SIMD_LEVEL override) and the CPU feature
// flags it was derived from. scripts/bench.sh copies both keys into the
// BENCH_PR*.json context so recorded numbers stay attributable to a
// kernel tier after the host is gone.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "simd_level",
      alamr::linalg::simd::to_string(alamr::linalg::simd::active_level()));
  benchmark::AddCustomContext("cpu_features",
                              alamr::linalg::simd::cpu_features());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
