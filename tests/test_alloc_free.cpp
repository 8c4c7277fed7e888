// Counting-allocator proof of the ISSUE 5 tentpole claim: once the
// workspace arena is warm and every posterior container is reserved, the
// steady-state AL predict cycle performs ZERO heap allocations.
//
// This test binary replaces the global operator new/delete with counting
// versions (binary-local: tests_alloc is its own executable precisely so
// the override cannot leak into other suites). The measured regions
// contain no gtest assertions — EXPECT_* allocates — and run with the
// thread pool forced to one inline lane, since dispatching pool tasks
// heap-allocates closures by design (that cost belongs to the parallel
// engine, not the inner loop; see DESIGN.md §10 for the boundary).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "alamr/core/parallel.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/linalg/workspace.hpp"
#include "alamr/stats/rng.hpp"

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::linalg::Workspace;
using alamr::stats::Rng;

Matrix random_points(std::size_t n, std::size_t dim, Rng& rng) {
  Matrix x(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.uniform(0.0, 1.0);
  }
  return x;
}

TEST(AllocFree, CountingAllocatorSeesVectorAllocations) {
  // Sanity-check the instrument itself.
  const std::uint64_t before = g_alloc_count.load();
  { const std::vector<double> v(1024, 1.0); }
  EXPECT_GT(g_alloc_count.load(), before);
}

TEST(AllocFree, WarmArenaAllocIsHeapFree) {
  Workspace ws;
  ws.alloc(8192);
  ws.reset();
  const std::uint64_t before = g_alloc_count.load();
  for (int pass = 0; pass < 100; ++pass) {
    const Workspace::Scope scope(ws);
    auto a = ws.alloc(1000);
    auto b = ws.zeros(7000);
    a[0] = static_cast<double>(pass);
    b[0] = a[0];
  }
  EXPECT_EQ(g_alloc_count.load(), before);
}

// The tentpole gate: a steady-state AL predict pass — fused panel sweeps
// for both models over the maintained cross matrices, outputs in the
// arena — touches the heap zero times. Each pass discards the panels
// first, so every sweep re-solves the full Z = L^{-1} K* into the panel
// storage the warm-up pass sized.
TEST(AllocFree, SteadyStatePredictCycleIsAllocationFree) {
  alamr::core::set_global_parallel_threads(1);

  Rng rng(51);
  const std::size_t n = 40;
  const std::size_t m = 60;
  const Matrix x = random_points(n, 3, rng);
  std::vector<double> y_cost(n);
  std::vector<double> y_mem(n);
  for (std::size_t i = 0; i < n; ++i) {
    y_cost[i] = x(i, 0) + 0.5 * x(i, 1);
    y_mem[i] = x(i, 2) - 0.25 * x(i, 0);
  }

  GprOptions options;
  options.optimize = false;  // steady state: hyperparameters are settled
  GaussianProcessRegressor gpr_cost(make_paper_kernel(), options);
  GaussianProcessRegressor gpr_mem(make_paper_kernel(), options);
  gpr_cost.fit(x, y_cost, rng);
  gpr_mem.fit(x, y_mem, rng);

  const Matrix q = random_points(m, 3, rng);
  const Matrix k_star_cost = gpr_cost.kernel().cross(x, q);
  const Matrix k_star_mem = gpr_mem.kernel().cross(x, q);
  const std::vector<double> diag_cost = gpr_cost.kernel().diagonal(q);
  const std::vector<double> diag_mem = gpr_mem.kernel().diagonal(q);

  Workspace ws;
  // Warm-up pass sizes the arena and the panels (amortized allocations).
  {
    const Workspace::Scope scope(ws);
    auto mu = ws.alloc(m);
    auto sd = ws.alloc(m);
    gpr_cost.predict_batch_panel(k_star_cost, diag_cost, mu, sd);
    gpr_mem.predict_batch_panel(k_star_mem, diag_mem, mu, sd);
  }

  const std::uint64_t before = g_alloc_count.load();
  double checksum = 0.0;
  for (int pass = 0; pass < 25; ++pass) {
    const Workspace::Scope scope(ws);
    auto mu_c = ws.alloc(m);
    auto sd_c = ws.alloc(m);
    auto mu_m = ws.alloc(m);
    auto sd_m = ws.alloc(m);
    gpr_cost.panel_invalidate();
    gpr_mem.panel_invalidate();
    gpr_cost.predict_batch_panel(k_star_cost, diag_cost, mu_c, sd_c);
    gpr_mem.predict_batch_panel(k_star_mem, diag_mem, mu_m, sd_m);
    checksum += mu_c[pass % m] + sd_c[0] + mu_m[0] + sd_m[pass % m];
  }
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(after, before) << "steady-state predict cycle allocated";
  EXPECT_TRUE(std::isfinite(checksum));
  EXPECT_EQ(ws.open_scopes(), 0u);
  alamr::core::set_global_parallel_threads(0);
}

// Reserved posterior containers keep incremental add_point off the
// growth path: every big buffer (training matrix, gram, factor, alpha,
// distance cache) appends in place, so the only remaining allocations
// are the O(1) kernel-evaluation temporaries (x_new, the 1-column cross,
// the params snapshot) — a count that must stay FLAT as n grows. Without
// reserve_additional the count would spike whenever a container doubles.
TEST(AllocFree, ReservedAddPointAllocationCountStaysFlat) {
  alamr::core::set_global_parallel_threads(1);

  Rng rng(52);
  const std::size_t n0 = 30;
  const std::size_t extra = 24;
  const Matrix x = random_points(n0, 2, rng);
  std::vector<double> y(n0);
  for (std::size_t i = 0; i < n0; ++i) y[i] = x(i, 0) - x(i, 1);

  GprOptions options;
  options.optimize = false;
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  gpr.reserve_additional(extra);

  const Matrix points = random_points(extra, 2, rng);
  std::vector<std::uint64_t> per_append(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    const std::uint64_t before = g_alloc_count.load();
    gpr.add_point(points.row(i), 0.1 * static_cast<double>(i));
    per_append[i] = g_alloc_count.load() - before;
  }

  EXPECT_EQ(gpr.training_size(), n0 + extra);
  for (std::size_t i = 1; i < extra; ++i) {
    EXPECT_EQ(per_append[i], per_append[0])
        << "append " << i << " hit a container growth path";
  }
  alamr::core::set_global_parallel_threads(0);
}

}  // namespace
