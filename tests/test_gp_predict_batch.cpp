// Tests for the fused batched posterior (DESIGN.md §10): a sweep through
// predict_batch_panel over a caller-supplied cross matrix must be
// BIT-identical to predict() — the golden-trajectory suite depends on the
// two being interchangeable — and the cached alpha = K_y^{-1}(y - mean)
// must be recomputed only on (re)fit.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "alamr/core/trace.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;
namespace trace = alamr::core::trace;

Matrix random_points(std::size_t n, std::size_t dim, Rng& rng) {
  Matrix x(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) x(i, d) = rng.uniform(0.0, 1.0);
  }
  return x;
}

std::vector<double> targets(const Matrix& x, Rng& rng) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double s = 0.0;
    for (std::size_t d = 0; d < x.cols(); ++d) s += std::sin(3.0 * x(i, d));
    y[i] = s + rng.normal(0.0, 0.01);
  }
  return y;
}

/// A from-scratch fused sweep of `q` against training inputs `x`: the panel
/// is discarded first, so every call solves the full Z = L^{-1} K*.
Prediction fused_sweep(GaussianProcessRegressor& gpr, const Matrix& x,
                       const Matrix& q) {
  const Matrix k_star = gpr.kernel().cross(x, q);
  const std::vector<double> diag = gpr.kernel().diagonal(q);
  Prediction out;
  out.mean.resize(q.rows());
  out.stddev.resize(q.rows());
  gpr.panel_invalidate();
  gpr.predict_batch_panel(k_star, diag, out.mean, out.stddev);
  return out;
}

void expect_bitwise_equal(const Prediction& a, const Prediction& b) {
  ASSERT_EQ(a.mean.size(), b.mean.size());
  for (std::size_t i = 0; i < a.mean.size(); ++i) {
    EXPECT_EQ(a.mean[i], b.mean[i]) << "mean " << i;
    EXPECT_EQ(a.stddev[i], b.stddev[i]) << "stddev " << i;
  }
}

TEST(PredictBatch, BitwiseMatchesPredictAcrossKernels) {
  struct Case {
    const char* name;
    std::unique_ptr<Kernel> (*make)();
  };
  const Case cases[] = {
      {"paper", [] { return make_paper_kernel(); }},
      {"ard", [] { return make_ard_kernel(3); }},
      {"matern",
       [] { return make_matern_kernel(MaternKernel::Nu::kFiveHalves); }},
      {"rq",
       [] {
         return sum(product(std::make_unique<ConstantKernel>(1.0),
                            std::make_unique<RationalQuadraticKernel>(0.5)),
                    std::make_unique<WhiteKernel>(1e-6));
       }},
  };
  for (const Case& c : cases) {
    Rng rng(41);
    const Matrix x = random_points(30, 3, rng);
    const auto y = targets(x, rng);
    GaussianProcessRegressor gpr(c.make(), {});
    gpr.fit(x, y, rng);

    const Matrix q = random_points(17, 3, rng);
    const Prediction scalar = gpr.predict(q);
    expect_bitwise_equal(fused_sweep(gpr, x, q), scalar);
    // Second call into the now-allocated panel storage: same bits again.
    expect_bitwise_equal(fused_sweep(gpr, x, q), scalar);
  }
}

TEST(PredictBatch, SpanOverloadBitwiseMatchesPredictFromCross) {
  Rng rng(42);
  const Matrix x = random_points(25, 2, rng);
  const auto y = targets(x, rng);
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x, y, rng);

  const Matrix q = random_points(11, 2, rng);
  const Matrix k_star = gpr.kernel().cross(x, q);
  const std::vector<double> diag = gpr.kernel().diagonal(q);
  const Prediction expect = gpr.predict(q);

  // The first sweep builds the panel, the second resumes it with nothing
  // to append (finalize from the cached sums): both carry predict()'s bits.
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::vector<double> mean(q.rows());
    std::vector<double> stddev(q.rows());
    gpr.predict_batch_panel(k_star, diag, mean, stddev);
    for (std::size_t i = 0; i < q.rows(); ++i) {
      EXPECT_EQ(mean[i], expect.mean[i]) << "sweep " << sweep << " " << i;
      EXPECT_EQ(stddev[i], expect.stddev[i]) << "sweep " << sweep << " " << i;
    }
  }
  EXPECT_EQ(gpr.panel_rows(), x.rows());
}

TEST(PredictBatch, ValidatesShapesAndFitState) {
  Rng rng(43);
  const Matrix x = random_points(10, 2, rng);
  const auto y = targets(x, rng);
  GaussianProcessRegressor gpr(make_paper_kernel(), {});

  std::vector<double> out(3);
  const Matrix k_star(10, 3);
  const std::vector<double> diag(3, 1.0);
  EXPECT_THROW(gpr.predict_batch_panel(k_star, diag, out, out),
               std::logic_error);

  gpr.fit(x, y, rng);
  std::vector<double> wrong(2);
  EXPECT_THROW(gpr.predict_batch_panel(k_star, diag, wrong, wrong),
               std::invalid_argument);
  const std::vector<double> short_diag(2, 1.0);
  EXPECT_THROW(gpr.predict_batch_panel(k_star, short_diag, out, out),
               std::invalid_argument);
}

TEST(PredictBatch, EmptyQueryIsANoOp) {
  Rng rng(44);
  const Matrix x = random_points(8, 2, rng);
  const auto y = targets(x, rng);
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x, y, rng);

  const Matrix k_star(8, 0);
  gpr.predict_batch_panel(k_star, {}, {}, {});
  EXPECT_EQ(gpr.panel_rows(), 0u);
}

// Regression for the cached-alpha satellite: predictions must reuse the
// stored alpha; only a (re)fit may trigger the two triangular solves.
TEST(PredictBatch, AlphaSolvedOnlyOnRefit) {
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::TraceCollector collector;
  {
    const trace::ScopedCollector scoped(collector);

    Rng rng(45);
    const Matrix x = random_points(20, 2, rng);
    const auto y = targets(x, rng);
    GaussianProcessRegressor gpr(make_paper_kernel(), {});
    gpr.fit(x, y, rng);
    const std::uint64_t after_fit =
        collector.report().counter("gpr.alpha_solve");
    EXPECT_GE(after_fit, 1u);

    const Matrix q = random_points(9, 2, rng);
    for (int i = 0; i < 5; ++i) {
      (void)gpr.predict(q);
      (void)fused_sweep(gpr, x, q);
    }
    EXPECT_EQ(collector.report().counter("gpr.alpha_solve"), after_fit)
        << "predict must not recompute alpha";

    const Matrix xa = random_points(1, 2, rng);
    gpr.add_point(xa.row(0), 0.25);
    EXPECT_EQ(collector.report().counter("gpr.alpha_solve"), after_fit + 1)
        << "appending a training point must recompute alpha exactly once";
  }
  trace::set_enabled(was_enabled);
}

}  // namespace
