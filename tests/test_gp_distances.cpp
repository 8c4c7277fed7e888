// PairwiseDistances and the distance-cached kernel paths.
//
// The contract under test is BITWISE: every cached evaluation must
// reproduce exactly the doubles the feature-row path produces, because the
// golden-trajectory suite compares serialized trajectories byte-for-byte
// with the caches enabled by default. Comparisons here therefore go
// through the raw bit patterns, not a tolerance.

#include "alamr/gp/distances.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "alamr/core/trace.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/gp/kernels.hpp"
#include "alamr/linalg/matrix.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;
namespace trace = alamr::core::trace;

Matrix random_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(0.0, 1.0);
  }
  return x;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult bitwise_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!same_bits(a(i, j), b(i, j))) {
        return ::testing::AssertionFailure()
               << "entry (" << i << ", " << j << ") differs: " << a(i, j)
               << " vs " << b(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// --- cache construction ----------------------------------------------------

TEST(PairwiseDistances, TrainMatchesSquaredDistance) {
  Rng rng(17);
  const Matrix x = random_points(9, 3, rng);
  const PairwiseDistances dist = PairwiseDistances::train(x);
  ASSERT_TRUE(dist.symmetric());
  ASSERT_EQ(dist.rows(), 9u);
  ASSERT_EQ(dist.cols(), 9u);
  ASSERT_EQ(dist.dim(), 3u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_TRUE(same_bits(dist.squared()(i, i), 0.0));
    for (std::size_t j = 0; j < i; ++j) {
      const double direct = alamr::linalg::squared_distance(x.row(i), x.row(j));
      EXPECT_TRUE(same_bits(dist.squared()(i, j), direct)) << i << "," << j;
      EXPECT_TRUE(same_bits(dist.squared()(j, i), direct)) << j << "," << i;
    }
  }
}

TEST(PairwiseDistances, CrossMatchesSquaredDistance) {
  Rng rng(18);
  const Matrix x = random_points(5, 4, rng);
  const Matrix y = random_points(7, 4, rng);
  const PairwiseDistances dist = PairwiseDistances::cross(x, y);
  ASSERT_FALSE(dist.symmetric());
  ASSERT_EQ(dist.rows(), 5u);
  ASSERT_EQ(dist.cols(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      const double direct = alamr::linalg::squared_distance(x.row(i), y.row(j));
      EXPECT_TRUE(same_bits(dist.squared()(i, j), direct)) << i << "," << j;
    }
  }
}

TEST(PairwiseDistances, ComponentsMatchPerDimensionDifferences) {
  Rng rng(19);
  const Matrix x = random_points(6, 3, rng);
  const Matrix y = random_points(4, 3, rng);
  PairwiseDistances dist = PairwiseDistances::cross(x, y);
  EXPECT_FALSE(dist.has_components());
  dist.ensure_components();
  ASSERT_TRUE(dist.has_components());
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t i = 0; i < 6; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        const double diff = x(i, d) - y(j, d);
        EXPECT_TRUE(same_bits(dist.component(d)(i, j), diff * diff));
      }
    }
  }
}

TEST(PairwiseDistances, AppendRowEqualsRebuildSymmetric) {
  Rng rng(20);
  const Matrix x = random_points(8, 3, rng);
  const Matrix grown = random_points(1, 3, rng);

  PairwiseDistances incremental = PairwiseDistances::train(x);
  incremental.ensure_components();
  incremental.append_x_row(grown.row(0));

  Matrix all(9, 3);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 3; ++j) all(i, j) = x(i, j);
  }
  for (std::size_t j = 0; j < 3; ++j) all(8, j) = grown(0, j);
  PairwiseDistances rebuilt = PairwiseDistances::train(all);
  rebuilt.ensure_components();

  EXPECT_TRUE(bitwise_equal(incremental.squared(), rebuilt.squared()));
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(bitwise_equal(incremental.component(d), rebuilt.component(d)))
        << "component " << d;
  }
}

TEST(PairwiseDistances, AppendRowEqualsRebuildRectangular) {
  Rng rng(21);
  const Matrix x = random_points(5, 2, rng);
  const Matrix y = random_points(6, 2, rng);
  const Matrix grown = random_points(1, 2, rng);

  PairwiseDistances incremental = PairwiseDistances::cross(x, y);
  incremental.append_x_row(grown.row(0));

  Matrix all(6, 2);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 2; ++j) all(i, j) = x(i, j);
  }
  for (std::size_t j = 0; j < 2; ++j) all(5, j) = grown(0, j);
  const PairwiseDistances rebuilt = PairwiseDistances::cross(all, y);

  EXPECT_TRUE(bitwise_equal(incremental.squared(), rebuilt.squared()));
}

// --- cached kernel evaluation ---------------------------------------------

std::vector<Kernel> all_kernels() {
  std::vector<Kernel> kernels;
  // The paper's composite: amplitude * RBF + noise.
  kernels.push_back(make_paper_kernel(1.4, 0.9, 0.05));
  kernels.push_back(make_kernel(Kernel::Profile::kRbfArd, 3, 0.8, 1.0, 0.3));
  kernels.back().set_log_params(
      std::vector<double>{std::log(0.8), std::log(1.3), std::log(0.4),
                          std::log(2.0), std::log(0.3)});
  kernels.push_back(make_kernel(Kernel::Profile::kMatern32, 3, 2.5, 1.2, 1e-4));
  kernels.push_back(make_kernel(Kernel::Profile::kMatern52, 3, 1.0, 0.6, 1e-2));
  return kernels;
}

// The incremental GPR update grows the cached gram with cross() entries and
// a diagonal() entry, so both must reproduce the cached gram bit for bit.
TEST(CachedKernels, GramBitwiseEqualsDirect) {
  Rng rng(22);
  const Matrix x = random_points(10, 3, rng);
  for (const Kernel& kernel : all_kernels()) {
    PairwiseDistances dist = PairwiseDistances::train(x);
    kernel.prepare_distances(dist);
    const Matrix cached = kernel.gram_cached(dist);
    const Matrix direct = kernel.cross(x, x);
    const std::vector<double> diag = kernel.diagonal(x);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      EXPECT_TRUE(same_bits(cached(i, i), diag[i])) << kernel.describe();
      for (std::size_t j = 0; j < x.rows(); ++j) {
        if (i == j) continue;
        EXPECT_TRUE(same_bits(cached(i, j), direct(i, j)))
            << kernel.describe() << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(CachedKernels, CrossBitwiseEqualsDirect) {
  Rng rng(24);
  const Matrix x = random_points(8, 3, rng);
  const Matrix y = random_points(5, 3, rng);
  for (const Kernel& kernel : all_kernels()) {
    PairwiseDistances dist = PairwiseDistances::cross(x, y);
    kernel.prepare_distances(dist);
    EXPECT_TRUE(bitwise_equal(kernel.cross_cached(dist), kernel.cross(x, y)))
        << kernel.describe();
  }
}

TEST(CachedKernels, ArdRejectsMismatchedCache) {
  const Kernel kernel = make_kernel(Kernel::Profile::kRbfArd, 2);
  Rng rng(25);
  const Matrix wrong_dim = random_points(4, 3, rng);
  PairwiseDistances dist = PairwiseDistances::train(wrong_dim);
  kernel.prepare_distances(dist);
  EXPECT_THROW(kernel.gram_cached(dist), std::invalid_argument);

  // Right dimension but components never prepared.
  const Matrix right_dim = random_points(4, 2, rng);
  PairwiseDistances bare = PairwiseDistances::train(right_dim);
  EXPECT_THROW(kernel.gram_cached(bare), std::invalid_argument);
}

// --- GPR integration -------------------------------------------------------

Kernel paper_kernel(std::size_t /*dim*/) { return make_paper_kernel(); }

// --- dataset-wide base + gathered subset caches ----------------------------

Matrix gather(const Matrix& x, std::span<const std::size_t> rows) {
  Matrix out(rows.size(), x.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) out(i, j) = x(rows[i], j);
  }
  return out;
}

TEST(DistanceBase, MatchesSquaredDistance) {
  Rng rng(40);
  const Matrix x = random_points(11, 4, rng);
  const DistanceBase base(x);
  EXPECT_EQ(base.size(), 11u);
  EXPECT_EQ(base.dim(), 4u);
  for (std::size_t i = 0; i < 11; ++i) {
    EXPECT_TRUE(same_bits(base.squared(i, i), 0.0));
    for (std::size_t j = 0; j < i; ++j) {
      const double direct = alamr::linalg::squared_distance(x.row(i), x.row(j));
      EXPECT_TRUE(same_bits(base.squared(i, j), direct)) << i << "," << j;
      EXPECT_TRUE(same_bits(base.squared(j, i), direct)) << j << "," << i;
    }
  }
}

TEST(DistanceBase, GatheredTrainBitwiseEqualsRebuild) {
  Rng rng(41);
  const Matrix x = random_points(14, 3, rng);
  const DistanceBase base(x);
  // Unsorted subset: the gather must not depend on row order (it relies
  // on squared_distance(a, b) being bit-equal to (b, a)).
  const std::vector<std::size_t> rows = {9, 2, 13, 0, 7, 4};
  const PairwiseDistances gathered =
      PairwiseDistances::train_from_base(base, rows);
  const PairwiseDistances rebuilt = PairwiseDistances::train(gather(x, rows));
  ASSERT_TRUE(gathered.symmetric());
  EXPECT_TRUE(bitwise_equal(gathered.squared(), rebuilt.squared()));
  EXPECT_TRUE(bitwise_equal(gathered.x(), rebuilt.x()));
}

TEST(DistanceBase, GatheredCrossBitwiseEqualsRebuild) {
  Rng rng(42);
  const Matrix x = random_points(16, 5, rng);
  const DistanceBase base(x);
  const std::vector<std::size_t> rows_x = {3, 15, 8};
  const std::vector<std::size_t> rows_y = {1, 0, 11, 6, 9};
  const PairwiseDistances gathered =
      PairwiseDistances::cross_from_base(base, rows_x, rows_y);
  const PairwiseDistances rebuilt =
      PairwiseDistances::cross(gather(x, rows_x), gather(x, rows_y));
  ASSERT_FALSE(gathered.symmetric());
  EXPECT_TRUE(bitwise_equal(gathered.squared(), rebuilt.squared()));
  EXPECT_TRUE(bitwise_equal(gathered.x(), rebuilt.x()));
  EXPECT_TRUE(bitwise_equal(gathered.y(), rebuilt.y()));
}

TEST(DistanceBase, GatheredCachesSupportComponentsAndAppend) {
  Rng rng(43);
  const Matrix x = random_points(10, 3, rng);
  const DistanceBase base(x);
  const std::vector<std::size_t> rows = {5, 1, 8};

  // ARD components derive from the gathered x, exactly as rebuilt.
  PairwiseDistances gathered = PairwiseDistances::train_from_base(base, rows);
  PairwiseDistances rebuilt = PairwiseDistances::train(gather(x, rows));
  gathered.ensure_components();
  rebuilt.ensure_components();
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_TRUE(bitwise_equal(gathered.component(d), rebuilt.component(d)));
  }

  // The AL append path layers per-trajectory growth on a gathered cache.
  gathered.append_x_row(x.row(2));
  rebuilt.append_x_row(x.row(2));
  EXPECT_TRUE(bitwise_equal(gathered.squared(), rebuilt.squared()));
}

TEST(DistanceBase, RejectsOutOfRangeRows) {
  Rng rng(44);
  const Matrix x = random_points(6, 2, rng);
  const DistanceBase base(x);
  const std::vector<std::size_t> bad = {1, 6};
  EXPECT_THROW(PairwiseDistances::train_from_base(base, bad),
               std::out_of_range);
  const std::vector<std::size_t> good = {0, 3};
  EXPECT_THROW(PairwiseDistances::cross_from_base(base, good, bad),
               std::out_of_range);
  EXPECT_THROW(PairwiseDistances::cross_from_base(base, bad, good),
               std::out_of_range);
}

TEST(GprDistanceCache, FitFromBaseBitwiseEqualsFit) {
  Rng rng(45);
  const Matrix x = random_points(20, 3, rng);
  const DistanceBase base(x);
  const std::vector<std::size_t> rows = {17, 3, 9, 0, 12, 5, 19, 8};
  const Matrix x_sub = gather(x, rows);
  std::vector<double> y(rows.size());
  for (double& v : y) v = rng.uniform(-1.0, 1.0);
  const Matrix q = random_points(7, 3, rng);

  GaussianProcessRegressor plain(paper_kernel(3), {.restarts = 1});
  GaussianProcessRegressor based(paper_kernel(3), {.restarts = 1});
  Rng rng_a(77);
  Rng rng_b(77);
  plain.fit(x_sub, y, rng_a);
  based.fit(x_sub, y, rng_b, &base, rows);

  const Prediction pa = plain.predict(q);
  const Prediction pb = based.predict(q);
  ASSERT_EQ(pa.mean.size(), pb.mean.size());
  for (std::size_t i = 0; i < pa.mean.size(); ++i) {
    EXPECT_TRUE(same_bits(pa.mean[i], pb.mean[i])) << i;
    EXPECT_TRUE(same_bits(pa.stddev[i], pb.stddev[i])) << i;
  }

  const std::vector<std::size_t> short_rows = {1, 2};
  Rng rng_c(77);
  EXPECT_THROW(based.fit(x_sub, y, rng_c, &base, short_rows),
               std::invalid_argument);
}

TEST(GprDistanceCache, PredictFromCrossMatchesPredict) {
  Rng rng(26);
  const Matrix x = random_points(30, 3, rng);
  std::vector<double> y(30);
  for (double& v : y) v = rng.uniform(-1.0, 1.0);
  const Matrix q = random_points(12, 3, rng);

  GaussianProcessRegressor gpr(paper_kernel(3), {.restarts = 0});
  gpr.fit(x, y, rng);

  // A caller-maintained cross matrix built from the distance cache (what
  // the AL backends sweep over) carries predict()'s bits.
  const Prediction direct = gpr.predict(q);
  PairwiseDistances dist = PairwiseDistances::cross(x, q);
  gpr.kernel().prepare_distances(dist);
  const Matrix k_star = gpr.kernel().cross_cached(dist);
  const std::vector<double> diag = gpr.kernel().diagonal(q);
  std::vector<double> mean(q.rows());
  std::vector<double> stddev(q.rows());
  gpr.predict_batch_panel(k_star, diag, mean, stddev);
  for (std::size_t i = 0; i < direct.mean.size(); ++i) {
    EXPECT_TRUE(same_bits(mean[i], direct.mean[i])) << i;
    EXPECT_TRUE(same_bits(stddev[i], direct.stddev[i])) << i;
  }
  EXPECT_TRUE(same_bits(gpr.predict_mean_from_cross(k_star)[0],
                        gpr.predict_mean(q)[0]));

  EXPECT_THROW(gpr.predict_batch_panel(Matrix(3, 12), diag, mean, stddev),
               std::invalid_argument);
}

TEST(GprDistanceCache, FitEvaluationsHitTheCache) {
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::TraceCollector collector;
  {
    const trace::ScopedCollector scope(collector);
    Rng rng(27);
    const Matrix x = random_points(24, 3, rng);
    std::vector<double> y(24);
    for (double& v : y) v = rng.uniform(-1.0, 1.0);

    GaussianProcessRegressor gpr(
        paper_kernel(3), {.restarts = 1, .max_opt_iterations = 15});
    gpr.fit(x, y, rng);
    gpr.fit_add_point(x.row(0), 0.25, rng);
  }
  trace::set_enabled(was_enabled);

  const trace::TraceReport report = collector.report();
  // fit() builds the train cache once; fit_add_point extends it instead of
  // rebuilding.
  EXPECT_EQ(report.counter("gp.dist_cache_build"), 1u);
  EXPECT_EQ(report.counter("gp.dist_cache_extend"), 1u);
  // Every L-BFGS objective evaluation consumed the cache; none fell back
  // to the direct feature-walking path.
  EXPECT_GT(report.counter("gpr.dist_cache_hit"), 0u);
  EXPECT_EQ(report.counter("gpr.dist_cache_miss"), 0u);
}

}  // namespace
