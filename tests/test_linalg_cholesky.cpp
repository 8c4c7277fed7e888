// Tests for the Cholesky factorization used by the GPR core.

#include "alamr/linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "alamr/core/faults.hpp"
#include "alamr/stats/rng.hpp"
#include "reference_cholesky.hpp"

namespace {

using namespace alamr::linalg;
using alamr::stats::Rng;
namespace test_reference = alamr::test_reference;

Matrix random_spd(std::size_t n, Rng& rng, double diagonal_boost = 0.5) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix spd = aat(a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += diagonal_boost;
  return spd;
}

TEST(Cholesky, FactorsKnownMatrix) {
  // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  EXPECT_DOUBLE_EQ(factor->lower()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(factor->lower()(1, 0), 1.0);
  EXPECT_NEAR(factor->lower()(1, 1), std::sqrt(2.0), 1e-14);
}

TEST(Cholesky, RejectsNonSquare) {
  const Matrix a(2, 3);
  EXPECT_THROW(CholeskyFactor::factor(a), std::invalid_argument);
}

TEST(Cholesky, IndefiniteReturnsNullopt) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor::factor(a).has_value());
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  // x = [1, -1] -> b = A x = [2, -1].
  const Vector x = factor->solve(std::vector<double>{2.0, -1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-14);
  EXPECT_NEAR(x[1], -1.0, 1e-14);
}

TEST(Cholesky, LogDetMatchesKnownValue) {
  const Matrix a{{4.0, 0.0}, {0.0, 9.0}};
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  EXPECT_NEAR(factor->log_det(), std::log(36.0), 1e-12);
}

TEST(Cholesky, InverseTimesMatrixIsIdentity) {
  Rng rng(5);
  const Matrix a = random_spd(8, rng);
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  const Matrix inv = factor->inverse();
  EXPECT_LT(max_abs_diff(matmul(a, inv), Matrix::identity(8)), 1e-9);
}

TEST(CholeskyJitter, CleanMatrixGetsZeroJitter) {
  Rng rng(6);
  const Matrix a = random_spd(6, rng);
  const auto [factor, jitter] = cholesky_with_jitter(a);
  EXPECT_DOUBLE_EQ(jitter, 0.0);
  EXPECT_EQ(factor.size(), 6u);
}

TEST(CholeskyJitter, RepairsSemiDefiniteMatrix) {
  // Rank-1 gram matrix of duplicated points — exactly the situation the
  // dataset's replicate measurements create.
  const Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  const auto [factor, jitter] = cholesky_with_jitter(a);
  EXPECT_GT(jitter, 0.0);
  const Vector x = factor.solve(std::vector<double>{1.0, 1.0});
  EXPECT_TRUE(std::isfinite(x[0]));
}

TEST(CholeskyJitter, ThrowsOnHopelessMatrix) {
  const Matrix a{{-1.0, 0.0}, {0.0, -1.0}};
  EXPECT_THROW(cholesky_with_jitter(a), std::runtime_error);
}

TEST(CholeskyJitter, MaxJitterRungIsAlwaysAttempted) {
  // The *10 ladder from 1e-12 accumulates rounding and tops out one
  // ulp-cluster SHORT of a 1e-4 max_jitter...
  double rel = 1e-12;
  std::size_t rungs = 0;
  for (; rel <= 1e-4; rel *= 10.0) ++rungs;
  EXPECT_EQ(rungs, 9u);
  // ...so without the explicit final attempt, exactly-max_jitter was never
  // tried. Drive the ladder with fault injection: veto the clean attempt
  // plus all 9 ladder rungs (max=10 fires), so only the boundary attempt at
  // exactly max_jitter can succeed.
  namespace faults = alamr::core::faults;
  faults::FaultInjector injector(
      faults::FaultPlan::parse("cholesky.non_psd:p=1,max=10"));
  const faults::ScopedFaultInjector scope(injector);
  const Matrix eye = Matrix::identity(4);
  const auto [factor, jitter] = cholesky_with_jitter(eye, 1e-12, 1e-4);
  EXPECT_EQ(injector.fires(faults::Site::kCholeskyNonPsd), 10u);
  EXPECT_EQ(injector.hits(faults::Site::kCholeskyNonPsd), 11u);
  // scale = mean diagonal = 1, so the boundary rung applies exactly 1e-4 —
  // strictly above where the rounded ladder stopped.
  EXPECT_EQ(jitter, 1e-4);
  EXPECT_GT(jitter, 9.9999999999999978e-05);
  EXPECT_EQ(factor.size(), 4u);
}

TEST(CholeskyJitter, InjectedExhaustionThrows) {
  // An unbounded p=1 plan vetoes every attempt including the boundary
  // rung: the ladder must exhaust with the documented error, exercising
  // the path GPR's recovery ladder catches.
  namespace faults = alamr::core::faults;
  faults::FaultInjector injector(
      faults::FaultPlan::parse("cholesky.non_psd:p=1"));
  const faults::ScopedFaultInjector scope(injector);
  const Matrix eye = Matrix::identity(3);
  EXPECT_THROW(cholesky_with_jitter(eye), std::runtime_error);
  // clean + 9 ladder rungs + boundary attempt, every one consulted.
  EXPECT_EQ(injector.hits(faults::Site::kCholeskyNonPsd), 11u);
}

TEST(CholeskyJitter, InjectedNonPsdFallsToFirstJitterRung) {
  // A single vetoed clean attempt degrades to the smallest jitter rung.
  namespace faults = alamr::core::faults;
  faults::FaultInjector injector(
      faults::FaultPlan::parse("cholesky.non_psd:hits=0"));
  const faults::ScopedFaultInjector scope(injector);
  const Matrix eye = Matrix::identity(3);
  const auto [factor, jitter] = cholesky_with_jitter(eye, 1e-12, 1e-4);
  EXPECT_EQ(jitter, 1e-12);
  EXPECT_EQ(factor.size(), 3u);
}

// Property sweep over sizes and seeds: reconstruction, solve residual,
// log-det consistency.
class CholeskyProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(CholeskyProperty, ReconstructsAndSolves) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  const Matrix a = random_spd(n, rng);
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());

  // A == L L^T.
  const Matrix reconstructed =
      matmul(factor->lower(), factor->lower().transposed());
  EXPECT_LT(max_abs_diff(reconstructed, a), 1e-10);

  // Residual of a random solve.
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = factor->solve(b);
  const Vector ax = matvec(a, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);

  // log|A| via the factor matches the product of eigenvalue magnitudes
  // computed through a second factorization route (L L^T determinant).
  double diag_product = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diag_product += 2.0 * std::log(factor->lower()(i, i));
  }
  EXPECT_NEAR(factor->log_det(), diag_product, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, CholeskyProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 10, 25, 60),
                       ::testing::Values<std::uint64_t>(1, 42, 4242)));

// --- Rank-1 extension -----------------------------------------------------

/// Splits an (n+1)x(n+1) SPD matrix into its leading block factor plus the
/// border (row, diag) that extend() consumes.
struct Bordered {
  CholeskyFactor base;
  std::vector<double> row;
  double diag = 0.0;
  Matrix full;
};

Bordered make_bordered(std::size_t n, Rng& rng, double diagonal_boost = 0.5) {
  Matrix full = random_spd(n + 1, rng, diagonal_boost);
  Matrix lead(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) lead(i, j) = full(i, j);
  }
  auto base = CholeskyFactor::factor(lead);
  EXPECT_TRUE(base.has_value());
  std::vector<double> row(n);
  for (std::size_t i = 0; i < n; ++i) row[i] = full(n, i);
  return Bordered{std::move(*base), std::move(row), full(n, n),
                  std::move(full)};
}

TEST(CholeskyExtend, MatchesFullFactorizationBitForBit) {
  Rng rng(7);
  Bordered b = make_bordered(12, rng);
  ASSERT_TRUE(b.base.extend(b.row, b.diag));

  const auto full = CholeskyFactor::factor(b.full);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(b.base.size(), full->size());
  // extend() repeats factor()'s exact operation sequence for the last
  // column, so every entry must match exactly, not just approximately.
  for (std::size_t i = 0; i <= 12; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(b.base.lower()(i, j), full->lower()(i, j))
          << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(CholeskyExtend, RepeatedExtensionSolvesLikeFullFactor) {
  // Grow a factor one row at a time from 4x4 to 24x24 and check the solve
  // residual against the directly factored matrix at the final size.
  Rng rng(8);
  const std::size_t target = 24;
  const Matrix full = random_spd(target, rng);
  Matrix lead(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) lead(i, j) = full(i, j);
  }
  auto factor = CholeskyFactor::factor(lead);
  ASSERT_TRUE(factor.has_value());
  for (std::size_t n = 4; n < target; ++n) {
    std::vector<double> row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = full(n, j);
    ASSERT_TRUE(factor->extend(row, full(n, n))) << "at size " << n;
  }
  std::vector<double> b(target);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const Vector x = factor->solve(b);
  const Vector ax = matvec(full, x);
  for (std::size_t i = 0; i < target; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(CholeskyExtend, RejectsSingularBorderLeavingFactorUnchanged) {
  Rng rng(9);
  const std::size_t n = 8;
  const Matrix a = random_spd(n, rng);
  auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  const Matrix before = factor->lower();

  // Border equal to an existing row makes the bordered matrix singular:
  // the Schur complement is exactly zero.
  std::vector<double> row(n);
  for (std::size_t j = 0; j < n; ++j) row[j] = a(0, j);
  EXPECT_FALSE(factor->extend(row, a(0, 0)));
  EXPECT_EQ(factor->size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(factor->lower()(i, j), before(i, j));
    }
  }
}

TEST(CholeskyExtend, IllConditionedNearSingularBorder) {
  // Border almost parallel to an existing row: the Schur complement is
  // tiny but positive, and the extension must still reproduce the full
  // factorization.
  Rng rng(10);
  const std::size_t n = 10;
  Bordered b = make_bordered(n, rng);
  for (std::size_t j = 0; j < n; ++j) {
    b.row[j] = b.full(0, j) * (1.0 + 1e-9);
    b.full(n, j) = b.row[j];
    b.full(j, n) = b.row[j];
  }
  b.diag = b.full(0, 0) * (1.0 + 1e-6);
  b.full(n, n) = b.diag;

  const auto full = CholeskyFactor::factor(b.full);
  const bool extended = b.base.extend(b.row, b.diag);
  ASSERT_EQ(extended, full.has_value());
  if (extended) {
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_EQ(b.base.lower()(i, j), full->lower()(i, j));
      }
    }
  }
}

TEST(CholeskyExtend, JitterFallbackFlowRepairsDuplicateBorder) {
  // The caller-side fallback contract: when extend() refuses (duplicated
  // training point -> singular bordered gram), cholesky_with_jitter on the
  // bordered matrix must still produce a usable factor.
  Rng rng(11);
  const std::size_t n = 6;
  Bordered b = make_bordered(n, rng);
  for (std::size_t j = 0; j < n; ++j) {
    b.row[j] = b.full(2, j);
    b.full(n, j) = b.row[j];
    b.full(j, n) = b.row[j];
  }
  // With an exact duplicate the Schur complement is zero up to rounding
  // (either sign); shrinking the diagonal slightly makes the rejection
  // deterministic while keeping the matrix jitter-repairable.
  b.diag = b.full(2, 2) * (1.0 - 1e-6);
  b.full(n, n) = b.diag;

  ASSERT_FALSE(b.base.extend(b.row, b.diag));
  const auto [repaired, jitter] = cholesky_with_jitter(b.full);
  EXPECT_GT(jitter, 0.0);
  EXPECT_EQ(repaired.size(), n + 1);
  std::vector<double> rhs(n + 1, 1.0);
  for (const double v : repaired.solve(rhs)) EXPECT_TRUE(std::isfinite(v));
}

TEST(CholeskyExtend, LengthMismatchThrows) {
  Rng rng(12);
  const Matrix a = random_spd(5, rng);
  auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  const std::vector<double> wrong(4, 0.0);
  EXPECT_THROW(factor->extend(wrong, 1.0), std::invalid_argument);
}

// The blocked right-looking factor() must agree with the unblocked
// left-looking factor_reference() — the acceptance bar is 1e-12, but the
// panel/trailing-update split was arranged so every entry accumulates its
// subtractions in the same ascending-k order, giving bitwise equality.
// Sizes bracket the block edge (kCholeskyBlock = 48) and a multi-block
// case with remainder.
TEST(CholeskyBlocked, MatchesReferenceAroundBlockEdges) {
  ASSERT_EQ(kCholeskyBlock, 48u);
  Rng rng(31);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, kCholeskyBlock - 1, kCholeskyBlock,
        kCholeskyBlock + 1, 2 * kCholeskyBlock + 3}) {
    const Matrix a = random_spd(n, rng);
    const auto blocked = CholeskyFactor::factor(a);
    const auto reference = test_reference::factor_reference(a);
    ASSERT_TRUE(blocked.has_value()) << "n=" << n;
    ASSERT_TRUE(reference.has_value()) << "n=" << n;
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double diff =
            std::abs(blocked->lower()(i, j) - reference->lower()(i, j));
        worst = std::max(worst, diff);
        EXPECT_EQ(blocked->lower()(i, j), reference->lower()(i, j))
            << "n=" << n << " (" << i << ", " << j << ")";
      }
    }
    EXPECT_LE(worst, 1e-12) << "n=" << n;
  }
}

// Same contract for the blocked inverse: identical bits to the
// column-at-a-time reference at sizes bracketing the panel edge.
TEST(CholeskyBlocked, InverseMatchesReferenceAroundBlockEdges) {
  Rng rng(33);
  // The last two sizes reach past one and two of the inverse's 64-row
  // k-chunks below the first panel, exercising the chunked interior
  // updates (triangular finish + full-chunk consumers) bitwise.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3}, kCholeskyBlock - 1, kCholeskyBlock,
        kCholeskyBlock + 1, 2 * kCholeskyBlock + 3, std::size_t{150},
        std::size_t{233}}) {
    const Matrix a = random_spd(n, rng);
    const auto factor = CholeskyFactor::factor(a);
    ASSERT_TRUE(factor.has_value()) << "n=" << n;
    const Matrix blocked = factor->inverse();
    const Matrix reference = test_reference::inverse_reference(*factor);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(blocked(i, j), reference(i, j))
            << "n=" << n << " (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(CholeskyBlocked, ReferenceRejectsIndefiniteLikeBlocked) {
  const Matrix a{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_FALSE(CholeskyFactor::factor(a).has_value());
  EXPECT_FALSE(test_reference::factor_reference(a).has_value());
}

TEST(CholeskyBlocked, SolveLowerBlockMatchesColumnSolves) {
  Rng rng(32);
  const std::size_t n = 20;
  const Matrix a = random_spd(n, rng);
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());

  Matrix b(n, 6);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 6; ++j) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  // A column slice of the multi-RHS solve equals the vector solve of that
  // column — bit for bit at the scalar dispatch level. At the vector
  // levels the block elimination runs through simd::rank1_sub (fused
  // multiply-adds), so the two chains agree only to rounding; rel 1e-12
  // is the per-kernel dispatch contract (test_linalg_simd.cpp).
  const bool bit_exact = alamr::linalg::simd::active_level() ==
                         alamr::linalg::simd::Level::kScalar;
  const Matrix mid = factor->solve_lower_block(b, 2, 5);
  ASSERT_EQ(mid.rows(), n);
  ASSERT_EQ(mid.cols(), 3u);
  for (std::size_t c = 2; c < 5; ++c) {
    std::vector<double> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, c);
    const Vector z = factor->solve_lower(col);
    for (std::size_t i = 0; i < n; ++i) {
      if (bit_exact) {
        EXPECT_EQ(mid(i, c - 2), z[i]) << "col " << c << " row " << i;
      } else {
        EXPECT_NEAR(mid(i, c - 2), z[i], 1e-12 * std::abs(z[i]) + 1e-300)
            << "col " << c << " row " << i;
      }
    }
  }
  EXPECT_THROW(factor->solve_lower_block(b, 5, 2), std::invalid_argument);
  EXPECT_THROW(factor->solve_lower_block(b, 0, 7), std::invalid_argument);
}

TEST(Cholesky, InverseIsSymmetric) {
  Rng rng(13);
  const Matrix a = random_spd(9, rng);
  const auto factor = CholeskyFactor::factor(a);
  ASSERT_TRUE(factor.has_value());
  const Matrix inv = factor->inverse();
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(inv(i, j), inv(j, i));
    }
  }
}

}  // namespace
