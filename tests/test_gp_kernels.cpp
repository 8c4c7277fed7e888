// Tests for the stationary kernel: per-profile behaviour, a differential
// check against the textbook reference in reference_kernel.hpp, and bit
// pins for every profile.

#include "alamr/gp/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "alamr/linalg/cholesky.hpp"
#include "alamr/linalg/simd.hpp"
#include "alamr/stats/rng.hpp"
#include "reference_kernel.hpp"

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;
using Profile = Kernel::Profile;
namespace ref = alamr::test_reference;
namespace simd = alamr::linalg::simd;

Matrix random_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(0.0, 1.0);
  }
  return x;
}

Matrix gram(const Kernel& k, const Matrix& x) {
  PairwiseDistances dist = PairwiseDistances::train(x);
  k.prepare_distances(dist);
  return k.gram_cached(dist);
}

Matrix gram_with_gradients(const Kernel& k, const Matrix& x,
                           std::vector<Matrix>& gradients) {
  PairwiseDistances dist = PairwiseDistances::train(x);
  k.prepare_distances(dist);
  return k.gram_with_gradients_cached(dist, gradients);
}

Kernel rbf(double length, double amplitude = 1.0, double noise = 1e-10) {
  return make_kernel(Profile::kRbf, 1, amplitude, length, noise);
}

TEST(RbfKernelTest, KnownValues) {
  const Kernel k = rbf(1.0);
  const Matrix x{{0.0, 0.0}, {1.0, 0.0}};
  const Matrix g = gram(k, x);
  EXPECT_DOUBLE_EQ(g(0, 0), 1.0 + 1e-10);
  EXPECT_NEAR(g(0, 1), std::exp(-0.5), 1e-14);
  EXPECT_DOUBLE_EQ(g(0, 1), g(1, 0));
}

TEST(RbfKernelTest, LongerLengthScaleFlattens) {
  const Matrix x{{0.0}, {1.0}};
  EXPECT_LT(gram(rbf(0.5), x)(0, 1), gram(rbf(5.0), x)(0, 1));
}

TEST(RbfKernelTest, LogParamRoundTrip) {
  Kernel k = rbf(2.0);
  const auto theta = k.log_params();
  ASSERT_EQ(theta.size(), 3u);
  EXPECT_NEAR(theta[1], std::log(2.0), 1e-14);
  k.set_log_params(std::vector<double>{0.0, std::log(3.0), std::log(1e-3)});
  EXPECT_NEAR(k.length_scales()[0], 3.0, 1e-14);
  EXPECT_THROW(k.set_log_params(std::vector<double>{0.0}),
               std::invalid_argument);
  EXPECT_THROW(rbf(-1.0), std::invalid_argument);
}

// The noise term s [x == x'] lands on the gram diagonal only and never in a
// cross-covariance — even where query points coincide with training points.
TEST(WhiteKernelTest, DiagonalOnlyAndZeroCross) {
  const Kernel k = rbf(1e-3, 1e-5, 0.1);  // f ~ 0 between distinct points
  const Matrix x{{0.0}, {1.0}};
  const Matrix g = gram(k, x);
  EXPECT_DOUBLE_EQ(g(0, 0), 1e-5 + 0.1);
  EXPECT_DOUBLE_EQ(g(0, 1), 0.0);
  const Matrix cross = k.cross(x, x);
  EXPECT_DOUBLE_EQ(cross(0, 0), 1e-5);
}

TEST(MaternKernelTest, SmootherNuIsCloserToRbf) {
  // As nu increases the Matérn kernel approaches the RBF value.
  const Matrix x{{0.0}, {0.7}};
  const double target = gram(rbf(1.0), x)(0, 1);
  const Kernel k32 = make_kernel(Profile::kMatern32, 1, 1.0, 1.0, 1e-10);
  const Kernel k52 = make_kernel(Profile::kMatern52, 1, 1.0, 1.0, 1e-10);
  const double m32 = gram(k32, x)(0, 1);
  const double m52 = gram(k52, x)(0, 1);
  EXPECT_LT(std::abs(m52 - target), std::abs(m32 - target));
}

TEST(RbfArdKernelTest, AnisotropyMatters) {
  Kernel k = make_kernel(Profile::kRbfArd, 2);
  k.set_log_params(
      std::vector<double>{0.0, std::log(0.1), std::log(10.0), -4.0});
  const Matrix near_in_0{{0.0, 0.0}, {0.05, 0.0}};
  const Matrix near_in_1{{0.0, 0.0}, {0.0, 0.05}};
  // Displacement along the short-length-scale axis decays much faster.
  EXPECT_LT(gram(k, near_in_0)(0, 1), gram(k, near_in_1)(0, 1));
}

TEST(RbfArdKernelTest, MatchesIsotropicWhenScalesEqual) {
  const Kernel ard = make_kernel(Profile::kRbfArd, 3, 1.0, 1.3, 1e-10);
  const Kernel iso = rbf(1.3);
  Rng rng(5);
  const Matrix x = random_points(6, 3, rng);
  EXPECT_LT(alamr::linalg::max_abs_diff(gram(ard, x), gram(iso, x)), 1e-14);
}

// c f + s [x == x']: the gram is the sum of the scaled profile and the
// noise, and the log-parameters concatenate as [log c, log l, log s].
TEST(SumKernelTest, GramAddsAndParamsConcatenate) {
  const Kernel k = make_paper_kernel(2.0, 0.8, 0.5);
  const Matrix x{{0.0}, {1.0}};
  const Matrix g = gram(k, x);
  EXPECT_DOUBLE_EQ(g(0, 0), 2.5);
  EXPECT_NEAR(g(0, 1), 2.0 * std::exp(-1.0 / (2.0 * 0.64)), 1e-14);
  EXPECT_EQ(k.num_params(), 3u);
  const auto theta = k.log_params();
  EXPECT_NEAR(theta[0], std::log(2.0), 1e-14);
  EXPECT_NEAR(theta[1], std::log(0.8), 1e-14);
  EXPECT_NEAR(theta[2], std::log(0.5), 1e-14);
}

TEST(ProductKernelTest, AmplitudeScalesRbf) {
  const Kernel k = rbf(1.0, 4.0);
  const Matrix x{{0.0}, {1.0}};
  const Matrix g = gram(k, x);
  EXPECT_DOUBLE_EQ(g(0, 0), 4.0 + 1e-10);
  EXPECT_NEAR(g(0, 1), 4.0 * std::exp(-0.5), 1e-13);
}

TEST(PaperKernel, StructureAndDiagonal) {
  const Kernel k = make_paper_kernel(2.0, 0.5, 0.01);
  EXPECT_EQ(k.num_params(), 3u);  // amplitude, length, noise
  const Matrix x{{0.2, 0.3}, {0.8, 0.1}};
  const auto diag = k.diagonal(x);
  EXPECT_NEAR(diag[0], 2.0 + 0.01, 1e-13);
  // Gram diagonal includes noise; cross does not.
  EXPECT_NEAR(gram(k, x)(0, 0), 2.01, 1e-13);
  EXPECT_NEAR(k.cross(x, x)(0, 0), 2.0, 1e-13);
}

TEST(KernelClone, IndependentState) {
  const Kernel k = make_paper_kernel();
  Kernel copy = k;
  std::vector<double> theta = k.log_params();
  theta[0] += 1.0;
  copy.set_log_params(theta);
  EXPECT_NE(copy.log_params()[0], k.log_params()[0]);
}

TEST(KernelDescribe, MentionsStructure) {
  EXPECT_EQ(make_paper_kernel(1.3, 0.7, 0.02).describe(),
            "(Constant(1.3)) * (RBF(l=0.7)) + White(0.02)");
  EXPECT_EQ(make_kernel(Profile::kRbfArd, 2, 1.0, 0.5).describe(),
            "(Constant(1)) * (RBF_ARD(l=[0.5, 0.5])) + White(0.01)");
  EXPECT_EQ(make_kernel(Profile::kMatern32, 2).describe(),
            "(Constant(1)) * (Matern(nu=3/2, l=1)) + White(0.01)");
  EXPECT_EQ(make_kernel(Profile::kMatern52, 2).describe(),
            "(Constant(1)) * (Matern(nu=5/2, l=1)) + White(0.01)");
}

// Property: every profile produces a symmetric positive semi-definite gram
// matrix on random point sets (checked via jittered Cholesky success and
// symmetry), and diagonal() agrees with the gram diagonal.
struct KernelFactory {
  const char* name;
  Kernel (*make)();
};

// gtest prints a parameter it cannot format as its raw bytes, and ctest puts
// that print into the test name; the pointers here would carry the load
// address, so the name would change with every run of the binary.
void PrintTo(const KernelFactory& factory, std::ostream* os) {
  *os << factory.name;
}

Kernel make_rbf() { return rbf(0.7); }
Kernel make_matern32() {
  return make_kernel(Profile::kMatern32, 3, 1.0, 0.7, 1e-10);
}
Kernel make_matern52() {
  return make_kernel(Profile::kMatern52, 3, 1.0, 0.7, 1e-10);
}
Kernel make_ard() {
  Kernel k = make_kernel(Profile::kRbfArd, 3, 1.0, 1.0, 1e-10);
  k.set_log_params(std::vector<double>{0.0, std::log(0.5), std::log(1.5),
                                       std::log(0.9), std::log(1e-10)});
  return k;
}
Kernel make_paper() { return make_paper_kernel(1.5, 0.6, 0.05); }

class KernelPsdProperty : public ::testing::TestWithParam<KernelFactory> {};

TEST_P(KernelPsdProperty, GramSymmetricPsd) {
  Rng rng(31);
  const Kernel kernel = GetParam().make();
  const Matrix x = random_points(20, 3, rng);
  const Matrix g = gram(kernel, x);
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      EXPECT_NEAR(g(i, j), g(j, i), 1e-14);
    }
  }
  // PSD (up to jitter): factorization must succeed.
  EXPECT_NO_THROW(alamr::linalg::cholesky_with_jitter(g));
}

TEST_P(KernelPsdProperty, DiagonalMatchesGram) {
  Rng rng(32);
  const Kernel kernel = GetParam().make();
  const Matrix x = random_points(12, 3, rng);
  const Matrix g = gram(kernel, x);
  const auto diag = kernel.diagonal(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(diag[i], g(i, i), 1e-13);
  }
}

TEST_P(KernelPsdProperty, SetParamsChangesGramConsistently) {
  Rng rng(33);
  Kernel kernel = GetParam().make();
  const Matrix x = random_points(8, 3, rng);
  const Matrix before = gram(kernel, x);
  auto theta = kernel.log_params();
  for (double& t : theta) t += 0.3;
  kernel.set_log_params(theta);
  const Matrix after = gram(kernel, x);
  // Round-trip back restores the original gram exactly.
  for (double& t : theta) t -= 0.3;
  kernel.set_log_params(theta);
  EXPECT_LT(alamr::linalg::max_abs_diff(gram(kernel, x), before), 1e-14);
  EXPECT_GT(alamr::linalg::max_abs_diff(after, before), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelPsdProperty,
    ::testing::Values(KernelFactory{"rbf", &make_rbf},
                      KernelFactory{"matern32", &make_matern32},
                      KernelFactory{"matern52", &make_matern52},
                      KernelFactory{"ard", &make_ard},
                      KernelFactory{"paper", &make_paper}),
    [](const ::testing::TestParamInfo<KernelFactory>& info) {
      return info.param.name;
    });

// --- differential check against the textbook reference ---------------------

constexpr Profile kProfiles[] = {Profile::kRbf, Profile::kRbfArd,
                                 Profile::kMatern32, Profile::kMatern52};

ref::Profile reference_profile(Profile p) {
  switch (p) {
    case Profile::kRbf: return ref::Profile::kRbf;
    case Profile::kRbfArd: return ref::Profile::kRbfArd;
    case Profile::kMatern32: return ref::Profile::kMatern32;
    case Profile::kMatern52: return ref::Profile::kMatern52;
  }
  return ref::Profile::kRbf;
}

void expect_close(const Matrix& got, const Matrix& want, const char* what,
                  std::size_t trial) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const double tol = 1e-12 * std::max(1.0, std::abs(want(i, j)));
      EXPECT_NEAR(got(i, j), want(i, j), tol)
          << what << " trial " << trial << " entry (" << i << ", " << j << ")";
    }
  }
}

TEST(KernelReference, AgreesOnSeededRandomProblems) {
  Rng rng(2718);
  for (const Profile profile : kProfiles) {
    for (std::size_t trial = 0; trial < 12; ++trial) {
      const std::size_t d = 1 + rng.uniform_index(6);
      const std::size_t n = 2 + rng.uniform_index(14);
      const std::size_t m = 1 + rng.uniform_index(12);
      const std::size_t nl = profile == Profile::kRbfArd ? d : 1;
      std::vector<double> theta{rng.uniform(-2.0, 2.0)};
      for (std::size_t l = 0; l < nl; ++l) {
        theta.push_back(rng.uniform(-1.5, 1.0));
      }
      theta.push_back(rng.uniform(-8.0, -1.0));
      const Matrix x = random_points(n, d, rng);
      const Matrix y = random_points(m, d, rng);

      Kernel kernel = make_kernel(profile, d);
      kernel.set_log_params(theta);
      const ref::ReferenceKernel want{reference_profile(profile), theta};

      expect_close(gram(kernel, x), want.gram(x), "gram", trial);
      std::vector<Matrix> grads;
      expect_close(gram_with_gradients(kernel, x, grads), want.gram(x),
                   "gram (gradient path)", trial);
      const std::vector<Matrix> want_grads = want.gradients(x);
      ASSERT_EQ(grads.size(), want_grads.size());
      for (std::size_t p = 0; p < grads.size(); ++p) {
        expect_close(grads[p], want_grads[p], "gradient", trial);
      }
      expect_close(kernel.cross(x, y), want.cross(x, y), "cross", trial);
      PairwiseDistances dist = PairwiseDistances::cross(x, y);
      kernel.prepare_distances(dist);
      expect_close(kernel.cross_cached(dist), want.cross(x, y), "cross_cached",
                   trial);
      const std::vector<double> diag = kernel.diagonal(x);
      const std::vector<double> want_diag = want.diagonal(x);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(diag[i], want_diag[i], 1e-12 * want_diag[i]);
      }
    }
  }
}

// --- bit pins ----------------------------------------------------------------
//
// FNV-1a over the IEEE bit patterns of every entry. The expected values were
// computed with the composite kernel tree this class replaced
// (ConstantKernel * profile + WhiteKernel), on the same inputs, at the scalar
// SIMD level, so they pin that every profile kept its value path (gram,
// cross), its gradient path (K plus every dK/dtheta) and its diagonal bit
// for bit.
//
// The non-finite rows feed a NaN feature and a +inf feature. Those hashes
// map every NaN to one canonical pattern, because the replaced tree's
// Matérn value (1 + t) * e multiplied two NaNs there, and which NaN
// survived followed the compiler's operand order, not the source (it gave
// the Matérn 5/2 gram and cross opposite NaN signs). Every profile now
// propagates the single NaN of the distance, so the raw bits are pinned
// too; the Matérn raw pins were computed after that change.

std::uint64_t fnv(std::uint64_t h, std::span<const double> values,
                  bool canonical_nan = false) {
  for (const double v : values) {
    const std::uint64_t bits = canonical_nan && std::isnan(v)
                                   ? 0x7ff8000000000000ULL
                                   : std::bit_cast<std::uint64_t>(v);
    for (int k = 0; k < 8; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Pin {
  Profile profile;
  std::uint64_t value;
  std::uint64_t gradient;
  std::uint64_t cross;
  std::uint64_t diagonal;
  std::uint64_t nonfinite_gram;    // NaN-canonical
  std::uint64_t nonfinite_cross;   // NaN-canonical
  std::uint64_t raw_nonfinite_gram;
  std::uint64_t raw_nonfinite_cross;
};

constexpr Pin kPins[] = {
    {Profile::kRbf, 0x6bd86ce396656c87ULL, 0x124243c36161a70dULL,
     0xc4c94b5aa3cf69a2ULL, 0xb972cada4634d297ULL, 0xa8ae3368fcd328b7ULL,
     0x9b93d85a40a5806eULL, 0x440c9d110eb7bfb7ULL, 0xad1ec394fb38d96eULL},
    {Profile::kRbfArd, 0x053da72273940ee3ULL, 0x423b1a17b9636c2dULL,
     0xa9dd29b78045fa96ULL, 0xb972cada4634d297ULL, 0x8904a6afeae37e7bULL,
     0x1405af8bab2c61f4ULL, 0x8904a6afeae37e7bULL, 0x1405af8bab2c61f4ULL},
    {Profile::kMatern32, 0x3058e78a086c8a53ULL, 0x2d17c0ac21cc8c15ULL,
     0xf5c29234809bb8fdULL, 0xb972cada4634d297ULL, 0x3c5fd07004bbf083ULL,
     0x1a7d2d18398049d2ULL, 0x961963237f318183ULL, 0x176c8700603d30d2ULL},
    {Profile::kMatern52, 0xb438ff8610ba15dbULL, 0xe3ec45111b449ac1ULL,
     0xd0963ab3d2cba985ULL, 0xb972cada4634d297ULL, 0x8b6afe13c3492d37ULL,
     0x1e324afec8e085eaULL, 0x3b4e5010d722d937ULL, 0x3f4c2ad2cfd1b1eaULL},
};

// c = 1.3, l = 0.7 (ARD: 0.5, 1.1, 0.8 set through log-params), s = 0.02.
Kernel pinned_kernel(Profile profile) {
  Kernel k = make_kernel(profile, 3, 1.3, 0.7, 0.02);
  if (profile == Profile::kRbfArd) {
    std::vector<double> theta = k.log_params();
    theta[1] = std::log(0.5);
    theta[2] = std::log(1.1);
    theta[3] = std::log(0.8);
    k.set_log_params(theta);
  }
  return k;
}

class ScalarLevel {
 public:
  ScalarLevel() : saved_(simd::active_level()) {
    simd::set_level(simd::Level::kScalar);
  }
  ~ScalarLevel() { simd::set_level(saved_); }

 private:
  simd::Level saved_;
};

TEST(KernelBitsPin, EveryProfileMatchesReplacedTree) {
  const ScalarLevel scalar;
  Rng rng(2026);
  const Matrix x = random_points(9, 3, rng);
  const Matrix y = random_points(6, 3, rng);
  for (const Pin& pin : kPins) {
    const Kernel k = pinned_kernel(pin.profile);
    SCOPED_TRACE(k.describe());
    EXPECT_EQ(fnv(kFnvBasis, gram(k, x).data()), pin.value);
    std::vector<Matrix> grads;
    std::uint64_t h = fnv(kFnvBasis, gram_with_gradients(k, x, grads).data());
    for (const Matrix& g : grads) h = fnv(h, g.data());
    EXPECT_EQ(h, pin.gradient);
    const Matrix cross = k.cross(x, y);
    EXPECT_EQ(fnv(kFnvBasis, cross.data()), pin.cross);
    PairwiseDistances dist = PairwiseDistances::cross(x, y);
    k.prepare_distances(dist);
    EXPECT_EQ(fnv(kFnvBasis, k.cross_cached(dist).data()), pin.cross);
    EXPECT_EQ(fnv(kFnvBasis, k.diagonal(x)), pin.diagonal);
  }
}

TEST(KernelBitsPin, NonFiniteFeaturesMatchReplacedTree) {
  const ScalarLevel scalar;
  Rng rng(2026);
  Matrix x = random_points(9, 3, rng);
  const Matrix y = random_points(6, 3, rng);
  x(2, 1) = std::numeric_limits<double>::quiet_NaN();
  x(5, 0) = std::numeric_limits<double>::infinity();
  for (const Pin& pin : kPins) {
    const Kernel k = pinned_kernel(pin.profile);
    SCOPED_TRACE(k.describe());
    const Matrix g = gram(k, x);
    const Matrix cross = k.cross(x, y);
    EXPECT_EQ(fnv(kFnvBasis, g.data(), true), pin.nonfinite_gram);
    EXPECT_EQ(fnv(kFnvBasis, cross.data(), true), pin.nonfinite_cross);
    EXPECT_EQ(fnv(kFnvBasis, g.data()), pin.raw_nonfinite_gram);
    EXPECT_EQ(fnv(kFnvBasis, cross.data()), pin.raw_nonfinite_cross);
  }
}

TEST(KernelBitsPin, NanFeatureGivesOneNanOnEveryPath) {
  // A NaN feature makes its row and column of K NaN. The value-path gram,
  // the gradient-path K and the cross covariance must carry the same NaN
  // bits there.
  Rng rng(2026);
  Matrix x = random_points(9, 3, rng);
  x(2, 1) = std::numeric_limits<double>::quiet_NaN();
  for (const Pin& pin : kPins) {
    const Kernel k = pinned_kernel(pin.profile);
    SCOPED_TRACE(k.describe());
    PairwiseDistances dist = PairwiseDistances::train(x);
    k.prepare_distances(dist);
    const Matrix value_path = k.gram_cached(dist);
    std::vector<Matrix> grads;
    const Matrix gradient_path = k.gram_with_gradients_cached(dist, grads);
    const Matrix cross = k.cross(x, x);
    std::size_t nans = 0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.rows(); ++j) {
        if (!std::isnan(value_path(i, j))) continue;
        ++nans;
        const auto bits = std::bit_cast<std::uint64_t>(value_path(i, j));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gradient_path(i, j)), bits);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(cross(i, j)), bits);
      }
    }
    EXPECT_EQ(nans, 2 * (x.rows() - 1));
  }
}

}  // namespace
