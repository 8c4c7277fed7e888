// Tests for covariance functions and kernel algebra.

#include "alamr/gp/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "alamr/linalg/cholesky.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

Matrix random_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.uniform(0.0, 1.0);
  }
  return x;
}

TEST(RbfKernelTest, KnownValues) {
  RbfKernel k(1.0);
  const Matrix x{{0.0, 0.0}, {1.0, 0.0}};
  const Matrix gram = k.gram(x);
  EXPECT_DOUBLE_EQ(gram(0, 0), 1.0);
  EXPECT_NEAR(gram(0, 1), std::exp(-0.5), 1e-14);
  EXPECT_DOUBLE_EQ(gram(0, 1), gram(1, 0));
}

TEST(RbfKernelTest, LongerLengthScaleFlattens) {
  const Matrix x{{0.0}, {1.0}};
  RbfKernel narrow(0.5);
  RbfKernel broad(5.0);
  EXPECT_LT(narrow.gram(x)(0, 1), broad.gram(x)(0, 1));
}

TEST(RbfKernelTest, LogParamRoundTrip) {
  RbfKernel k(2.0);
  const auto theta = k.log_params();
  ASSERT_EQ(theta.size(), 1u);
  EXPECT_NEAR(theta[0], std::log(2.0), 1e-14);
  k.set_log_params(std::vector<double>{std::log(3.0)});
  EXPECT_NEAR(k.length_scale(), 3.0, 1e-14);
}

TEST(ConstantKernelTest, GramIsConstant) {
  ConstantKernel k(2.5);
  const Matrix x{{0.0}, {1.0}, {7.0}};
  const Matrix gram = k.gram(x);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(gram(i, j), 2.5);
  }
  EXPECT_THROW(ConstantKernel(-1.0), std::invalid_argument);
}

TEST(WhiteKernelTest, DiagonalOnlyAndZeroCross) {
  WhiteKernel k(0.1);
  const Matrix x{{0.0}, {1.0}};
  const Matrix gram = k.gram(x);
  EXPECT_DOUBLE_EQ(gram(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(gram(0, 1), 0.0);
  const Matrix cross = k.cross(x, x);
  // White noise applies to training targets, never to cross-covariance —
  // even if query points coincide with training points.
  EXPECT_DOUBLE_EQ(cross(0, 0), 0.0);
}

TEST(MaternKernelTest, NuHalfIsExponential) {
  MaternKernel k(MaternKernel::Nu::kHalf, 2.0);
  const Matrix x{{0.0}, {3.0}};
  EXPECT_NEAR(k.gram(x)(0, 1), std::exp(-1.5), 1e-14);
}

TEST(MaternKernelTest, SmootherNuIsCloserToRbf) {
  // As nu increases the Matérn kernel approaches the RBF value.
  const Matrix x{{0.0}, {0.7}};
  RbfKernel rbf(1.0);
  const double target = rbf.gram(x)(0, 1);
  MaternKernel m12(MaternKernel::Nu::kHalf, 1.0);
  MaternKernel m32(MaternKernel::Nu::kThreeHalves, 1.0);
  MaternKernel m52(MaternKernel::Nu::kFiveHalves, 1.0);
  const double e12 = std::abs(m12.gram(x)(0, 1) - target);
  const double e32 = std::abs(m32.gram(x)(0, 1) - target);
  const double e52 = std::abs(m52.gram(x)(0, 1) - target);
  EXPECT_LT(e52, e32);
  EXPECT_LT(e32, e12);
}

TEST(RbfArdKernelTest, AnisotropyMatters) {
  RbfArdKernel k(std::vector<double>{0.1, 10.0});
  const Matrix near_in_0{{0.0, 0.0}, {0.05, 0.0}};
  const Matrix near_in_1{{0.0, 0.0}, {0.0, 0.05}};
  // Displacement along the short-length-scale axis decays much faster.
  EXPECT_LT(k.gram(near_in_0)(0, 1), k.gram(near_in_1)(0, 1));
}

TEST(RbfArdKernelTest, MatchesIsotropicWhenScalesEqual) {
  RbfArdKernel ard(std::vector<double>{1.3, 1.3, 1.3});
  RbfKernel iso(1.3);
  Rng rng(5);
  const Matrix x = random_points(6, 3, rng);
  EXPECT_LT(alamr::linalg::max_abs_diff(ard.gram(x), iso.gram(x)), 1e-14);
}

TEST(RationalQuadraticTest, LargeAlphaApproachesRbf) {
  const Matrix x{{0.0}, {0.6}};
  RbfKernel rbf(1.0);
  RationalQuadraticKernel rq_small(1.0, 0.5);
  RationalQuadraticKernel rq_large(1.0, 1000.0);
  const double target = rbf.gram(x)(0, 1);
  EXPECT_LT(std::abs(rq_large.gram(x)(0, 1) - target),
            std::abs(rq_small.gram(x)(0, 1) - target));
  EXPECT_NEAR(rq_large.gram(x)(0, 1), target, 1e-3);
}

TEST(RationalQuadraticTest, KnownValue) {
  // l = 1, alpha = 1, r = 1: k = (1 + 0.5)^-1 = 2/3.
  RationalQuadraticKernel rq(1.0, 1.0);
  const Matrix x{{0.0}, {1.0}};
  EXPECT_NEAR(rq.gram(x)(0, 1), 2.0 / 3.0, 1e-14);
}

TEST(SumKernelTest, GramAddsAndParamsConcatenate) {
  auto k = sum(std::make_unique<ConstantKernel>(2.0),
               std::make_unique<WhiteKernel>(0.5));
  const Matrix x{{0.0}, {1.0}};
  const Matrix gram = k->gram(x);
  EXPECT_DOUBLE_EQ(gram(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(gram(0, 1), 2.0);
  EXPECT_EQ(k->num_params(), 2u);
  const auto theta = k->log_params();
  EXPECT_NEAR(theta[0], std::log(2.0), 1e-14);
  EXPECT_NEAR(theta[1], std::log(0.5), 1e-14);
}

TEST(ProductKernelTest, AmplitudeScalesRbf) {
  auto k = product(std::make_unique<ConstantKernel>(4.0),
                   std::make_unique<RbfKernel>(1.0));
  const Matrix x{{0.0}, {1.0}};
  const Matrix gram = k->gram(x);
  EXPECT_DOUBLE_EQ(gram(0, 0), 4.0);
  EXPECT_NEAR(gram(0, 1), 4.0 * std::exp(-0.5), 1e-13);
}

TEST(PaperKernel, StructureAndDiagonal) {
  auto k = make_paper_kernel(2.0, 0.5, 0.01);
  EXPECT_EQ(k->num_params(), 3u);  // amplitude, length, noise
  const Matrix x{{0.2, 0.3}, {0.8, 0.1}};
  const auto diag = k->diagonal(x);
  EXPECT_NEAR(diag[0], 2.0 + 0.01, 1e-13);
  // Gram diagonal includes noise; cross does not.
  const Matrix gram = k->gram(x);
  EXPECT_NEAR(gram(0, 0), 2.01, 1e-13);
  const Matrix cross = k->cross(x, x);
  EXPECT_NEAR(cross(0, 0), 2.0, 1e-13);
}

TEST(KernelClone, IndependentState) {
  auto k = make_paper_kernel();
  auto copy = k->clone();
  std::vector<double> theta = k->log_params();
  theta[0] += 1.0;
  copy->set_log_params(theta);
  EXPECT_NE(copy->log_params()[0], k->log_params()[0]);
}

TEST(KernelDescribe, MentionsStructure) {
  const auto k = make_paper_kernel();
  const std::string text = k->describe();
  EXPECT_NE(text.find("RBF"), std::string::npos);
  EXPECT_NE(text.find("White"), std::string::npos);
}

// Property: every kernel produces a symmetric positive semi-definite gram
// matrix on random point sets (checked via jittered Cholesky success and
// symmetry), and cross(x, x) agrees with gram minus the white component.
struct KernelFactory {
  const char* name;
  std::unique_ptr<Kernel> (*make)();
};

// gtest prints a parameter it cannot format as its raw bytes, and ctest puts
// that print into the test name; the pointers here would carry the load
// address, so the name would change with every run of the binary.
void PrintTo(const KernelFactory& factory, std::ostream* os) {
  *os << factory.name;
}

std::unique_ptr<Kernel> make_rbf() {
  return std::make_unique<RbfKernel>(0.7);
}
std::unique_ptr<Kernel> make_matern32() {
  return std::make_unique<MaternKernel>(MaternKernel::Nu::kThreeHalves, 0.7);
}
std::unique_ptr<Kernel> make_matern52() {
  return std::make_unique<MaternKernel>(MaternKernel::Nu::kFiveHalves, 0.7);
}
std::unique_ptr<Kernel> make_ard() {
  return std::make_unique<RbfArdKernel>(std::vector<double>{0.5, 1.5, 0.9});
}
std::unique_ptr<Kernel> make_paper() { return make_paper_kernel(1.5, 0.6, 0.05); }
std::unique_ptr<Kernel> make_rq() {
  return std::make_unique<RationalQuadraticKernel>(0.7, 2.0);
}

class KernelPsdProperty : public ::testing::TestWithParam<KernelFactory> {};

TEST_P(KernelPsdProperty, GramSymmetricPsd) {
  Rng rng(31);
  const auto kernel = GetParam().make();
  const Matrix x = random_points(20, 3, rng);
  const Matrix gram = kernel->gram(x);
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      EXPECT_NEAR(gram(i, j), gram(j, i), 1e-14);
    }
  }
  // PSD (up to jitter): factorization must succeed.
  EXPECT_NO_THROW(alamr::linalg::cholesky_with_jitter(gram));
}

TEST_P(KernelPsdProperty, DiagonalMatchesGram) {
  Rng rng(32);
  const auto kernel = GetParam().make();
  const Matrix x = random_points(12, 3, rng);
  const Matrix gram = kernel->gram(x);
  const auto diag = kernel->diagonal(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(diag[i], gram(i, i), 1e-13);
  }
}

TEST_P(KernelPsdProperty, SetParamsChangesGramConsistently) {
  Rng rng(33);
  const auto kernel = GetParam().make();
  const Matrix x = random_points(8, 3, rng);
  const Matrix before = kernel->gram(x);
  auto theta = kernel->log_params();
  for (double& t : theta) t += 0.3;
  kernel->set_log_params(theta);
  const Matrix after = kernel->gram(x);
  // Round-trip back restores the original gram exactly.
  for (double& t : theta) t -= 0.3;
  kernel->set_log_params(theta);
  EXPECT_LT(alamr::linalg::max_abs_diff(kernel->gram(x), before), 1e-14);
  EXPECT_GT(alamr::linalg::max_abs_diff(after, before), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelPsdProperty,
    ::testing::Values(KernelFactory{"rbf", &make_rbf},
                      KernelFactory{"matern32", &make_matern32},
                      KernelFactory{"matern52", &make_matern52},
                      KernelFactory{"ard", &make_ard},
                      KernelFactory{"paper", &make_paper},
                      KernelFactory{"rq", &make_rq}),
    [](const ::testing::TestParamInfo<KernelFactory>& info) {
      return info.param.name;
    });

}  // namespace
