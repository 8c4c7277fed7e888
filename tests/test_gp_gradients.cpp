// The repository's key numerical property test: analytic gradients of the
// kernel gram matrices and of the log marginal likelihood must match
// central finite differences for every kernel profile.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "alamr/gp/gpr.hpp"
#include "alamr/gp/kernels.hpp"
#include "alamr/opt/objective.hpp"
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

struct KernelFactory {
  const char* name;
  Kernel (*make)(std::size_t dim);
};

// gtest prints a parameter it cannot format as its raw bytes, and ctest puts
// that print into the test name; the pointers here would carry the load
// address, so the name would change with every run of the binary.
void PrintTo(const KernelFactory& factory, std::ostream* os) {
  *os << factory.name;
}

Kernel make_rbf(std::size_t dim) {
  return make_kernel(Kernel::Profile::kRbf, dim, 1.0, 0.8, 1e-3);
}
Kernel make_matern32(std::size_t dim) {
  return make_kernel(Kernel::Profile::kMatern32, dim, 0.8, 0.9, 1e-3);
}
Kernel make_matern52(std::size_t dim) {
  return make_kernel(Kernel::Profile::kMatern52, dim, 1.7, 0.9, 0.3);
}
Kernel make_ard(std::size_t dim) {
  Kernel k = make_kernel(Kernel::Profile::kRbfArd, dim, 1.0, 1.0, 0.05);
  std::vector<double> theta = k.log_params();
  for (std::size_t i = 0; i < dim; ++i) {
    theta[1 + i] = std::log(0.4 + 0.3 * static_cast<double>(i));
  }
  k.set_log_params(theta);
  return k;
}
Kernel make_paper(std::size_t) { return make_paper_kernel(1.2, 0.7, 0.05); }

Matrix gram(const Kernel& kernel, const Matrix& x) {
  PairwiseDistances dist = PairwiseDistances::train(x);
  kernel.prepare_distances(dist);
  return kernel.gram_cached(dist);
}

Matrix gram_with_gradients(const Kernel& kernel, const Matrix& x,
                           std::vector<Matrix>& gradients) {
  PairwiseDistances dist = PairwiseDistances::train(x);
  kernel.prepare_distances(dist);
  return kernel.gram_with_gradients_cached(dist, gradients);
}

class GramGradientProperty : public ::testing::TestWithParam<KernelFactory> {};

// d(gram)/d(theta_j) via finite differences on each gram entry.
TEST_P(GramGradientProperty, MatchesFiniteDifferences) {
  Rng rng(41);
  constexpr std::size_t kDim = 3;
  const Matrix x = random_points(7, kDim, rng);
  Kernel kernel = GetParam().make(kDim);

  std::vector<Matrix> analytic;
  gram_with_gradients(kernel, x, analytic);
  ASSERT_EQ(analytic.size(), kernel.num_params());

  const std::vector<double> theta0 = kernel.log_params();
  constexpr double kStep = 1e-6;
  for (std::size_t p = 0; p < kernel.num_params(); ++p) {
    std::vector<double> theta = theta0;
    theta[p] = theta0[p] + kStep;
    kernel.set_log_params(theta);
    const Matrix plus = gram(kernel, x);
    theta[p] = theta0[p] - kStep;
    kernel.set_log_params(theta);
    const Matrix minus = gram(kernel, x);
    kernel.set_log_params(theta0);

    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.rows(); ++j) {
        const double fd = (plus(i, j) - minus(i, j)) / (2.0 * kStep);
        EXPECT_NEAR(analytic[p](i, j), fd, 1e-6)
            << "param " << p << " entry (" << i << ", " << j << ")";
      }
    }
  }
}

// Gram value returned together with gradients must equal the value path.
TEST_P(GramGradientProperty, GramConsistentWithPlainEvaluation) {
  Rng rng(43);
  constexpr std::size_t kDim = 3;
  const Matrix x = random_points(9, kDim, rng);
  const Kernel kernel = GetParam().make(kDim);
  std::vector<Matrix> gradients;
  const Matrix with_grad = gram_with_gradients(kernel, x, gradients);
  EXPECT_LT(alamr::linalg::max_abs_diff(with_grad, gram(kernel, x)), 1e-14);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, GramGradientProperty,
    ::testing::Values(KernelFactory{"rbf", &make_rbf},
                      KernelFactory{"matern32", &make_matern32},
                      KernelFactory{"matern52", &make_matern52},
                      KernelFactory{"ard", &make_ard},
                      KernelFactory{"paper", &make_paper}),
    [](const ::testing::TestParamInfo<KernelFactory>& info) {
      return info.param.name;
    });

class LmlGradientProperty : public ::testing::TestWithParam<KernelFactory> {};

// The analytic LML gradient (via trace identity) must match finite
// differences of the LML value.
TEST_P(LmlGradientProperty, MatchesFiniteDifferences) {
  Rng rng(59);
  constexpr std::size_t kDim = 2;
  const Matrix x = random_points(12, kDim, rng);
  std::vector<double> y(x.rows());
  for (double& v : y) v = rng.normal(0.0, 1.0);

  GprOptions options;
  options.optimize = false;  // keep the kernel at its constructed params
  options.normalize_y = false;
  GaussianProcessRegressor gpr(GetParam().make(kDim), options);
  gpr.fit(x, y, rng);

  const std::vector<double> theta = gpr.kernel().log_params();
  std::vector<double> analytic(theta.size());
  gpr.log_marginal_likelihood(theta, analytic);

  const alamr::opt::Objective lml_value =
      [&gpr](std::span<const double> t, std::span<double>) {
        return gpr.log_marginal_likelihood(t, {});
      };
  const std::vector<double> fd =
      alamr::opt::finite_difference_gradient(lml_value, theta, 1e-6);

  for (std::size_t p = 0; p < theta.size(); ++p) {
    EXPECT_NEAR(analytic[p], fd[p], 1e-4 * std::max(1.0, std::abs(fd[p])))
        << "param " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, LmlGradientProperty,
    ::testing::Values(KernelFactory{"rbf", &make_rbf},
                      KernelFactory{"matern32", &make_matern32},
                      KernelFactory{"matern52", &make_matern52},
                      KernelFactory{"ard", &make_ard},
                      KernelFactory{"paper", &make_paper}),
    [](const ::testing::TestParamInfo<KernelFactory>& info) {
      return info.param.name;
    });

}  // namespace
