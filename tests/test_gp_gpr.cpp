// Tests for the Gaussian Process regressor (paper Eqs. 1-9 behaviours).

#include "alamr/gp/gpr.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>

#include "alamr/core/faults.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/linalg/simd.hpp"
#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

// Smooth 1-D test function on [0, 1].
double f1(double x) { return std::sin(6.0 * x) + 0.5 * x; }

Matrix grid1d(std::size_t n, double lo = 0.0, double hi = 1.0) {
  Matrix x(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = lo + (hi - lo) * static_cast<double>(i) /
                      static_cast<double>(n - 1);
  }
  return x;
}

TEST(Gpr, InterpolatesNoiselessData) {
  Rng rng(1);
  const Matrix x = grid1d(10);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = f1(x(i, 0));

  // Tiny fixed noise, no optimization: posterior mean must pass through
  // the training targets.
  GprOptions options;
  options.optimize = false;
  GaussianProcessRegressor gpr(make_paper_kernel(1.0, 0.2, 1e-8), options);
  gpr.fit(x, y, rng);

  const Prediction pred = gpr.predict(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(pred.mean[i], y[i], 1e-4);
    EXPECT_LT(pred.stddev[i], 1e-2);
  }
}

TEST(Gpr, PredictsHeldOutPointsAfterFit) {
  Rng rng(2);
  const Matrix x_train = grid1d(25);
  std::vector<double> y(x_train.rows());
  for (std::size_t i = 0; i < x_train.rows(); ++i) y[i] = f1(x_train(i, 0));

  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x_train, y, rng);

  const Matrix x_test = grid1d(17, 0.03, 0.97);
  const Prediction pred = gpr.predict(x_test);
  for (std::size_t i = 0; i < x_test.rows(); ++i) {
    EXPECT_NEAR(pred.mean[i], f1(x_test(i, 0)), 0.05) << "x = " << x_test(i, 0);
  }
}

TEST(Gpr, UncertaintyGrowsAwayFromData) {
  Rng rng(3);
  const Matrix x_train = grid1d(10, 0.0, 0.5);  // data only on [0, 0.5]
  std::vector<double> y(x_train.rows());
  for (std::size_t i = 0; i < x_train.rows(); ++i) y[i] = f1(x_train(i, 0));

  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x_train, y, rng);

  const Matrix near{{0.25}};
  const Matrix far{{0.95}};
  EXPECT_LT(gpr.predict(near).stddev[0], gpr.predict(far).stddev[0]);
}

TEST(Gpr, VarianceNeverNegative) {
  Rng rng(4);
  // Duplicated training points stress the posterior variance computation.
  Matrix x(6, 1);
  x(0, 0) = 0.3; x(1, 0) = 0.3; x(2, 0) = 0.3;
  x(3, 0) = 0.7; x(4, 0) = 0.7; x(5, 0) = 0.7;
  const std::vector<double> y{1.0, 1.1, 0.9, -1.0, -0.9, -1.1};
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x, y, rng);
  const Prediction pred = gpr.predict(grid1d(50));
  for (const double s : pred.stddev) {
    EXPECT_GE(s, 0.0);
    EXPECT_TRUE(std::isfinite(s));
  }
}

TEST(Gpr, OptimizationImprovesLml) {
  Rng rng(5);
  const Matrix x = grid1d(30);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = f1(x(i, 0)) + rng.normal(0.0, 0.05);
  }

  GprOptions frozen;
  frozen.optimize = false;
  GaussianProcessRegressor fixed(make_paper_kernel(1.0, 1.0, 0.5), frozen);
  Rng r1(7);
  fixed.fit(x, y, r1);

  GprOptions tuned;
  tuned.restarts = 1;
  GaussianProcessRegressor optimized(make_paper_kernel(1.0, 1.0, 0.5), tuned);
  Rng r2(7);
  optimized.fit(x, y, r2);

  EXPECT_GT(optimized.log_marginal_likelihood(),
            fixed.log_marginal_likelihood());
}

TEST(Gpr, LearnsNoiseLevel) {
  Rng rng(6);
  const Matrix x = grid1d(60);
  constexpr double kNoise = 0.2;
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = f1(x(i, 0)) + rng.normal(0.0, kNoise);
  }
  GprOptions options;
  options.restarts = 2;
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  // The white-noise hyperparameter is the last log-parameter of the paper
  // kernel; it should recover the injected variance within a factor.
  const double learned_noise = std::exp(gpr.kernel().log_params()[2]);
  EXPECT_GT(learned_noise, kNoise * kNoise / 5.0);
  EXPECT_LT(learned_noise, kNoise * kNoise * 5.0);
}

TEST(Gpr, NormalizeYHandlesLargeOffsets) {
  Rng rng(8);
  const Matrix x = grid1d(20);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = 1000.0 + f1(x(i, 0));

  GprOptions options;
  options.normalize_y = true;
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  const Prediction pred = gpr.predict(grid1d(5, 0.1, 0.9));
  for (std::size_t i = 0; i < pred.mean.size(); ++i) {
    EXPECT_NEAR(pred.mean[i], 1000.0 + f1(0.1 + 0.8 * i / 4.0), 0.2);
  }
}

TEST(Gpr, PredictMeanMatchesPredict) {
  Rng rng(9);
  const Matrix x = grid1d(15);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = f1(x(i, 0));
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x, y, rng);

  const Matrix q = grid1d(9, 0.05, 0.95);
  const Prediction full = gpr.predict(q);
  const std::vector<double> mean_only = gpr.predict_mean(q);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    EXPECT_DOUBLE_EQ(full.mean[i], mean_only[i]);
  }
}

TEST(Gpr, WarmStartRefitIsCheapAndConsistent) {
  Rng rng(10);
  const Matrix x = grid1d(25);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = f1(x(i, 0)) + rng.normal(0.0, 0.05);
  }
  GprOptions initial;
  initial.restarts = 2;
  GaussianProcessRegressor gpr(make_paper_kernel(), initial);
  gpr.fit(x, y, rng);
  const double lml_first = gpr.log_marginal_likelihood();

  // Refit on the same data with warm start and no restarts: the LML must
  // not regress materially (hyperparameters start where they ended).
  GprOptions refit;
  refit.restarts = 0;
  refit.max_opt_iterations = 5;
  gpr.set_options(refit);
  gpr.fit(x, y, rng);
  EXPECT_GT(gpr.log_marginal_likelihood(), lml_first - 1e-6);
}

TEST(Gpr, CopySemanticsAreDeep) {
  Rng rng(11);
  const Matrix x = grid1d(10);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = f1(x(i, 0));
  GaussianProcessRegressor a(make_paper_kernel(), {});
  a.fit(x, y, rng);

  GaussianProcessRegressor b(a);
  // Refitting the copy on different data must not disturb the original.
  std::vector<double> y2(y);
  for (double& v : y2) v += 10.0;
  b.fit(x, y2, rng);
  const double mean_a = a.predict(Matrix{{0.5}}).mean[0];
  const double mean_b = b.predict(Matrix{{0.5}}).mean[0];
  EXPECT_NEAR(mean_b - mean_a, 10.0, 0.5);
}

TEST(Gpr, ErrorsOnMisuse) {
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  EXPECT_THROW(gpr.predict(Matrix{{0.5}}), std::logic_error);
  EXPECT_THROW(gpr.log_marginal_likelihood(), std::logic_error);

  Rng rng(12);
  const Matrix x = grid1d(4);
  const std::vector<double> wrong_y{1.0, 2.0};
  EXPECT_THROW(gpr.fit(x, wrong_y, rng), std::invalid_argument);
}

TEST(Gpr, SingleTrainingPointWorks) {
  Rng rng(13);
  const Matrix x{{0.5}};
  const std::vector<double> y{2.0};
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  gpr.fit(x, y, rng);  // optimization skipped for n < 2
  const Prediction pred = gpr.predict(Matrix{{0.5}});
  EXPECT_NEAR(pred.mean[0], 2.0, 1e-6);
}

TEST(Gpr, PosteriorVarianceShrinksWithMoreData) {
  // Adding training points near a query must not increase its posterior
  // variance (information never hurts in a fixed-hyperparameter GP).
  Rng rng(14);
  GprOptions options;
  options.optimize = false;
  const Matrix query{{0.52}};

  double previous = std::numeric_limits<double>::infinity();
  for (const std::size_t n : {3u, 6u, 12u, 24u}) {
    const Matrix x = grid1d(n);
    std::vector<double> y(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) y[i] = f1(x(i, 0));
    GaussianProcessRegressor gpr(make_paper_kernel(1.0, 0.3, 1e-6), options);
    gpr.fit(x, y, rng);
    const double sd = gpr.predict(query).stddev[0];
    EXPECT_LE(sd, previous + 1e-12) << "n = " << n;
    previous = sd;
  }
}

TEST(Gpr, PriorVarianceRecoveredFarFromData) {
  // Far from all training data the posterior variance approaches the
  // prior amplitude sigma_f^2 (plus noise in the diagonal convention).
  Rng rng(15);
  const Matrix x = grid1d(10, 0.0, 0.1);  // data clustered near zero
  std::vector<double> y(x.rows(), 0.5);
  GprOptions options;
  options.optimize = false;
  constexpr double kAmplitude = 2.0;
  GaussianProcessRegressor gpr(make_paper_kernel(kAmplitude, 0.05, 1e-4),
                               options);
  gpr.fit(x, y, rng);
  const Prediction far = gpr.predict(Matrix{{50.0}});
  EXPECT_NEAR(far.stddev[0] * far.stddev[0], kAmplitude + 1e-4, 1e-3);
}

// Property: predictions are deterministic given the seed, across repeats.
class GprDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GprDeterminism, SameSeedSameModel) {
  const auto run = [&] {
    Rng rng(GetParam());
    const Matrix x = grid1d(20);
    std::vector<double> y(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      y[i] = f1(x(i, 0)) + rng.normal(0.0, 0.1);
    }
    GprOptions options;
    options.restarts = 1;
    GaussianProcessRegressor gpr(make_paper_kernel(), options);
    gpr.fit(x, y, rng);
    return gpr.predict(grid1d(7, 0.1, 0.9)).mean;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GprDeterminism,
                         ::testing::Values(21ULL, 22ULL, 23ULL));

// --- Incremental posterior updates ---------------------------------------

/// 2-D training data with a mild nonlinear response.
void make_training(std::size_t n, Rng& rng, Matrix* x, std::vector<double>* y) {
  *x = Matrix(n, 2);
  y->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    (*x)(i, 0) = rng.uniform(0.0, 1.0);
    (*x)(i, 1) = rng.uniform(0.0, 1.0);
    (*y)[i] = std::sin(4.0 * (*x)(i, 0)) + (*x)(i, 1) * (*x)(i, 1) +
              rng.normal(0.0, 0.05);
  }
}

Matrix leading_rows(const Matrix& x, std::size_t n) {
  Matrix out(n, x.cols());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < x.cols(); ++c) out(i, c) = x(i, c);
  }
  return out;
}

TEST(GprIncremental, AddPointMatchesFitOnConcatenatedData) {
  Rng data_rng(31);
  Matrix x;
  std::vector<double> y;
  make_training(31, data_rng, &x, &y);

  GprOptions options;
  options.optimize = false;  // isolate the posterior math
  Rng r1(5);
  Rng r2(5);

  GaussianProcessRegressor incremental(make_paper_kernel(), options);
  incremental.fit(leading_rows(x, 30), std::span<const double>(y.data(), 30),
                  r1);
  incremental.add_point(x.row(30), y[30]);

  GaussianProcessRegressor full(make_paper_kernel(), options);
  full.fit(x, y, r2);

  ASSERT_EQ(incremental.training_size(), full.training_size());
  EXPECT_NEAR(incremental.log_marginal_likelihood(),
              full.log_marginal_likelihood(), 1e-10);
  const Matrix queries = leading_rows(x, 8);
  const Prediction a = incremental.predict(queries);
  const Prediction b = full.predict(queries);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    EXPECT_NEAR(a.mean[q], b.mean[q], 1e-10);
    EXPECT_NEAR(a.stddev[q], b.stddev[q], 1e-10);
  }
}

TEST(GprIncremental, FitAddPointMatchesFullRefitWithOptimization) {
  // With the warm-started optimization enabled both paths must consume the
  // rng identically and land on the same model — whether or not the
  // optimizer moves the hyperparameters.
  Rng data_rng(32);
  Matrix x;
  std::vector<double> y;
  make_training(26, data_rng, &x, &y);

  for (const std::size_t refit_iters : {std::size_t{0}, std::size_t{8}}) {
    GprOptions initial{.restarts = 1, .max_opt_iterations = 40};
    GprOptions refit{.restarts = 0, .max_opt_iterations = refit_iters};

    Rng r1(6);
    GaussianProcessRegressor incremental(make_paper_kernel(), initial);
    incremental.fit(leading_rows(x, 25), std::span<const double>(y.data(), 25),
                    r1);
    incremental.set_options(refit);
    incremental.fit_add_point(x.row(25), y[25], r1);

    Rng r2(6);
    GaussianProcessRegressor full(make_paper_kernel(), initial);
    full.fit(leading_rows(x, 25), std::span<const double>(y.data(), 25), r2);
    full.set_options(refit);
    full.fit(x, y, r2);

    EXPECT_DOUBLE_EQ(incremental.log_marginal_likelihood(),
                     full.log_marginal_likelihood());
    const Matrix queries = leading_rows(x, 6);
    const Prediction a = incremental.predict(queries);
    const Prediction b = full.predict(queries);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      EXPECT_DOUBLE_EQ(a.mean[q], b.mean[q]);
      EXPECT_DOUBLE_EQ(a.stddev[q], b.stddev[q]);
    }
  }
}

TEST(GprIncremental, ZeroIterationRefitTakesFastPath) {
  Rng data_rng(33);
  Matrix x;
  std::vector<double> y;
  make_training(21, data_rng, &x, &y);

  GprOptions initial{.restarts = 1, .max_opt_iterations = 40};
  Rng rng(7);
  GaussianProcessRegressor gpr(make_paper_kernel(), initial);
  gpr.fit(leading_rows(x, 20), std::span<const double>(y.data(), 20), rng);
  gpr.set_options(GprOptions{.restarts = 0, .max_opt_iterations = 0});
  EXPECT_TRUE(gpr.fit_add_point(x.row(20), y[20], rng));
  EXPECT_EQ(gpr.training_size(), 21u);
}

TEST(GprIncremental, DuplicatePointStaysUsable) {
  // Adding an exact duplicate of a training point drives the extended gram
  // toward singularity (only the White noise on the diagonal keeps it
  // positive); the incremental update must stay finite, falling back to
  // the jittered refactor if the extension fails.
  Rng data_rng(34);
  Matrix x;
  std::vector<double> y;
  make_training(15, data_rng, &x, &y);

  GprOptions options;
  options.optimize = false;
  Rng rng(8);
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  gpr.fit(x, y, rng);
  gpr.add_point(x.row(3), y[3]);
  EXPECT_EQ(gpr.training_size(), 16u);
  const Prediction pred = gpr.predict(leading_rows(x, 4));
  for (const double v : pred.mean) EXPECT_TRUE(std::isfinite(v));
  for (const double v : pred.stddev) EXPECT_TRUE(std::isfinite(v));
}

TEST(GprIncremental, AddPointBeforeFitThrows) {
  GaussianProcessRegressor gpr(make_paper_kernel(), {});
  Rng rng(9);
  EXPECT_THROW(gpr.add_point(std::vector<double>{0.5}, 1.0), std::logic_error);
  EXPECT_THROW(gpr.fit_add_point(std::vector<double>{0.5}, 1.0, rng),
               std::logic_error);
}


// --- the two-phase LML objective --------------------------------------------

namespace faults = alamr::core::faults;
namespace trace = alamr::core::trace;

// What one seeded fit with restarts = 2 did on the calling thread.
struct FitWork {
  std::uint64_t lml_value = 0;
  std::uint64_t lml_gradient = 0;
  std::uint64_t non_psd_hits = 0;
  std::uint64_t non_psd_fires = 0;
  std::vector<std::uint64_t> theta;  // bit patterns
};

// Fits a paper-kernel GPR to 40 noisy points of a smooth 2-D function,
// with `threads` pool lanes, under a local trace collector and a fault
// injector running `plan`. Both see only the calling thread's work; the
// installed injector arms the fit, so every multistart start runs there.
FitWork seeded_fit(std::size_t threads, const faults::FaultPlan& plan) {
  Rng rng(7);
  const std::size_t n = 40;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1) * x(i, 1) + 0.05 * rng.normal();
  }
  alamr::core::set_global_parallel_threads(threads);
  const bool was_enabled = trace::enabled();
  trace::set_enabled(true);
  trace::TraceCollector collector;
  faults::FaultInjector injector(plan);
  GprOptions options;
  options.restarts = 2;
  GaussianProcessRegressor gpr(make_paper_kernel(), options);
  {
    const trace::ScopedCollector trace_scope(collector);
    const faults::ScopedFaultInjector fault_scope(injector);
    Rng fit_rng(11);
    gpr.fit(x, y, fit_rng);
  }
  trace::set_enabled(was_enabled);
  alamr::core::set_global_parallel_threads(0);

  const trace::TraceReport report = collector.report();
  FitWork work;
  work.lml_value = report.counter("gpr.lml_value");
  work.lml_gradient = report.counter("gpr.lml_gradient");
  work.non_psd_hits = injector.hits(faults::Site::kCholeskyNonPsd);
  work.non_psd_fires = injector.fires(faults::Site::kCholeskyNonPsd);
  for (const double v : gpr.kernel().log_params()) {
    work.theta.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return work;
}

TEST(GprLmlPhases, WorkCountersRepeatAndFactorOncePerValue) {
  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const FitWork first = seeded_fit(threads, faults::FaultPlan{});
    const FitWork again = seeded_fit(threads, faults::FaultPlan{});
    EXPECT_EQ(first.lml_value, again.lml_value);
    EXPECT_EQ(first.lml_gradient, again.lml_gradient);
    EXPECT_EQ(first.theta, again.theta);
    // Rejected line-search trials skip the gradient phase...
    EXPECT_GT(first.lml_gradient, 0u);
    EXPECT_LT(first.lml_gradient, first.lml_value);
    // ...and no phase factors twice: one Cholesky per value phase, plus
    // the final posterior's.
    EXPECT_EQ(first.non_psd_hits, first.lml_value + 1);
    EXPECT_EQ(first.non_psd_fires, 0u);
  }
}

// Injected non-PSD failures under hit and probability schedules. The
// expected counters and theta bits were computed by the eager LML
// objective this two-phase one replaced, at the scalar SIMD level (where
// the byte goldens are pinned): each trial still factors exactly once, so
// every schedule consults the same hit numbers. An armed fit runs its
// starts serially on the calling thread, so 4 lanes consult the injector
// exactly as 1 lane does: same counters, same theta.
struct FaultPin {
  const char* plan;
  std::size_t threads;
  std::uint64_t hits;
  std::uint64_t fires;
  std::vector<std::uint64_t> theta;
};

TEST(GprLmlPhases, FaultSchedulesMatchEagerObjective) {
  namespace simd = alamr::linalg::simd;
  const simd::Level saved = simd::active_level();
  simd::set_level(simd::Level::kScalar);
  const std::vector<std::uint64_t> p_theta{
      0x3ff05786c454a6bbULL, 0xbfc385cc0e4d04f4ULL, 0xc017f262d962e173ULL};
  const FaultPin pins[] = {
      {"seed=5;cholesky.non_psd:hits=2|9|23|40", 1, 150, 4,
       {0x3ff05786594623ceULL, 0xbfc385cccc56ecd2ULL, 0xc017f262dc64fbdaULL}},
      {"seed=5;cholesky.non_psd:hits=2|9|23|40", 4, 150, 4,
       {0x3ff05786594623ceULL, 0xbfc385cccc56ecd2ULL, 0xc017f262dc64fbdaULL}},
      {"seed=5;cholesky.non_psd:p=0.08", 1, 159, 9, p_theta},
      {"seed=5;cholesky.non_psd:p=0.08", 4, 159, 9, p_theta},
  };
  for (const FaultPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.plan) + " threads " +
                 std::to_string(pin.threads));
    const FitWork work =
        seeded_fit(pin.threads, faults::FaultPlan::parse(pin.plan));
    EXPECT_EQ(work.non_psd_hits, pin.hits);
    EXPECT_EQ(work.non_psd_fires, pin.fires);
    EXPECT_EQ(work.theta, pin.theta);
  }
  simd::set_level(saved);
}

}  // namespace
