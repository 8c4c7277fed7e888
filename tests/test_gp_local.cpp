// Tests for the local GPR ensemble (paper Sec. VI future work).

#include "alamr/gp/local.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cmath>

#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::gp;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

/// Piecewise response: two regions (x0 < 0.5 and x0 >= 0.5) with very
/// different characters — local models should win here.
double piecewise(double x0, double x1) {
  return x0 < 0.5 ? std::sin(20.0 * x1) : 5.0 + 0.1 * x1;
}

int region_of(std::span<const double> row) { return row[0] < 0.5 ? 0 : 1; }

Matrix sample_inputs(std::size_t n, Rng& rng) {
  Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    x(i, 1) = rng.uniform(0.0, 1.0);
  }
  return x;
}

TEST(LocalGpr, FitsOneModelPerRegion) {
  Rng rng(1);
  const Matrix x = sample_inputs(60, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  ensemble.fit(x, y, rng);
  EXPECT_TRUE(ensemble.fitted());
  EXPECT_EQ(ensemble.region_count(), 2u);
  EXPECT_EQ(ensemble.region_labels(), (std::vector<int>{0, 1}));
  EXPECT_NO_THROW(ensemble.region_model(0));
  EXPECT_THROW(ensemble.region_model(7), std::out_of_range);
}

TEST(LocalGpr, BeatsGlobalModelOnPiecewiseResponse) {
  Rng rng(2);
  const Matrix x_train = sample_inputs(80, rng);
  std::vector<double> y_train(x_train.rows());
  for (std::size_t i = 0; i < x_train.rows(); ++i) {
    y_train[i] = piecewise(x_train(i, 0), x_train(i, 1));
  }
  const Matrix x_test = sample_inputs(60, rng);

  GprOptions options;
  options.restarts = 1;
  LocalGprEnsemble local(make_paper_kernel(), &region_of, options);
  Rng r1(3);
  local.fit(x_train, y_train, r1);

  GaussianProcessRegressor global(make_paper_kernel(), options);
  Rng r2(3);
  global.fit(x_train, y_train, r2);

  double err_local = 0.0;
  double err_global = 0.0;
  const Prediction pl = local.predict(x_test);
  const Prediction pg = global.predict(x_test);
  for (std::size_t i = 0; i < x_test.rows(); ++i) {
    const double truth = piecewise(x_test(i, 0), x_test(i, 1));
    err_local += (pl.mean[i] - truth) * (pl.mean[i] - truth);
    err_global += (pg.mean[i] - truth) * (pg.mean[i] - truth);
  }
  EXPECT_LT(err_local, err_global);
}

TEST(LocalGpr, SmallRegionsFallBackToGlobal) {
  Rng rng(4);
  Matrix x = sample_inputs(30, rng);
  // Push all but two samples into region 0.
  for (std::size_t i = 0; i < x.rows() - 2; ++i) x(i, 0) = 0.2;
  for (std::size_t i = x.rows() - 2; i < x.rows(); ++i) x(i, 0) = 0.8;
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  ensemble.fit(x, y, rng, /*min_region_size=*/5);
  EXPECT_EQ(ensemble.region_count(), 1u);  // region 1 too small
  // Predictions in the modelless region still work (global fallback).
  Matrix q(1, 2);
  q(0, 0) = 0.9;
  q(0, 1) = 0.5;
  const Prediction pred = ensemble.predict(q);
  EXPECT_TRUE(std::isfinite(pred.mean[0]));
  EXPECT_GT(pred.stddev[0], 0.0);
}

TEST(LocalGpr, ValidatesArguments) {
  EXPECT_THROW(LocalGprEnsemble(make_paper_kernel(), nullptr),
               std::invalid_argument);
  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  Matrix q(1, 2);
  EXPECT_THROW(ensemble.predict(q), std::logic_error);
  Rng rng(5);
  const Matrix empty(0, 2);
  EXPECT_THROW(ensemble.fit(empty, {}, rng), std::invalid_argument);
}

TEST(LocalGpr, IntMinLabelRoutesToItsOwnModelNotTheFallback) {
  // Regression: INT_MIN was the internal "no model" sentinel, so a
  // labeler emitting INT_MIN had its region's queries mis-routed to the
  // global fallback even when the region owned a fitted model.
  const auto labeler = [](std::span<const double> row) {
    return row[0] < 0.5 ? INT_MIN : 1;
  };
  Rng rng(7);
  const Matrix x = sample_inputs(60, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble ensemble(make_paper_kernel(), labeler);
  ensemble.fit(x, y, rng);
  EXPECT_EQ(ensemble.region_labels(), (std::vector<int>{INT_MIN, 1}));

  Matrix q(1, 2);
  q(0, 0) = 0.1;
  q(0, 1) = 0.5;
  const Prediction via_ensemble = ensemble.predict(q);
  const Prediction via_region = ensemble.region_model(INT_MIN).predict(q);
  EXPECT_EQ(via_ensemble.mean[0], via_region.mean[0]);
  EXPECT_EQ(via_ensemble.stddev[0], via_region.stddev[0]);
}

TEST(LocalGpr, EmptyRegionQueryFallsBackInsteadOfIndexingAnEmptyExpert) {
  // Regression: a query labeled into a region that received ZERO training
  // samples must answer through the fallback, not index a nonexistent
  // expert.
  const auto labeler = [](std::span<const double> row) {
    if (row[0] > 2.0) return 99;  // never seen in training
    return row[0] < 0.5 ? 0 : 1;
  };
  Rng rng(8);
  const Matrix x = sample_inputs(50, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble ensemble(make_paper_kernel(), labeler);
  ensemble.fit(x, y, rng);

  Matrix q(1, 2);
  q(0, 0) = 3.0;  // labels as 99: an empty region
  q(0, 1) = 0.5;
  const Prediction pred = ensemble.predict(q);
  EXPECT_TRUE(std::isfinite(pred.mean[0]));
  EXPECT_GT(pred.stddev[0], 0.0);
  const std::vector<double> mu = ensemble.predict_mean(q);
  EXPECT_EQ(mu[0], pred.mean[0]);
}

TEST(LocalGpr, PriorFallbackAnswersWithoutAGlobalModel) {
  // Fallback::kPrior: modelless regions answer with the running target
  // mean and the prototype kernel's prior stddev — no O(n^3) global fit.
  Rng rng(9);
  Matrix x = sample_inputs(30, rng);
  for (std::size_t i = 0; i < x.rows() - 2; ++i) x(i, 0) = 0.2;
  for (std::size_t i = x.rows() - 2; i < x.rows(); ++i) x(i, 0) = 0.8;
  std::vector<double> y(x.rows());
  double y_sum = 0.0;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = piecewise(x(i, 0), x(i, 1));
    y_sum += y[i];
  }

  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  LocalGprEnsemble::FitSpec spec;
  spec.min_region_size = 5;
  spec.fallback = LocalGprEnsemble::Fallback::kPrior;
  ensemble.fit(x, y, rng, spec);
  EXPECT_EQ(ensemble.region_count(), 1u);  // region 1 too small

  Matrix q(1, 2);
  q(0, 0) = 0.9;  // region 1: no model of its own
  q(0, 1) = 0.5;
  const Prediction pred = ensemble.predict(q);
  EXPECT_DOUBLE_EQ(pred.mean[0], y_sum / static_cast<double>(x.rows()));
  EXPECT_DOUBLE_EQ(pred.mean[0], ensemble.prior_mean());
  EXPECT_GT(pred.stddev[0], 0.0);
  EXPECT_TRUE(std::isfinite(ensemble.lml()));
}

TEST(LocalGpr, AddPointGrowsARegionIntoItsOwnModel) {
  Rng rng(10);
  Matrix x = sample_inputs(30, rng);
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = 0.2;  // all region 0
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  LocalGprEnsemble::FitSpec spec;
  spec.min_region_size = 5;
  spec.fallback = LocalGprEnsemble::Fallback::kPrior;
  ensemble.fit(x, y, rng, spec);
  EXPECT_EQ(ensemble.region_count(), 1u);

  // Feed region 1 one point at a time; it gets a model exactly when it
  // reaches min_region_size.
  for (std::size_t p = 0; p < 7; ++p) {
    std::vector<double> row = {0.8, 0.1 * static_cast<double>(p + 1)};
    const int label = ensemble.add_point(row, piecewise(row[0], row[1]), rng);
    EXPECT_EQ(label, 1);
    EXPECT_EQ(ensemble.region_count(), p + 1 >= 5 ? 2u : 1u);
  }
  EXPECT_EQ(ensemble.training_size(), 37u);
  // log_params covers both fitted regions.
  const std::size_t per_model = make_paper_kernel().num_params();
  EXPECT_EQ(ensemble.log_params().size(), 2 * per_model);
}

TEST(LocalGpr, PendingLogParamsCountMismatchThrows) {
  Rng rng(11);
  const Matrix x = sample_inputs(40, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  const std::size_t per_model = make_paper_kernel().num_params();
  EXPECT_THROW(
      ensemble.set_pending_log_params(std::vector<double>(per_model + 1, 0.0)),
      std::runtime_error);
  // Valid multiple but wrong model count for the upcoming fit (2 regions
  // + 1 global = 3 models, not 1).
  ensemble.set_pending_log_params(std::vector<double>(per_model, 0.0));
  Rng r2(11);
  EXPECT_THROW(ensemble.fit(x, y, r2), std::runtime_error);
}

TEST(LocalGpr, PendingLogParamsRebuildMatchesOriginalFit) {
  Rng rng(12);
  const Matrix x = sample_inputs(50, rng);
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) y[i] = piecewise(x(i, 0), x(i, 1));

  LocalGprEnsemble first(make_paper_kernel(), &region_of);
  Rng r1(13);
  first.fit(x, y, r1);
  const std::vector<double> theta = first.log_params();

  GprOptions no_opt;
  no_opt.optimize = false;
  LocalGprEnsemble second(make_paper_kernel(), &region_of, no_opt);
  second.set_pending_log_params(theta);
  Rng r2(99);  // never consumed with optimization off
  second.fit(x, y, r2);
  EXPECT_EQ(second.log_params(), theta);

  const Matrix q = sample_inputs(10, rng);
  const Prediction p1 = first.predict(q);
  const Prediction p2 = second.predict(q);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    EXPECT_EQ(p1.mean[i], p2.mean[i]);
    EXPECT_EQ(p1.stddev[i], p2.stddev[i]);
  }
}

TEST(LocalGpr, PredictionOrderIsPreserved) {
  // Queries alternating between regions must come back in query order.
  Rng rng(6);
  const Matrix x_train = sample_inputs(40, rng);
  std::vector<double> y_train(x_train.rows());
  for (std::size_t i = 0; i < x_train.rows(); ++i) {
    y_train[i] = piecewise(x_train(i, 0), x_train(i, 1));
  }
  LocalGprEnsemble ensemble(make_paper_kernel(), &region_of);
  ensemble.fit(x_train, y_train, rng);

  Matrix q(4, 2);
  q(0, 0) = 0.9; q(0, 1) = 0.5;  // region 1: value ~5
  q(1, 0) = 0.1; q(1, 1) = 0.5;  // region 0: value in [-1, 1]
  q(2, 0) = 0.8; q(2, 1) = 0.2;  // region 1
  q(3, 0) = 0.2; q(3, 1) = 0.2;  // region 0
  const Prediction pred = ensemble.predict(q);
  EXPECT_GT(pred.mean[0], 3.0);
  EXPECT_LT(pred.mean[1], 3.0);
  EXPECT_GT(pred.mean[2], 3.0);
  EXPECT_LT(pred.mean[3], 3.0);
}

}  // namespace
