// Tests for the paper's pre-processing: log10 responses and unit-cube
// feature scaling (Sec. IV-A).

#include "alamr/data/transforms.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "alamr/stats/rng.hpp"

namespace {

using namespace alamr::data;
using alamr::linalg::Matrix;
using alamr::stats::Rng;

TEST(Log10Transform, KnownValues) {
  const std::vector<double> v{1.0, 10.0, 100.0, 0.01};
  const auto t = log10_transform(v);
  EXPECT_DOUBLE_EQ(t[0], 0.0);
  EXPECT_DOUBLE_EQ(t[1], 1.0);
  EXPECT_DOUBLE_EQ(t[2], 2.0);
  EXPECT_DOUBLE_EQ(t[3], -2.0);
}

TEST(Log10Transform, RejectsNonPositive) {
  EXPECT_THROW(log10_transform(std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(log10_transform(std::vector<double>{-3.0}),
               std::invalid_argument);
}

TEST(Log10Transform, RejectsNonFinite) {
  EXPECT_THROW(log10_transform(std::vector<double>{
                   1.0, std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(log10_transform(std::vector<double>{
                   std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
}

TEST(Exp10Transform, RoundTripsAndStaysPositive) {
  const std::vector<double> v{0.002, 0.249, 11.853};  // Table I cost range
  const auto round_trip = exp10_transform(log10_transform(v));
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(round_trip[i], v[i], 1e-12);
  }
  // The paper's motivation: exponentiation guarantees positive predictions.
  const auto positive = exp10_transform(std::vector<double>{-50.0, 0.0, 3.0});
  for (const double p : positive) EXPECT_GT(p, 0.0);
}

TEST(FeatureScaler, MapsToUnitCube) {
  const Matrix x{{4.0, 8.0}, {32.0, 16.0}, {18.0, 32.0}};
  const FeatureScaler scaler = FeatureScaler::fit(x);
  const Matrix scaled = scaler.transform(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_GE(scaled(i, j), 0.0);
      EXPECT_LE(scaled(i, j), 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.0);  // min maps to 0
  EXPECT_DOUBLE_EQ(scaled(1, 0), 1.0);  // max maps to 1
}

TEST(FeatureScaler, InverseTransformRoundTrips) {
  Rng rng(3);
  Matrix x(20, 4);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.uniform(-5.0, 50.0);
  }
  const FeatureScaler scaler = FeatureScaler::fit(x);
  const Matrix back = scaler.inverse_transform(scaler.transform(x));
  EXPECT_LT(alamr::linalg::max_abs_diff(back, x), 1e-10);
}

TEST(FeatureScaler, ConstantColumnMapsToHalf) {
  const Matrix x{{7.0, 1.0}, {7.0, 2.0}};
  const FeatureScaler scaler = FeatureScaler::fit(x);
  const Matrix scaled = scaler.transform(x);
  EXPECT_DOUBLE_EQ(scaled(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(scaled(1, 0), 0.5);
}

TEST(FeatureScaler, ExtrapolatesOutsideFittedRange) {
  const Matrix x{{0.0}, {10.0}};
  const FeatureScaler scaler = FeatureScaler::fit(x);
  const Matrix outside{{20.0}};
  EXPECT_DOUBLE_EQ(scaler.transform(outside)(0, 0), 2.0);
}

TEST(ColumnTransforms, EmptySpecIsIdentity) {
  const Matrix x{{4.0, 0.2}, {32.0, 0.5}};
  const Matrix out = apply_column_transforms(x, {});
  EXPECT_LT(alamr::linalg::max_abs_diff(out, x), 1e-15);
}

TEST(ColumnTransforms, Log2MakesPowersOfTwoEquidistant) {
  // Paper Sec. V-D: with log2(p), 2^3 is equally far from 2^2 and 2^4.
  const Matrix x{{4.0}, {8.0}, {16.0}};
  const std::vector<ColumnTransform> spec{ColumnTransform::kLog2};
  const Matrix out = apply_column_transforms(x, spec);
  EXPECT_DOUBLE_EQ(out(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(out(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(out(1, 0) - out(0, 0), out(2, 0) - out(1, 0));
}

TEST(ColumnTransforms, MixedSpecAppliesPerColumn) {
  const Matrix x{{8.0, 100.0, 7.0}};
  const std::vector<ColumnTransform> spec{
      ColumnTransform::kLog2, ColumnTransform::kLog10,
      ColumnTransform::kIdentity};
  const Matrix out = apply_column_transforms(x, spec);
  EXPECT_DOUBLE_EQ(out(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(out(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(out(0, 2), 7.0);
}

TEST(ColumnTransforms, RejectsBadInput) {
  const Matrix x{{1.0, 2.0}};
  const std::vector<ColumnTransform> short_spec{ColumnTransform::kIdentity};
  EXPECT_THROW(apply_column_transforms(x, short_spec), std::invalid_argument);

  const Matrix nonpositive{{-1.0}};
  const std::vector<ColumnTransform> log_spec{ColumnTransform::kLog2};
  EXPECT_THROW(apply_column_transforms(nonpositive, log_spec),
               std::invalid_argument);
}

TEST(FeatureScaler, DimensionMismatchThrows) {
  const Matrix x{{1.0, 2.0}};
  const FeatureScaler scaler = FeatureScaler::fit(x);
  EXPECT_THROW(scaler.transform(Matrix{{1.0}}), std::invalid_argument);
  EXPECT_THROW(scaler.inverse_transform(Matrix{{1.0, 2.0, 3.0}}),
               std::invalid_argument);
}

}  // namespace
