#include "alamr/data/transforms.hpp"

#include <cmath>
#include <stdexcept>

namespace alamr::data {

std::vector<double> log10_transform(std::span<const double> values) {
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!(values[i] > 0.0) || !std::isfinite(values[i])) {
      throw std::invalid_argument(
          "log10_transform: values must be positive and finite");
    }
    out[i] = std::log10(values[i]);
  }
  return out;
}

std::vector<double> exp10_transform(std::span<const double> values) {
  std::vector<double> out(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = std::pow(10.0, values[i]);
  }
  return out;
}

Matrix apply_column_transforms(const Matrix& x,
                               std::span<const ColumnTransform> spec) {
  if (spec.empty()) return x;
  if (spec.size() != x.cols()) {
    throw std::invalid_argument("apply_column_transforms: spec size mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const double v = x(i, j);
      switch (spec[j]) {
        case ColumnTransform::kIdentity:
          out(i, j) = v;
          break;
        case ColumnTransform::kLog2:
        case ColumnTransform::kLog10:
          if (!(v > 0.0)) {
            throw std::invalid_argument(
                "apply_column_transforms: log of non-positive feature");
          }
          out(i, j) =
              spec[j] == ColumnTransform::kLog2 ? std::log2(v) : std::log10(v);
          break;
      }
    }
  }
  return out;
}

FeatureScaler FeatureScaler::fit(const Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("FeatureScaler: empty matrix");
  FeatureScaler scaler;
  scaler.mins_.assign(x.cols(), std::numeric_limits<double>::infinity());
  scaler.maxs_.assign(x.cols(), -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      scaler.mins_[j] = std::min(scaler.mins_[j], x(i, j));
      scaler.maxs_[j] = std::max(scaler.maxs_[j], x(i, j));
    }
  }
  return scaler;
}

Matrix FeatureScaler::transform(const Matrix& x) const {
  if (x.cols() != dim()) {
    throw std::invalid_argument("FeatureScaler::transform: dimension mismatch");
  }
  Matrix out(x.rows(), x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    const double range = maxs_[j] - mins_[j];
    for (std::size_t i = 0; i < x.rows(); ++i) {
      out(i, j) = range > 0.0 ? (x(i, j) - mins_[j]) / range : 0.5;
    }
  }
  return out;
}

Matrix FeatureScaler::inverse_transform(const Matrix& scaled) const {
  if (scaled.cols() != dim()) {
    throw std::invalid_argument("FeatureScaler::inverse_transform: dimension mismatch");
  }
  Matrix out(scaled.rows(), scaled.cols());
  for (std::size_t j = 0; j < scaled.cols(); ++j) {
    const double range = maxs_[j] - mins_[j];
    for (std::size_t i = 0; i < scaled.rows(); ++i) {
      out(i, j) = range > 0.0 ? mins_[j] + scaled(i, j) * range : mins_[j];
    }
  }
  return out;
}

}  // namespace alamr::data
