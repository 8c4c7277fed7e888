#pragma once

// Pre-processing from paper Sec. IV-A:
//  - responses (cost, memory) get a log10 transform, which both evens out
//    prediction quality across the 5.4e3x response range and guarantees
//    positive predictions after exponentiation;
//  - features are min-max scaled to the unit cube [0, 1]^d.

#include <span>
#include <vector>

#include "alamr/linalg/matrix.hpp"

namespace alamr::data {

using linalg::Matrix;

/// Elementwise log10. Throws std::invalid_argument on non-positive or
/// non-finite input.
std::vector<double> log10_transform(std::span<const double> values);

/// Elementwise 10^v — inverse of log10_transform; output always positive.
std::vector<double> exp10_transform(std::span<const double> values);

/// Per-column feature pre-transform applied BEFORE unit-cube scaling.
///
/// Paper Sec. V-D (first discussion item): processor counts are sampled at
/// 2^2, 2^3, ... — training on log2(p) makes successive values equidistant
/// so one RBF length scale fits the whole axis. kLog10 is provided for
/// axes spanning decades.
enum class ColumnTransform { kIdentity, kLog2, kLog10 };

/// Applies per-column transforms to a design matrix (column count must
/// match the spec length; pass an empty spec for all-identity). Log
/// transforms require positive entries.
Matrix apply_column_transforms(const Matrix& x,
                               std::span<const ColumnTransform> spec);

/// Min-max scaler to [0, 1]^d fitted on a design matrix.
///
/// Constant columns map to 0.5 (rather than dividing by zero), matching
/// the behaviour a practitioner wants when a sweep fixes one parameter.
class FeatureScaler {
 public:
  FeatureScaler() = default;

  /// Learns per-column min/max from `x`.
  static FeatureScaler fit(const Matrix& x);

  /// Maps rows of `x` into the unit cube. Columns seen as constant during
  /// fit map to 0.5; values outside the fitted range extrapolate linearly.
  Matrix transform(const Matrix& x) const;

  /// Inverse map back to original units.
  Matrix inverse_transform(const Matrix& scaled) const;

  std::size_t dim() const noexcept { return mins_.size(); }
  std::span<const double> mins() const noexcept { return mins_; }
  std::span<const double> maxs() const noexcept { return maxs_; }

 private:
  std::vector<double> mins_;
  std::vector<double> maxs_;
};

}  // namespace alamr::data
