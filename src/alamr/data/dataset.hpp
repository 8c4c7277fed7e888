#pragma once

// The experiment database the offline AL simulator consults (paper
// Sec. IV): rows are AMR simulation configurations (5 features), columns
// hold the measured responses (wall-clock seconds, cost in node-hours,
// MaxRSS memory in MB).

#include <string>
#include <string_view>
#include <vector>

#include "alamr/linalg/matrix.hpp"

namespace alamr::data {

using linalg::Matrix;

/// Column-aligned dataset: row i of `x` corresponds to responses
/// wallclock[i] / cost[i] / memory[i].
struct Dataset {
  Matrix x;                                // n x d design matrix
  std::vector<double> wallclock;           // seconds
  std::vector<double> cost;                // node-hours
  std::vector<double> memory;              // MB (MaxRSS per process)
  std::vector<std::string> feature_names;  // size d

  std::size_t size() const noexcept { return x.rows(); }
  std::size_t dim() const noexcept { return x.cols(); }

  /// Throws std::invalid_argument if any column length disagrees with the
  /// design matrix, or feature_names does not match the dimension.
  void validate() const;

  /// New dataset containing the given rows, in the given order.
  Dataset subset(std::span<const std::size_t> rows) const;

  /// Design-matrix restricted to the given rows.
  Matrix design_subset(std::span<const std::size_t> rows) const;
};

/// Throws std::invalid_argument("<who>: non-finite feature in <what>") when
/// any entry of `x` is NaN or infinite: such a feature would reach the
/// scaler and the kernel, which have no meaning for it.
void require_finite_features(const Matrix& x, std::string_view who,
                             std::string_view what);

}  // namespace alamr::data
