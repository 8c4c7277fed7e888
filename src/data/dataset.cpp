#include "alamr/data/dataset.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace alamr::data {

void Dataset::validate() const {
  const std::size_t n = x.rows();
  if (wallclock.size() != n || cost.size() != n || memory.size() != n) {
    throw std::invalid_argument("Dataset: response length mismatch");
  }
  if (!feature_names.empty() && feature_names.size() != x.cols()) {
    throw std::invalid_argument("Dataset: feature_names length mismatch");
  }
}

void require_finite_features(const Matrix& x, std::string_view who,
                             std::string_view what) {
  for (const double v : x.data()) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument(std::string(who) + ": non-finite feature in " +
                                  std::string(what));
    }
  }
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out;
  out.feature_names = feature_names;
  out.x = Matrix(rows.size(), x.cols());
  out.wallclock.reserve(rows.size());
  out.cost.reserve(rows.size());
  out.memory.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t src = rows[r];
    if (src >= size()) throw std::out_of_range("Dataset::subset: row out of range");
    for (std::size_t c = 0; c < x.cols(); ++c) out.x(r, c) = x(src, c);
    out.wallclock.push_back(wallclock[src]);
    out.cost.push_back(cost[src]);
    out.memory.push_back(memory[src]);
  }
  return out;
}

Matrix Dataset::design_subset(std::span<const std::size_t> rows) const {
  Matrix out(rows.size(), x.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::size_t src = rows[r];
    if (src >= size()) {
      throw std::out_of_range("Dataset::design_subset: row out of range");
    }
    for (std::size_t c = 0; c < x.cols(); ++c) out(r, c) = x(src, c);
  }
  return out;
}

}  // namespace alamr::data
