#include "alamr/gp/distances.hpp"

#include <algorithm>
#include <stdexcept>

#include "alamr/core/trace.hpp"

namespace alamr::gp {

DistanceBase::DistanceBase(const Matrix& x) : x_(x) {
  core::trace::count("gp.dist_base_build");
  const std::size_t n = x_.rows();
  sq_ = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double r2 = linalg::squared_distance(x_.row(i), x_.row(j));
      sq_(i, j) = r2;
      sq_(j, i) = r2;
    }
  }
}

namespace {

void check_rows_in_range(std::span<const std::size_t> rows, std::size_t n,
                         const char* what) {
  for (const std::size_t r : rows) {
    if (r >= n) throw std::out_of_range(what);
  }
}

}  // namespace

PairwiseDistances PairwiseDistances::train_from_base(
    const DistanceBase& base, std::span<const std::size_t> rows) {
  check_rows_in_range(rows, base.size(),
                      "PairwiseDistances::train_from_base: row out of range");
  core::trace::count("gp.dist_cache_gather");
  PairwiseDistances d;
  d.symmetric_ = true;
  d.x_ = linalg::gather_rows(base.x(), rows);
  const std::size_t k = rows.size();
  d.sq_ = Matrix(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double r2 = base.squared(rows[i], rows[j]);
      d.sq_(i, j) = r2;
      d.sq_(j, i) = r2;
    }
  }
  return d;
}

PairwiseDistances PairwiseDistances::cross_from_base(
    const DistanceBase& base, std::span<const std::size_t> rows_x,
    std::span<const std::size_t> rows_y) {
  check_rows_in_range(rows_x, base.size(),
                      "PairwiseDistances::cross_from_base: row out of range");
  check_rows_in_range(rows_y, base.size(),
                      "PairwiseDistances::cross_from_base: row out of range");
  core::trace::count("gp.dist_cache_gather");
  PairwiseDistances d;
  d.symmetric_ = false;
  d.x_ = linalg::gather_rows(base.x(), rows_x);
  d.y_ = linalg::gather_rows(base.x(), rows_y);
  d.sq_ = Matrix(rows_x.size(), rows_y.size());
  for (std::size_t i = 0; i < rows_x.size(); ++i) {
    const auto out = d.sq_.row(i);
    for (std::size_t j = 0; j < rows_y.size(); ++j) {
      out[j] = base.squared(rows_x[i], rows_y[j]);
    }
  }
  return d;
}

PairwiseDistances PairwiseDistances::train(const Matrix& x) {
  core::trace::count("gp.dist_cache_build");
  PairwiseDistances d;
  d.symmetric_ = true;
  d.x_ = x;
  const std::size_t n = x.rows();
  d.sq_ = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double r2 = linalg::squared_distance(x.row(i), x.row(j));
      d.sq_(i, j) = r2;
      d.sq_(j, i) = r2;
    }
  }
  return d;
}

PairwiseDistances PairwiseDistances::cross(const Matrix& x, const Matrix& y) {
  if (x.cols() != y.cols()) {
    throw std::invalid_argument("PairwiseDistances::cross: dim mismatch");
  }
  core::trace::count("gp.dist_cache_build");
  PairwiseDistances d;
  d.symmetric_ = false;
  d.x_ = x;
  d.y_ = y;
  d.sq_ = Matrix(x.rows(), y.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto xi = x.row(i);
    for (std::size_t j = 0; j < y.rows(); ++j) {
      d.sq_(i, j) = linalg::squared_distance(xi, y.row(j));
    }
  }
  return d;
}

void PairwiseDistances::ensure_components() {
  if (!components_.empty()) return;
  core::trace::count("gp.dist_components_build");
  const std::size_t ndim = dim();
  const Matrix& ys = y();
  components_.assign(ndim, Matrix(rows(), cols()));
  if (symmetric_) {
    for (std::size_t i = 0; i < rows(); ++i) {
      const auto xi = x_.row(i);
      for (std::size_t j = 0; j < i; ++j) {
        const auto xj = x_.row(j);
        for (std::size_t d = 0; d < ndim; ++d) {
          const double diff = xi[d] - xj[d];
          const double v = diff * diff;
          components_[d](i, j) = v;
          components_[d](j, i) = v;
        }
      }
    }
  } else {
    for (std::size_t i = 0; i < rows(); ++i) {
      const auto xi = x_.row(i);
      for (std::size_t j = 0; j < cols(); ++j) {
        const auto yj = ys.row(j);
        for (std::size_t d = 0; d < ndim; ++d) {
          const double diff = xi[d] - yj[d];
          components_[d](i, j) = diff * diff;
        }
      }
    }
  }
}

void PairwiseDistances::reserve(std::size_t max_rows) {
  x_.reserve(max_rows, x_.cols());
  sq_.reserve(max_rows, symmetric_ ? max_rows : sq_.cols());
  for (Matrix& c : components_) {
    c.reserve(max_rows, symmetric_ ? max_rows : c.cols());
  }
}

void PairwiseDistances::append_x_row(std::span<const double> row) {
  if (row.size() != dim()) {
    throw std::invalid_argument("PairwiseDistances::append_x_row: dim mismatch");
  }
  core::trace::count("gp.dist_cache_extend");
  // All buffers grow in place (pure data movement, allocation-free within
  // reserve()d capacity); the new entries are computed against the
  // pre-append x_, exactly as the old copy-into-grown-matrix recipe did.
  const std::size_t n = x_.rows();
  if (symmetric_) {
    sq_.grow(n + 1, n + 1);
    const auto last = sq_.row(n);
    for (std::size_t j = 0; j < n; ++j) {
      // New point first: the same orientation gram() uses for row i > j.
      const double r2 = linalg::squared_distance(row, x_.row(j));
      last[j] = r2;
      sq_(j, n) = r2;
    }
    last[n] = 0.0;
    for (std::size_t d = 0; d < components_.size(); ++d) {
      Matrix& comp = components_[d];
      comp.grow(n + 1, n + 1);
      const auto clast = comp.row(n);
      for (std::size_t j = 0; j < n; ++j) {
        const double diff = row[d] - x_(j, d);
        const double v = diff * diff;
        clast[j] = v;
        comp(j, n) = v;
      }
      clast[n] = 0.0;
    }
  } else {
    sq_.grow(n + 1, sq_.cols());
    const auto last = sq_.row(n);
    for (std::size_t j = 0; j < y_.rows(); ++j) {
      last[j] = linalg::squared_distance(row, y_.row(j));
    }
    for (std::size_t d = 0; d < components_.size(); ++d) {
      Matrix& comp = components_[d];
      comp.grow(n + 1, comp.cols());
      const auto clast = comp.row(n);
      for (std::size_t j = 0; j < y_.rows(); ++j) {
        const double diff = row[d] - y_(j, d);
        clast[j] = diff * diff;
      }
    }
  }
  x_.push_row(row);
}

}  // namespace alamr::gp
