#include "alamr/linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace alamr::linalg {

namespace detail {

void assert_fail(const char* msg) { throw std::invalid_argument(msg); }

}  // namespace detail

Matrix gather_rows(const Matrix& x, std::span<const std::size_t> rows) {
  Matrix out;
  gather_rows_into(x, rows, out);
  return out;
}

void gather_rows_into(const Matrix& x, std::span<const std::size_t> rows,
                      Matrix& out) {
  out.resize_discard(rows.size(), x.cols());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto src = x.row(rows[r]);
    std::copy(src.begin(), src.end(), out.row(r).begin());
  }
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

void Matrix::resize_discard(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::push_row(std::span<const double> row) {
  if (data_.empty() && rows_ == 0) {
    cols_ = row.size();
  } else if (row.size() != cols_) {
    throw std::invalid_argument("push_row: column-count mismatch");
  }
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Matrix::remove_column(std::size_t col) {
  if (col >= cols_) throw std::invalid_argument("remove_column: out of range");
  const std::size_t nc = cols_ - 1;
  // Forward compaction: each row's surviving elements move to their new
  // packed position. Destinations never overtake sources (new offsets are
  // strictly smaller), so a forward copy is safe.
  double* base = data_.data();
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* src = base + i * cols_;
    double* dst = base + i * nc;
    if (dst != src) std::copy(src, src + col, dst);
    std::copy(src + col + 1, src + cols_, dst + col);
  }
  cols_ = nc;
  data_.resize(rows_ * nc);  // trims, never reallocates
}

void Matrix::grow(std::size_t new_rows, std::size_t new_cols) {
  if (new_rows < rows_ || new_cols < cols_) {
    throw std::invalid_argument("grow: new shape smaller than current");
  }
  const std::size_t oc = cols_;
  data_.resize(new_rows * new_cols);  // zero-fills the tail
  if (new_cols != oc && rows_ > 0) {
    // Relayout descending so each row's destination only overwrites rows
    // that were already moved; copy_backward handles the self-overlap of
    // a single row. Gap cells between old and new column counts are
    // zero-filled explicitly (the vector only zeroed the resize tail).
    double* base = data_.data();
    for (std::size_t i = rows_; i-- > 0;) {
      const double* src = base + i * oc;
      double* dst = base + i * new_cols;
      if (dst != src) std::copy_backward(src, src + oc, dst + oc);
      std::fill(dst + oc, dst + new_cols, 0.0);
    }
  }
  rows_ = new_rows;
  cols_ = new_cols;
}

void Matrix::shrink(std::size_t new_rows, std::size_t new_cols) {
  if (new_rows > rows_ || new_cols > cols_) {
    throw std::invalid_argument("shrink: new shape larger than current");
  }
  const std::size_t oc = cols_;
  if (new_cols != oc) {
    // Ascending forward compaction (destinations trail sources).
    double* base = data_.data();
    for (std::size_t i = 0; i < new_rows; ++i) {
      const double* src = base + i * oc;
      double* dst = base + i * new_cols;
      if (dst != src) std::copy(src, src + new_cols, dst);
    }
  }
  rows_ = new_rows;
  cols_ = new_cols;
  data_.resize(new_rows * new_cols);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix eye(n, n);
  for (std::size_t i = 0; i < n; ++i) eye(i, i) = 1.0;
  return eye;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Tiled copy: a straight row sweep writes (or reads) with stride
  // rows_ * 8 bytes, touching a fresh cache line per element. 16x16 tiles
  // (2 KiB working set) keep both the source and destination lines resident
  // while they are reused. Pure data movement — bit-exact by construction.
  constexpr std::size_t kTile = 16;
  for (std::size_t ib = 0; ib < rows_; ib += kTile) {
    const std::size_t ie = std::min(ib + kTile, rows_);
    for (std::size_t jb = 0; jb < cols_; jb += kTile) {
      const std::size_t je = std::min(jb + kTile, cols_);
      for (std::size_t i = ib; i < ie; ++i) {
        for (std::size_t j = jb; j < je; ++j) {
          t(j, i) = (*this)(i, j);
        }
      }
    }
  }
  return t;
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

Vector matvec(const Matrix& a, std::span<const double> x) {
  if (a.cols() != x.size()) throw std::invalid_argument("matvec: shape mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    y[i] = dot(a.row(i), x);
  }
  return y;
}

Vector matvec_transposed(const Matrix& a, std::span<const double> x) {
  if (a.rows() != x.size()) {
    throw std::invalid_argument("matvec_transposed: shape mismatch");
  }
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    axpy(x[i], a.row(i), y);
  }
  return y;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: shape mismatch");
  const std::size_t n = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t m = b.cols();
  Matrix c(n, m);
  // Register-tiled i-k-j: two C rows and two B rows in flight, so every
  // load of b.row(k) feeds two accumulation chains. Each C entry still
  // receives its k contributions one at a time in ascending order — no
  // value-dependent skips (a zero or NaN in A participates per IEEE rules)
  // and no reassociation, so the result is independent of tile shape.
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const auto c0 = c.row(i);
    const auto c1 = c.row(i + 1);
    std::size_t k = 0;
    for (; k + 2 <= kk; k += 2) {
      const double a00 = a(i, k);
      const double a01 = a(i, k + 1);
      const double a10 = a(i + 1, k);
      const double a11 = a(i + 1, k + 1);
      const auto b0 = b.row(k);
      const auto b1 = b.row(k + 1);
      for (std::size_t j = 0; j < m; ++j) {
        double v0 = c0[j];
        v0 += a00 * b0[j];
        v0 += a01 * b1[j];
        c0[j] = v0;
        double v1 = c1[j];
        v1 += a10 * b0[j];
        v1 += a11 * b1[j];
        c1[j] = v1;
      }
    }
    for (; k < kk; ++k) {
      axpy(a(i, k), b.row(k), c0);
      axpy(a(i + 1, k), b.row(k), c1);
    }
  }
  for (; i < n; ++i) {
    const auto ci = c.row(i);
    for (std::size_t k = 0; k < kk; ++k) {
      axpy(a(i, k), b.row(k), ci);
    }
  }
  return c;
}

Matrix aat(const Matrix& a) {
  const std::size_t n = a.rows();
  const std::size_t d = a.cols();
  Matrix c(n, n);
  // Pairs of output columns share the load of a.row(i): two independent
  // ascending-k dot chains per pass, each bit-identical to dot(ai, aj).
  for (std::size_t i = 0; i < n; ++i) {
    const auto ai = a.row(i);
    std::size_t j = 0;
    for (; j + 1 < i + 1; j += 2) {
      const auto aj0 = a.row(j);
      const auto aj1 = a.row(j + 1);
      double s0 = 0.0;
      double s1 = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        s0 += ai[k] * aj0[k];
        s1 += ai[k] * aj1[k];
      }
      c(i, j) = s0;
      c(j, i) = s0;
      c(i, j + 1) = s1;
      c(j + 1, i) = s1;
    }
    for (; j <= i; ++j) {
      const double v = dot(ai, a.row(j));
      c(i, j) = v;
      c(j, i) = v;
    }
  }
  return c;
}

double frobenius_inner(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("frobenius_inner: shape mismatch");
  }
  return dot(a.data(), b.data());
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double worst = 0.0;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    worst = std::max(worst, std::abs(da[i] - db[i]));
  }
  return worst;
}

}  // namespace alamr::linalg
