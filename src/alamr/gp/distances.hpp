#pragma once

// Hyperparameter-independent pairwise-distance caches for kernel matrices.
//
// Every RBF/Matern gram or cross-covariance entry is a scalar function
// of the squared Euclidean distance between two points, and the distances
// do not depend on the hyperparameters the LML optimizer moves. A
// PairwiseDistances object therefore factors the O(n^2 d) feature passes
// out of the refit loop: it is built once per training set (and appended
// to in O(n d) when active learning acquires a point), after which every
// L-BFGS objective evaluation reduces to an elementwise transform of the
// cached buffer via Kernel::gram_cached / gram_with_gradients_cached.
//
// ARD kernels need the per-dimension squared differences, not just their
// sum; those are materialized on demand by ensure_components(), which
// Kernel::prepare_distances() calls eagerly BEFORE optimization starts so
// the cache is strictly read-only while multistart workers share it.

#include <span>
#include <vector>

#include "alamr/linalg/matrix.hpp"

namespace alamr::gp {

using linalg::Matrix;

/// Immutable dataset-wide distance base: a copy of the (scaled) feature
/// matrix plus the full N x N squared-distance matrix over it, built ONCE
/// per dataset and then shared read-only — e.g. across every trajectory
/// of a batch run (core::SharedBatchContext). Row-subset caches gather
/// from it in O(k^2) copies instead of O(k^2 d) squared_distance FLOPs,
/// and because linalg::squared_distance(a, b) is bit-equal to (b, a)
/// (negation is exact, squares identical), a gathered cache is bitwise
/// identical to one built from scratch on the subset — whatever order the
/// subset lists the rows in.
///
/// After construction the object is strictly read-only, so concurrent
/// trajectories may gather from one instance without synchronization.
class DistanceBase {
 public:
  /// Builds the base over all rows of x (counter: gp.dist_base_build).
  explicit DistanceBase(const Matrix& x);

  /// Number of points.
  std::size_t size() const noexcept { return x_.rows(); }
  std::size_t dim() const noexcept { return x_.cols(); }

  const Matrix& x() const noexcept { return x_; }
  std::span<const double> point(std::size_t i) const noexcept {
    return x_.row(i);
  }

  /// |x_i - x_j|^2, exactly as linalg::squared_distance computes it.
  double squared(std::size_t i, std::size_t j) const noexcept {
    return sq_(i, j);
  }

 private:
  Matrix x_;
  Matrix sq_;
};

/// Cache of squared pairwise distances between two point sets (train x
/// train when symmetric, train x query otherwise). Entries are computed
/// with exactly linalg::squared_distance, in the same (i, j) orientation
/// the kernels use, so cached kernel evaluations are bit-identical to the
/// ones from feature rows.
class PairwiseDistances {
 public:
  /// Symmetric train x train cache (diagonal is exactly 0, lower triangle
  /// computed, upper mirrored — matching the kernel's gram loops).
  static PairwiseDistances train(const Matrix& x);

  /// Rectangular x-by-y cache (row i = point i of x, column j = point j
  /// of y — matching the kernel's cross loops).
  static PairwiseDistances cross(const Matrix& x, const Matrix& y);

  /// Symmetric cache over the subset base.x()[rows], gathered from the
  /// precomputed base in O(k^2) copies (counter: gp.dist_cache_gather).
  /// Bitwise identical to train() on the gathered point matrix.
  static PairwiseDistances train_from_base(const DistanceBase& base,
                                           std::span<const std::size_t> rows);

  /// Rectangular base.x()[rows_x] by base.x()[rows_y] cache, gathered from
  /// the precomputed base (counter: gp.dist_cache_gather). Bitwise
  /// identical to cross() on the gathered point matrices.
  static PairwiseDistances cross_from_base(const DistanceBase& base,
                                           std::span<const std::size_t> rows_x,
                                           std::span<const std::size_t> rows_y);

  bool symmetric() const noexcept { return symmetric_; }
  std::size_t rows() const noexcept { return sq_.rows(); }
  std::size_t cols() const noexcept { return sq_.cols(); }
  std::size_t dim() const noexcept { return x_.cols(); }

  /// The point sets the cache was built from (y() aliases x() when
  /// symmetric); ensure_components() and append_x_row() read them.
  const Matrix& x() const noexcept { return x_; }
  const Matrix& y() const noexcept { return symmetric_ ? x_ : y_; }

  /// Squared distances; (i, j) = |x_i - y_j|^2.
  const Matrix& squared() const noexcept { return sq_; }

  /// Builds the per-dimension squared-difference matrices
  /// component(d)(i, j) = (x_i[d] - y_j[d])^2 if not already built. Must
  /// be called before any parallel phase that reads component() (see
  /// Kernel::prepare_distances) — it is NOT thread-safe against readers.
  void ensure_components();
  bool has_components() const noexcept { return !components_.empty(); }
  const Matrix& component(std::size_t d) const { return components_[d]; }

  /// Appends one point to the x side in O(rows * dim): the symmetric cache
  /// grows by a row and a column, the rectangular cache by one row. New
  /// entries use the same squared_distance orientation as construction
  /// (new point first), so the grown cache equals a from-scratch rebuild.
  /// Grows every buffer in place — allocation-free within reserve()d
  /// capacity (DESIGN.md §10).
  void append_x_row(std::span<const double> row);

  /// Reserves storage so append_x_row() stays allocation-free until the x
  /// side exceeds max_rows points.
  void reserve(std::size_t max_rows);

 private:
  PairwiseDistances() = default;

  bool symmetric_ = true;
  Matrix x_;
  Matrix y_;  // empty when symmetric_
  Matrix sq_;
  std::vector<Matrix> components_;
};

}  // namespace alamr::gp
