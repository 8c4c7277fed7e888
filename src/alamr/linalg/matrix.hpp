#pragma once

// Dense row-major matrix and vector helpers.
//
// The GPR core (Eqs. 3, 8) needs only dense symmetric linear algebra at
// n <= a few hundred, so we implement exactly what is needed rather than
// depending on an external BLAS: storage, gemv/gemm/syrk-style kernels,
// and a Cholesky factorization (cholesky.hpp). Kernels are written to
// vectorize with plain -O2/-O3 (contiguous inner loops, no aliasing
// surprises); matmul/aat additionally use small register tiles that keep
// several independent accumulation chains in flight without changing any
// individual chain's floating-point order.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "alamr/linalg/simd.hpp"

// ---- ALAMR_ASSERT ---------------------------------------------------------
//
// Debug-only precondition checks for the hot-path vector kernels (dot,
// axpy, squared_distance and the blocked solves). These run O(n^2)-O(n^3)
// times per GPR fit, so in release builds (NDEBUG) the checks compile to
// nothing and the kernels inline into their callers branch-free. Building
// without NDEBUG, or configuring with -DALAMR_DEBUG_ASSERTS=ON (as the
// sanitizer leg of scripts/check.sh does), restores throwing checks
// (std::invalid_argument, so tests can assert on them).
#if defined(ALAMR_DEBUG_ASSERTS) || !defined(NDEBUG)
#define ALAMR_ASSERTS_ENABLED 1
#define ALAMR_ASSERT(cond, msg) \
  ((cond) ? static_cast<void>(0) : ::alamr::linalg::detail::assert_fail(msg))
#else
#define ALAMR_ASSERTS_ENABLED 0
#define ALAMR_ASSERT(cond, msg) static_cast<void>(0)
#endif

namespace alamr::linalg {

namespace detail {
/// Throws std::invalid_argument(msg). Out of line so the cold failure path
/// never bloats an inlined kernel.
[[noreturn]] void assert_fail(const char* msg);
}  // namespace detail

using Vector = std::vector<double>;

/// Dense row-major matrix of double.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized (or filled with `fill`).
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construct from nested initializer list (for tests and small fixtures).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) noexcept {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const noexcept {
    return data_[i * cols_ + j];
  }

  /// Contiguous view of row i.
  std::span<double> row(std::size_t i) noexcept {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const noexcept {
    return {data_.data() + i * cols_, cols_};
  }

  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Transposed copy.
  Matrix transposed() const;

  // ---- in-place shape management (DESIGN.md §10) --------------------------
  //
  // The AL inner loop maintains growing training matrices and a shrinking
  // cross-covariance in place: reserve() once up front with the trajectory
  // bound, then push_row/remove_column/grow never touch the heap. All of
  // these are pure data movement — no floating-point arithmetic — so they
  // cannot perturb a single bit of any stored value.

  /// Reserves storage for a rows x cols matrix without changing the shape
  /// or contents.
  void reserve(std::size_t rows, std::size_t cols) {
    data_.reserve(rows * cols);
  }
  /// Element capacity of the underlying storage.
  std::size_t capacity() const noexcept { return data_.capacity(); }

  /// Reshapes to rows x cols; existing element values are NOT preserved
  /// (contents unspecified, like a freshly alloc'd buffer). Never shrinks
  /// capacity; allocates only when rows*cols exceeds capacity().
  void resize_discard(std::size_t rows, std::size_t cols);

  /// Appends one row (row.size() must equal cols(), or define cols() for
  /// an empty matrix). Allocation-free within reserved capacity.
  void push_row(std::span<const double> row);

  /// Removes column `col`, compacting rows forward in place.
  void remove_column(std::size_t col);

  /// Grows in place to new_rows x new_cols (both >= current), preserving
  /// existing entries at their (i, j) positions and zero-filling the new
  /// cells — same result as copying into Matrix(new_rows, new_cols).
  /// Allocation-free within reserved capacity.
  void grow(std::size_t new_rows, std::size_t new_cols);

  /// Shrinks in place to new_rows x new_cols (both <= current), keeping
  /// the leading block. Exact inverse of a grow() that only zero-filled.
  void shrink(std::size_t new_rows, std::size_t new_cols);

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// New matrix holding rows `rows` of `x`, in order.
Matrix gather_rows(const Matrix& x, std::span<const std::size_t> rows);

/// gather_rows() into `out`: same values, no allocation within the
/// capacity `out` already has.
void gather_rows_into(const Matrix& x, std::span<const std::size_t> rows,
                      Matrix& out);

// ---- vector kernels -------------------------------------------------------
//
// Inline: these are the innermost loops of every kernel-matrix build and
// triangular solve. Shape checks are ALAMR_ASSERTs (debug-only) rather
// than throws so the release-mode loops carry no branch.
//
// Dispatch policy (simd.hpp): the REDUCTION kernels (dot,
// squared_distance) route through the runtime-selected kernel table only
// for lengths >= simd::kDispatchMin — shorter calls (feature-dimension
// work, mostly) keep the inlined sequential loop, which is bit-identical
// to the scalar table entry, so the threshold never changes scalar-level
// results. The ELEMENTWISE kernels (axpy, rank1_sub) ALWAYS dispatch,
// with no length threshold: element i's result depends only on the
// dispatch level — never on the call length — which makes them
// chunk-splittable. That property is load-bearing: the blocked solves
// behind the batched posterior split their RHS columns into
// thread-count-dependent stripes, and a length threshold there would make
// trajectory bits depend on the thread count at the vector levels.

/// Inner product. Requires equal lengths.
inline double dot(std::span<const double> x, std::span<const double> y) {
  ALAMR_ASSERT(x.size() == y.size(), "dot: length mismatch");
  if (x.size() >= simd::kDispatchMin) {
    return simd::dot(x.data(), y.data(), x.size());
  }
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) total += x[i] * y[i];
  return total;
}

/// Euclidean norm.
double norm2(std::span<const double> x);

/// y += alpha * x.
inline void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  ALAMR_ASSERT(x.size() == y.size(), "axpy: length mismatch");
  simd::axpy(alpha, x.data(), y.data(), x.size());
}

/// y -= alpha * x (the rank-1 update inside triangular solves and the
/// Cholesky trailing update).
inline void rank1_sub(double alpha, std::span<const double> x,
                      std::span<double> y) {
  ALAMR_ASSERT(x.size() == y.size(), "rank1_sub: length mismatch");
  simd::rank1_sub(alpha, x.data(), y.data(), x.size());
}

/// Squared Euclidean distance between two points (rows of a design matrix).
inline double squared_distance(std::span<const double> x,
                               std::span<const double> y) {
  ALAMR_ASSERT(x.size() == y.size(), "squared_distance: length mismatch");
  if (x.size() >= simd::kDispatchMin) {
    return simd::squared_distance(x.data(), y.data(), x.size());
  }
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    total += d * d;
  }
  return total;
}

// ---- matrix kernels -------------------------------------------------------

/// y = A x (dimensions checked).
Vector matvec(const Matrix& a, std::span<const double> x);

/// y = A^T x.
Vector matvec_transposed(const Matrix& a, std::span<const double> x);

/// C = A B. Register-tiled i-k-j kernel: contiguous inner loops over B and
/// C rows, several C rows in flight. Each C entry accumulates its k
/// contributions strictly in ascending order (IEEE semantics: zeros, NaNs
/// and infinities in either operand propagate per element — there is no
/// sparsity short-circuit).
Matrix matmul(const Matrix& a, const Matrix& b);

/// Symmetric product A A^T (used for building SPD test fixtures and the
/// rank-k updates inside the LML gradient). Register-tiled over 2x2 output
/// blocks; every entry remains an ascending-k dot of two rows.
Matrix aat(const Matrix& a);

/// Frobenius-inner-product trace(A^T B); A, B same shape.
double frobenius_inner(const Matrix& a, const Matrix& b);

/// Maximum absolute entry difference (test helper).
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace alamr::linalg
