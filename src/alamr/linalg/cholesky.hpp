#pragma once

// Cholesky factorization for the GPR kernel matrix K_y = K + sigma_n^2 I
// (paper Eq. 3) and the log-determinant term of the LML (Eq. 8).
//
// GPR kernel matrices are SPD in exact arithmetic but can be numerically
// semi-definite when training points nearly coincide (the dataset contains
// repeated configurations on purpose). `cholesky_with_jitter` escalates a
// diagonal jitter until factorization succeeds, mirroring what mature GP
// libraries (GPy, GPflow, scikit-learn) do.

#include <optional>

#include "alamr/linalg/matrix.hpp"

namespace alamr::linalg {

/// Column-block width of the blocked (right-looking) factorization. Exposed
/// so tests can probe the boundaries (n = B-1, B, B+1, ...).
inline constexpr std::size_t kCholeskyBlock = 48;

/// Lower-triangular Cholesky factor L with A = L L^T, plus solve helpers.
class CholeskyFactor {
 public:
  /// Factors SPD matrix `a`. Returns std::nullopt if a non-positive pivot
  /// is encountered (matrix not numerically positive definite).
  ///
  /// Blocked right-looking algorithm: columns are processed in panels of
  /// kCholeskyBlock; after a panel is factored, its contribution is
  /// subtracted from the trailing submatrix with a register-tiled rank-B
  /// update whose inner loops are contiguous row prefixes. Every matrix
  /// entry still receives its k-contributions strictly in ascending order
  /// — first from earlier panels' trailing updates (ascending block by
  /// block), then from its own panel — so the result is bit-identical to
  /// the unblocked left-looking textbook factorization (the tests'
  /// reference, tests/reference_cholesky.hpp).
  static std::optional<CholeskyFactor> factor(const Matrix& a);

  /// Adopts an already computed lower-triangular factor as is (no checks).
  static CholeskyFactor from_lower(Matrix l) {
    return CholeskyFactor(std::move(l));
  }

  std::size_t size() const noexcept { return l_.rows(); }
  const Matrix& lower() const noexcept { return l_; }

  /// Reserves storage so extend() stays allocation-free until the factor
  /// exceeds n x n (DESIGN.md §10: the AL loop reserves the trajectory
  /// bound once up front).
  void reserve(std::size_t n) { l_.reserve(n, n); }

  /// Appends one row/column to the factored matrix in O(n^2): given the new
  /// off-diagonal block `row` (length size()) and the new diagonal entry
  /// `diag`, grows L by one row so that it factors the bordered matrix
  /// [[A, row], [row^T, diag]]. Performs exactly the same floating-point
  /// operations `factor()` would perform for the last column of the bordered
  /// matrix, so the result is bit-identical to a from-scratch factorization.
  /// Returns false — leaving the factor unchanged — when the Schur
  /// complement diag - ||L^{-1} row||^2 is not numerically positive (the
  /// caller should fall back to a full, possibly jittered, refactor).
  bool extend(std::span<const double> row, double diag);

  /// Solves L z = b (forward substitution).
  Vector solve_lower(std::span<const double> b) const;

  /// Solves L^T z = b (backward substitution).
  Vector solve_upper(std::span<const double> b) const;

  /// Solves A x = b via the two triangular solves.
  Vector solve(std::span<const double> b) const;

  /// solve() overwriting `b` with the solution instead of allocating a
  /// result vector. Bit-identical to solve(): the forward pass reads b[i]
  /// before writing it and only consumes already-finalized prefix entries,
  /// and the backward pass is the same in-place saxpy solve_upper() runs
  /// on its copy. Used by the alpha refresh in gp/gpr (arena path).
  void solve_in_place(std::span<double> b) const;

  /// Solves A X = B for all columns of B at once. Row-major blocked
  /// forward + backward substitution: the inner loops sweep contiguous
  /// solution rows (multi-RHS trsm) instead of strided columns, while each
  /// scalar entry sees exactly the operations solve_lower/solve_upper would
  /// perform on its column — bit-identical to the column-by-column path.
  Matrix solve_matrix(const Matrix& b) const;

  /// Multi-RHS forward substitution: solves L Z = B[:, col_begin:col_end)
  /// and returns Z (size() x (col_end - col_begin)). Each column of the
  /// result is bit-identical to solve_lower() of that column of B. Used by
  /// the batched predictive-variance path in gp/gpr.
  Matrix solve_lower_block(const Matrix& b, std::size_t col_begin,
                           std::size_t col_end) const;

  /// solve_lower_block() writing into caller-owned storage: row i of the
  /// solution lands at z + i * ld (ld >= col_end - col_begin). The fused
  /// batched posterior passes an arena span here so the steady-state
  /// variance solve performs no allocation. Bit-identical to
  /// solve_lower_block() — same loops, destination storage aside.
  void solve_lower_block_to(const Matrix& b, std::size_t col_begin,
                            std::size_t col_end, double* z,
                            std::size_t ld) const;

  /// Row-resumable solve_lower_block_to(): computes only solution rows
  /// [row_begin, size()), assuming rows [0, row_begin) of `z` already hold
  /// the solved prefix. This is the capability behind the cross-iteration
  /// candidate panel (DESIGN.md §13): after a one-row extend() at unchanged
  /// hyperparameters, rows 0..n-1 of Z = L^{-1} K* are bitwise unchanged —
  /// forward substitution for row i reads only L rows <= i and B rows <= i
  /// — so only the appended rows need computing, each in O(n) per column.
  /// Row i's chain (copy, ascending-k rank1_sub eliminations, divide by
  /// L_ii) is exactly what solve_lower_block_to() performs for that row,
  /// so resuming is bit-identical to a from-scratch solve.
  /// row_begin == 0 IS solve_lower_block_to().
  void solve_lower_block_resume(const Matrix& b, std::size_t col_begin,
                                std::size_t col_end, double* z, std::size_t ld,
                                std::size_t row_begin) const;

  /// A^{-1} (needed by the analytic LML gradient, which uses
  /// K_y^{-1} - alpha alpha^T). Blocked multi-column solves: each panel of
  /// kCholeskyBlock identity columns goes through one forward + backward
  /// substitution whose inner loops are contiguous over the panel, so the
  /// factor is streamed once per panel instead of once per column. Per
  /// scalar the operations (and therefore the bits) are exactly those of
  /// the column-at-a-time textbook inverse (tests/reference_cholesky.hpp);
  /// only the lower triangle is computed and mirrored.
  Matrix inverse() const;

  /// log|A| = 2 * sum_i log L_ii (the model-complexity term of Eq. 8).
  double log_det() const;

 private:
  explicit CholeskyFactor(Matrix l) : l_(std::move(l)) {}
  Matrix l_;
};

/// Result of jittered factorization: the factor plus the jitter that was
/// actually added to the diagonal (0 when the clean factorization worked).
struct JitteredCholesky {
  CholeskyFactor factor;
  double jitter = 0.0;
};

/// Factors `a`, escalating diagonal jitter from `initial_jitter` by x10 up
/// to `max_jitter` (both relative to the mean diagonal). Throws
/// std::runtime_error if the matrix cannot be factored even at max jitter.
JitteredCholesky cholesky_with_jitter(const Matrix& a,
                                      double initial_jitter = 1e-12,
                                      double max_jitter = 1e-4);

}  // namespace alamr::linalg
