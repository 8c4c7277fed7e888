#pragma once

// Textbook Cholesky baselines for the linalg tests and micro benches: the
// unblocked left-looking factorization and the column-at-a-time inverse.
// CholeskyFactor::factor() and inverse() perform, per scalar, exactly
// these operations in the same order, so the tests compare them bit for
// bit and the benches time the blocked paths against them.

#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>

#include "alamr/linalg/cholesky.hpp"

namespace alamr::test_reference {

/// Unblocked left-looking factorization of SPD `a`; std::nullopt on a
/// non-positive (or non-finite) pivot, like CholeskyFactor::factor().
inline std::optional<linalg::CholeskyFactor> factor_reference(
    const linalg::Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  linalg::Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    const double inv = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      // Contiguous dot over row prefixes (row-major storage).
      const auto li = l.row(i);
      const auto lj = l.row(j);
      for (std::size_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      l(i, j) = v * inv;
    }
  }
  return linalg::CholeskyFactor::from_lower(std::move(l));
}

/// Column-by-column inverse of the factored matrix: one scratch vector,
/// zero-prefix forward solve, in-place backward solve, mirror.
inline linalg::Matrix inverse_reference(const linalg::CholeskyFactor& factor) {
  const linalg::Matrix& l = factor.lower();
  const std::size_t n = factor.size();
  linalg::Matrix inv(n, n);
  linalg::Vector z(n);
  for (std::size_t j = 0; j < n; ++j) {
    // Forward solve L z = e_j, skipping the known-zero prefix.
    for (std::size_t i = j; i < n; ++i) {
      double v = i == j ? 1.0 : 0.0;
      const auto li = l.row(i);
      for (std::size_t k = j; k < i; ++k) v -= li[k] * z[k];
      z[i] = v / li[i];
    }
    // In-place backward solve L^T x = z, only down to row j (entries above
    // the diagonal of column j come from the mirror).
    for (std::size_t k = n; k-- > j;) {
      const auto lk = l.row(k);
      const double zk = z[k] / lk[k];
      z[k] = zk;
      for (std::size_t i = j; i < k; ++i) z[i] -= lk[i] * zk;
    }
    inv(j, j) = z[j];
    for (std::size_t i = j + 1; i < n; ++i) {
      inv(i, j) = z[i];
      inv(j, i) = z[i];
    }
  }
  return inv;
}

}  // namespace alamr::test_reference
