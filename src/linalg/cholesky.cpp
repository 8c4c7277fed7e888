#include "alamr/linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

// Header-only instrumentation and fault injection (standard library only),
// so linking stays within this module — see the layering notes in
// core/trace.hpp and core/faults.hpp.
#include "alamr/core/faults.hpp"
#include "alamr/core/resilience.hpp"
#include "alamr/core/trace.hpp"

namespace alamr::linalg {

namespace {

// Register-tiled panel accumulation for the blocked inverse: TW consecutive
// panel columns of row `zi_q` accumulate their k-chain in a fixed-size local
// array (which the compiler keeps in vector registers) instead of
// round-tripping through memory on every k. Each scalar still performs the
// subtractions in exactly the given k order, so results are bit-identical
// to the in-place form.
template <std::size_t TW>
void accumulate_ascending(double* zi_q, const double* l_row, const Matrix& z,
                          std::size_t q, std::size_t k_begin,
                          std::size_t k_end) {
  double acc[TW];
  for (std::size_t t = 0; t < TW; ++t) acc[t] = zi_q[t];
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double lk = l_row[k];
    const double* zk = z.row(k).data() + q;
    for (std::size_t t = 0; t < TW; ++t) acc[t] -= lk * zk[t];
  }
  for (std::size_t t = 0; t < TW; ++t) zi_q[t] = acc[t];
}

template <std::size_t TW>
void accumulate_descending(double* zi_q, const double* u_row, const Matrix& z,
                           std::size_t q, std::size_t k_begin,
                           std::size_t k_end) {
  double acc[TW];
  for (std::size_t t = 0; t < TW; ++t) acc[t] = zi_q[t];
  for (std::size_t k = k_end; k-- > k_begin;) {
    const double uk = u_row[k];
    const double* zk = z.row(k).data() + q;
    for (std::size_t t = 0; t < TW; ++t) acc[t] -= uk * zk[t];
  }
  for (std::size_t t = 0; t < TW; ++t) zi_q[t] = acc[t];
}

}  // namespace

std::optional<CholeskyFactor> CholeskyFactor::factor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky: matrix must be square");
  }
  const std::size_t n = a.rows();
  // Work in place on a copy of the lower triangle: trailing updates from
  // finished panels land directly in l, so the panel factorization only has
  // to subtract contributions from its own block. Each entry (i, j) is
  // touched by earlier panels in ascending block order and within each
  // panel in ascending k, which is exactly the ascending k < j order of the
  // unblocked left-looking algorithm — intermediate values round-trip
  // through memory but doubles survive that bit-exactly.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = a.row(i);
    const auto dst = l.row(i);
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(i + 1),
              dst.begin());
  }
  for (std::size_t jb = 0; jb < n; jb += kCholeskyBlock) {
    const std::size_t je = std::min(jb + kCholeskyBlock, n);
    // Panel: factor columns [jb, je) using only within-block prefixes
    // (k in [jb, j)); contributions with k < jb were already applied by
    // the trailing updates of earlier blocks.
    for (std::size_t j = jb; j < je; ++j) {
      double diag = l(j, j);
      {
        const auto lj = l.row(j);
        for (std::size_t k = jb; k < j; ++k) diag -= lj[k] * lj[k];
      }
      if (!(diag > 0.0) || !std::isfinite(diag)) return std::nullopt;
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      const double inv = 1.0 / ljj;
      const auto lj = l.row(j);
      for (std::size_t i = j + 1; i < n; ++i) {
        const auto li = l.row(i);
        double v = li[j];
        for (std::size_t k = jb; k < j; ++k) v -= li[k] * lj[k];
        l(i, j) = v * inv;
      }
    }
    // Trailing update: subtract the panel's rank-(je - jb) contribution
    // from the remaining lower triangle. Eight output columns per pass
    // share each load of row i; every chain subtracts k ascending, so each
    // entry sees exactly the reference algorithm's operation order.
    for (std::size_t i = je; i < n; ++i) {
      const auto li = l.row(i);
      const std::size_t limit = std::min(i + 1, n);
      std::size_t j = je;
      for (; j + 8 <= limit; j += 8) {
        const double* lj0 = l.row(j).data();
        const double* lj1 = l.row(j + 1).data();
        const double* lj2 = l.row(j + 2).data();
        const double* lj3 = l.row(j + 3).data();
        const double* lj4 = l.row(j + 4).data();
        const double* lj5 = l.row(j + 5).data();
        const double* lj6 = l.row(j + 6).data();
        const double* lj7 = l.row(j + 7).data();
        double v0 = li[j];
        double v1 = li[j + 1];
        double v2 = li[j + 2];
        double v3 = li[j + 3];
        double v4 = li[j + 4];
        double v5 = li[j + 5];
        double v6 = li[j + 6];
        double v7 = li[j + 7];
        for (std::size_t k = jb; k < je; ++k) {
          const double lik = li[k];
          v0 -= lik * lj0[k];
          v1 -= lik * lj1[k];
          v2 -= lik * lj2[k];
          v3 -= lik * lj3[k];
          v4 -= lik * lj4[k];
          v5 -= lik * lj5[k];
          v6 -= lik * lj6[k];
          v7 -= lik * lj7[k];
        }
        l(i, j) = v0;
        l(i, j + 1) = v1;
        l(i, j + 2) = v2;
        l(i, j + 3) = v3;
        l(i, j + 4) = v4;
        l(i, j + 5) = v5;
        l(i, j + 6) = v6;
        l(i, j + 7) = v7;
      }
      for (; j + 4 <= limit; j += 4) {
        const auto lj0 = l.row(j);
        const auto lj1 = l.row(j + 1);
        const auto lj2 = l.row(j + 2);
        const auto lj3 = l.row(j + 3);
        double v0 = li[j];
        double v1 = li[j + 1];
        double v2 = li[j + 2];
        double v3 = li[j + 3];
        for (std::size_t k = jb; k < je; ++k) {
          const double lik = li[k];
          v0 -= lik * lj0[k];
          v1 -= lik * lj1[k];
          v2 -= lik * lj2[k];
          v3 -= lik * lj3[k];
        }
        l(i, j) = v0;
        l(i, j + 1) = v1;
        l(i, j + 2) = v2;
        l(i, j + 3) = v3;
      }
      for (; j < limit; ++j) {
        const auto lj = l.row(j);
        double v = li[j];
        for (std::size_t k = jb; k < je; ++k) v -= li[k] * lj[k];
        l(i, j) = v;
      }
    }
  }
  return CholeskyFactor(std::move(l));
}

bool CholeskyFactor::extend(std::span<const double> row, double diag) {
  const std::size_t n = size();
  if (row.size() != n) throw std::invalid_argument("extend: length mismatch");
  core::trace::count("cholesky.extend");
  // New bottom row of L. This repeats, operation for operation, what
  // factor() computes for row n of the bordered matrix: the same dot
  // products over row prefixes and the same `v * (1.0 / l_jj)` scaling, so
  // extending is bit-identical to refactoring from scratch (the first n
  // rows of a factorization depend only on the leading n x n block).
  //
  // The factor grows in place (allocation-free within reserve()d
  // capacity) and the new row is computed directly in its final storage;
  // grow/shrink are pure data movement, so the surviving entries — and
  // the rejected-extension rollback — are bit-identical to the old
  // copy-into-fresh-matrix recipe.
  l_.grow(n + 1, n + 1);
  const auto z = l_.row(n);
  for (std::size_t j = 0; j < n; ++j) {
    double v = row[j];
    const auto lj = l_.row(j);
    for (std::size_t k = 0; k < j; ++k) v -= z[k] * lj[k];
    z[j] = v * (1.0 / lj[j]);
  }
  double d = diag;
  for (std::size_t k = 0; k < n; ++k) d -= z[k] * z[k];
  if (!(d > 0.0) || !std::isfinite(d)) {
    l_.shrink(n, n);
    core::trace::count("cholesky.extend_rejected");
    return false;
  }
  z[n] = std::sqrt(d);
  return true;
}

Vector CholeskyFactor::solve_lower(std::span<const double> b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("solve_lower: length mismatch");
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    const auto li = l_.row(i);
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * z[k];
    z[i] = v / li[i];
  }
  return z;
}

Vector CholeskyFactor::solve_upper(std::span<const double> b) const {
  const std::size_t n = size();
  if (b.size() != n) throw std::invalid_argument("solve_upper: length mismatch");
  // Saxpy (outer-product) form: once z[k] is final, eliminate its
  // contribution from all remaining rows by walking l_.row(k) — contiguous
  // in row-major storage, unlike the column stride l_(k, ii) of the
  // dot-product form.
  Vector z(b.begin(), b.end());
  for (std::size_t k = n; k-- > 0;) {
    const auto lk = l_.row(k);
    const double zk = z[k] / lk[k];
    z[k] = zk;
    for (std::size_t j = 0; j < k; ++j) z[j] -= lk[j] * zk;
  }
  return z;
}

Vector CholeskyFactor::solve(std::span<const double> b) const {
  return solve_upper(solve_lower(b));
}

void CholeskyFactor::solve_in_place(std::span<double> b) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("solve_in_place: length mismatch");
  }
  // Forward: identical chain to solve_lower() — b[i] is read before it is
  // overwritten and positions k < i already hold the finalized prefix.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    const auto li = l_.row(i);
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * b[k];
    b[i] = v / li[i];
  }
  // Backward: solve_upper() already works in place on its copy.
  for (std::size_t k = n; k-- > 0;) {
    const auto lk = l_.row(k);
    const double zk = b[k] / lk[k];
    b[k] = zk;
    for (std::size_t j = 0; j < k; ++j) b[j] -= lk[j] * zk;
  }
}

Matrix CholeskyFactor::solve_lower_block(const Matrix& b,
                                         std::size_t col_begin,
                                         std::size_t col_end) const {
  const std::size_t n = size();
  if (b.rows() != n || col_begin > col_end || col_end > b.cols()) {
    throw std::invalid_argument("solve_lower_block: shape mismatch");
  }
  const std::size_t nc = col_end - col_begin;
  Matrix z(n, nc);
  solve_lower_block_to(b, col_begin, col_end, z.data().data(), nc);
  return z;
}

void CholeskyFactor::solve_lower_block_to(const Matrix& b,
                                          std::size_t col_begin,
                                          std::size_t col_end, double* z,
                                          std::size_t ld) const {
  solve_lower_block_resume(b, col_begin, col_end, z, ld, 0);
}

void CholeskyFactor::solve_lower_block_resume(const Matrix& b,
                                              std::size_t col_begin,
                                              std::size_t col_end, double* z,
                                              std::size_t ld,
                                              std::size_t row_begin) const {
  const std::size_t n = size();
  const std::size_t nc = col_end - col_begin;
  if (b.rows() != n || col_begin > col_end || col_end > b.cols() || ld < nc ||
      row_begin > n) {
    throw std::invalid_argument("solve_lower_block_to: shape mismatch");
  }
  for (std::size_t i = row_begin; i < n; ++i) {
    const auto li = l_.row(i);
    double* zi = z + i * ld;
    const auto bi = b.row(i);
    std::copy(bi.begin() + static_cast<std::ptrdiff_t>(col_begin),
              bi.begin() + static_cast<std::ptrdiff_t>(col_end), zi);
    // Eliminate finished rows k < i across all right-hand sides at once:
    // the inner loop is contiguous over the solution row. Per scalar this
    // is the same ascending-k chain solve_lower() runs on one column.
    for (std::size_t k = 0; k < i; ++k) {
      const double lik = li[k];
      const double* zk = z + k * ld;
      rank1_sub(lik, {zk, nc}, {zi, nc});
    }
    const double lii = li[i];
    for (std::size_t q = 0; q < nc; ++q) zi[q] /= lii;
  }
}

Matrix CholeskyFactor::solve_matrix(const Matrix& b) const {
  if (b.rows() != size()) throw std::invalid_argument("solve_matrix: shape mismatch");
  const std::size_t n = size();
  const std::size_t nc = b.cols();
  // Forward substitution for every column at once...
  Matrix z = solve_lower_block(b, 0, nc);
  // ...then the saxpy-form backward substitution, also row-contiguous.
  // Each scalar sees exactly solve_upper()'s operations for its column.
  for (std::size_t k = n; k-- > 0;) {
    const auto lk = l_.row(k);
    const auto zk = z.row(k);
    const double lkk = lk[k];
    for (std::size_t q = 0; q < nc; ++q) zk[q] /= lkk;
    for (std::size_t j = 0; j < k; ++j) {
      const double lkj = lk[j];
      const auto zj = z.row(j);
      for (std::size_t q = 0; q < nc; ++q) zj[q] -= lkj * zk[q];
    }
  }
  return z;
}

Matrix CholeskyFactor::inverse() const {
  // Column j of A^{-1} solves A x = e_j; by symmetry only entries at or
  // below the diagonal are needed. Columns are processed in panels of
  // kCholeskyBlock so both triangular solves stream the factor once per
  // panel with contiguous inner loops over the panel. The zero prefix of
  // each identity column is preserved exactly: column j = jb + q only
  // participates in an update at position k when j <= k, i.e. q <= k - jb,
  // which is a contiguous column prefix — entries with j > k are never
  // read or written, exactly as in inverse_reference(). Per scalar, each
  // chain subtracts the same terms in the same order as the reference.
  const std::size_t n = size();
  Matrix inv(n, n);
  // U(i, k) = L(k, i): the backward pass walks column i of L for k
  // descending, which in the transposed copy is a contiguous row. One
  // O(n^2) copy buys contiguous O(n^3) access.
  const Matrix u = l_.transposed();
  for (std::size_t jb = 0; jb < n; jb += kCholeskyBlock) {
    const std::size_t je = std::min(jb + kCholeskyBlock, n);
    const std::size_t nc = je - jb;
    // Scratch panel: rows [jb, n) of the nc solution columns. Zero-filled;
    // entries above a column's diagonal are never touched.
    Matrix z(n, nc);
    for (std::size_t q = 0; q < nc; ++q) z(jb + q, q) = 1.0;
    // Forward: L z = E over rows i >= jb. Column q joins once k >= its
    // diagonal row jb + q, so within the panel ("ramp") only the column
    // prefix q <= k - jb is live; from k = je - 1 on, every column is.
    //
    // Panel rows first: ramp + divide (all chains end inside the panel).
    for (std::size_t i = jb; i < je; ++i) {
      const auto li = l_.row(i);
      const auto zi = z.row(i);
      for (std::size_t k = jb; k < i; ++k) {
        const double lik = li[k];
        const auto zk = z.row(k);
        const std::size_t qn = k - jb + 1;
        for (std::size_t q = 0; q < qn; ++q) zi[q] -= lik * zk[q];
      }
      const double lii = li[i];
      const std::size_t qn = i - jb + 1;
      for (std::size_t q = 0; q < qn; ++q) zi[q] /= lii;
    }
    // Below-panel rows: apply the ramp contributions (k inside the panel,
    // partial column prefixes) up front. These are the earliest k of every
    // chain, so they must land before any bulk chunk.
    for (std::size_t i = je; i < n; ++i) {
      const auto li = l_.row(i);
      const auto zi = z.row(i);
      for (std::size_t k = jb; k + 1 < je; ++k) {
        const double lik = li[k];
        const auto zk = z.row(k);
        const std::size_t qn = k - jb + 1;
        for (std::size_t q = 0; q < qn; ++q) zi[q] -= lik * zk[q];
      }
    }
    // Bulk (full-width sources k in [je - 1, n)), chunked so a ~kc x nc
    // slice of z stays cache-resident while every remaining row consumes
    // it. Chunks are applied in ascending order and each register-tiled
    // chain subtracts ascending k inside its chunk, so per scalar the
    // overall chain is still the reference's ascending-k order.
    constexpr std::size_t kc = 64;
    const std::size_t bulk_begin = je - 1;
    for (std::size_t kb = bulk_begin; kb < n; kb += kc) {
      const std::size_t ke = std::min(kb + kc, n);
      // Rows finalized by this chunk: their chains end at k = i - 1 < ke.
      for (std::size_t i = kb + 1; i <= ke && i < n; ++i) {
        const auto li = l_.row(i);
        const auto zi = z.row(i);
        std::size_t q = 0;
        for (; q + 8 <= nc; q += 8) {
          accumulate_ascending<8>(zi.data() + q, li.data(), z, q, kb, i);
        }
        for (; q + 4 <= nc; q += 4) {
          accumulate_ascending<4>(zi.data() + q, li.data(), z, q, kb, i);
        }
        for (; q < nc; ++q) {
          accumulate_ascending<1>(zi.data() + q, li.data(), z, q, kb, i);
        }
        const double lii = li[i];
        for (std::size_t s = 0; s < nc; ++s) zi[s] /= lii;
      }
      // Interior rows: consume the whole chunk, finalized later.
      for (std::size_t i = ke + 1; i < n; ++i) {
        const auto li = l_.row(i);
        const auto zi = z.row(i);
        std::size_t q = 0;
        for (; q + 8 <= nc; q += 8) {
          accumulate_ascending<8>(zi.data() + q, li.data(), z, q, kb, ke);
        }
        for (; q + 4 <= nc; q += 4) {
          accumulate_ascending<4>(zi.data() + q, li.data(), z, q, kb, ke);
        }
        for (; q < nc; ++q) {
          accumulate_ascending<1>(zi.data() + q, li.data(), z, q, kb, ke);
        }
      }
    }
    // Backward: L^T x = z in dot form, rows bottom-up. When row i is
    // processed every row k > i is final, so each scalar subtracts exactly
    // the reference saxpy's terms L(k, i) * z_final[k] in the same
    // descending-k order, then divides by the diagonal — the identical
    // chain, accumulated in registers. Chunked like the forward pass, with
    // chunks applied in descending order so the per-scalar chain still
    // walks k strictly downward.
    for (std::size_t ke = n; ke > jb;) {
      const std::size_t kb = (ke > jb + kc) ? ke - kc : jb;
      // Rows finalized by this chunk (descending, so in-chunk sources are
      // final before they are read).
      for (std::size_t i = ke; i-- > kb;) {
        const auto ui = u.row(i);
        const auto zi = z.row(i);
        const std::size_t qn = std::min(i - jb + 1, nc);
        std::size_t q = 0;
        for (; q + 8 <= qn; q += 8) {
          accumulate_descending<8>(zi.data() + q, ui.data(), z, q, i + 1, ke);
        }
        for (; q + 4 <= qn; q += 4) {
          accumulate_descending<4>(zi.data() + q, ui.data(), z, q, i + 1, ke);
        }
        for (; q < qn; ++q) {
          accumulate_descending<1>(zi.data() + q, ui.data(), z, q, i + 1, ke);
        }
        const double uii = ui[i];
        for (std::size_t s = 0; s < qn; ++s) zi[s] /= uii;
      }
      // Interior rows above the chunk: consume the whole chunk.
      for (std::size_t i = jb; i < kb; ++i) {
        const auto ui = u.row(i);
        const auto zi = z.row(i);
        const std::size_t qn = std::min(i - jb + 1, nc);
        std::size_t q = 0;
        for (; q + 8 <= qn; q += 8) {
          accumulate_descending<8>(zi.data() + q, ui.data(), z, q, kb, ke);
        }
        for (; q + 4 <= qn; q += 4) {
          accumulate_descending<4>(zi.data() + q, ui.data(), z, q, kb, ke);
        }
        for (; q < qn; ++q) {
          accumulate_descending<1>(zi.data() + q, ui.data(), z, q, kb, ke);
        }
      }
      ke = kb;
    }
    for (std::size_t q = 0; q < nc; ++q) {
      const std::size_t j = jb + q;
      inv(j, j) = z(j, q);
      for (std::size_t i = j + 1; i < n; ++i) {
        inv(i, j) = z(i, q);
        inv(j, i) = z(i, q);
      }
    }
  }
  return inv;
}

double CholeskyFactor::log_det() const {
  double total = 0.0;
  for (std::size_t i = 0; i < size(); ++i) total += std::log(l_(i, i));
  return 2.0 * total;
}

JitteredCholesky cholesky_with_jitter(const Matrix& a, double initial_jitter,
                                      double max_jitter) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("cholesky_with_jitter: matrix must be square");
  }
  // Fault site "cholesky.non_psd": an armed plan can veto any attempt,
  // driving the ladder (and its exhaustion path) without crafting an
  // actually-indefinite matrix. Disarmed, attempt() is factor() plus two
  // pointer loads — no FP effect.
  const auto attempt = [](const Matrix& m) -> std::optional<CholeskyFactor> {
    if (core::faults::fire(core::faults::Site::kCholeskyNonPsd)) {
      core::trace::count("cholesky.fault_injected");
      core::resilience::note(core::resilience::Event::kCholeskyNonPsd);
      return std::nullopt;
    }
    return CholeskyFactor::factor(m);
  };
  if (auto clean = attempt(a)) {
    return JitteredCholesky{std::move(*clean), 0.0};
  }
  const std::size_t n = a.rows();
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_diag += a(i, i);
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 1.0;
  const double scale = mean_diag > 0.0 ? mean_diag : 1.0;

  // Single working copy across all retries: factor() never mutates its
  // input, so only the diagonal needs resetting. Restoring from the saved
  // pristine diagonal (rather than deducting the previous jitter) keeps
  // each attempt exactly a(i, i) + jitter with no accumulated rounding.
  Matrix work = a;
  Vector pristine_diag(n);
  for (std::size_t i = 0; i < n; ++i) pristine_diag[i] = a(i, i);
  double largest_attempted = -1.0;
  for (double rel = initial_jitter; rel <= max_jitter; rel *= 10.0) {
    core::trace::count("cholesky.jitter_retries");
    largest_attempted = rel;
    const double jitter = rel * scale;
    for (std::size_t i = 0; i < n; ++i) work(i, i) = pristine_diag[i] + jitter;
    if (auto factored = attempt(work)) {
      return JitteredCholesky{std::move(*factored), jitter};
    }
  }
  // The *10 ladder accumulates rounding: from 1e-12 it tops out at
  // 9.9999999999999978e-05, one ulp-cluster short of a 1e-4 max_jitter,
  // and the next step overshoots — so the promised max rung was never
  // tried. Always attempt exactly max_jitter before declaring defeat.
  // (Only previously-throwing executions reach this, so succeeding runs
  // keep their exact byte-for-byte behavior.)
  if (largest_attempted < max_jitter) {
    core::trace::count("cholesky.jitter_retries");
    const double jitter = max_jitter * scale;
    for (std::size_t i = 0; i < n; ++i) work(i, i) = pristine_diag[i] + jitter;
    if (auto factored = attempt(work)) {
      return JitteredCholesky{std::move(*factored), jitter};
    }
  }
  throw std::runtime_error(
      "cholesky_with_jitter: matrix not positive definite even at max jitter");
}

}  // namespace alamr::linalg
