#pragma once

// Textbook reference for the differential kernel tests: the composite
//
//   k(x, x') = c * f(q) + s * [x == x'],   q = sum_d (x_d - x'_d)^2 / l_d^2
//
// evaluated entry by entry from feature rows with plain O(d) loops — no
// distance cache, no SIMD dispatch, nothing shared with src/gp. The
// profiles are the textbook ones (Rasmussen & Williams, Eqs. 4.9, 4.17):
//
//   RBF / ARD    f = exp(-q / 2)
//   Matérn 3/2   f = (1 + t) exp(-t),           t = sqrt(3 q)
//   Matérn 5/2   f = (1 + t + t^2 / 3) exp(-t), t = sqrt(5 q)
//
// Gradients with respect to the log-hyperparameters are NOT derived by
// hand: they come from complex-step differentiation of the same formulas,
// dK/dtheta_j = Im K(theta + i h e_j) / h, exact to rounding for these
// analytic functions, so an algebra slip in the production derivatives
// cannot be mirrored here.

#include <cmath>
#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "alamr/linalg/matrix.hpp"

namespace alamr::test_reference {

enum class Profile { kRbf, kRbfArd, kMatern32, kMatern52 };

/// Log-hyperparameters in sklearn order: [log c, log l..., log s]; one
/// length scale (isotropic) or one per dimension (ARD).
struct ReferenceKernel {
  Profile profile;
  std::vector<double> theta;

  std::size_t num_lengths() const { return theta.size() - 2; }

  template <class T>
  static T unit(Profile p, T q) {
    switch (p) {
      case Profile::kRbf:
      case Profile::kRbfArd:
        return std::exp(-q / 2.0);
      case Profile::kMatern32: {
        const T t = std::sqrt(3.0 * q);
        return (1.0 + t) * std::exp(-t);
      }
      case Profile::kMatern52: {
        const T t = std::sqrt(5.0 * q);
        return (1.0 + t + t * t / 3.0) * std::exp(-t);
      }
    }
    return T(0.0);
  }

  /// k(a, b) at log-parameters th; `same` adds the noise term.
  template <class T>
  T entry(const std::vector<T>& th, std::span<const double> a,
          std::span<const double> b, bool same) const {
    const T c = std::exp(th.front());
    const T s = std::exp(th.back());
    T q(0.0);
    for (std::size_t d = 0; d < a.size(); ++d) {
      const T l = std::exp(th[1 + (num_lengths() == 1 ? 0 : d)]);
      const double diff = a[d] - b[d];
      q += diff * diff / (l * l);
    }
    // Exactly zero distance keeps f = 1 without sqrt(0) in the gradient.
    const T f = same ? T(1.0) : unit(profile, q);
    return c * f + (same ? s : T(0.0));
  }

  linalg::Matrix gram(const linalg::Matrix& x) const {
    linalg::Matrix k(x.rows(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < x.rows(); ++j) {
        k(i, j) = entry(theta, x.row(i), x.row(j), i == j);
      }
    }
    return k;
  }

  linalg::Matrix cross(const linalg::Matrix& x, const linalg::Matrix& y) const {
    linalg::Matrix k(x.rows(), y.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < y.rows(); ++j) {
        k(i, j) = entry(theta, x.row(i), y.row(j), false);
      }
    }
    return k;
  }

  std::vector<double> diagonal(const linalg::Matrix& x) const {
    std::vector<double> out(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      out[i] = entry(theta, x.row(i), x.row(i), true);
    }
    return out;
  }

  /// dK/dtheta_j for every j, by complex step.
  std::vector<linalg::Matrix> gradients(const linalg::Matrix& x) const {
    constexpr double kStep = 1e-20;
    std::vector<linalg::Matrix> out;
    for (std::size_t p = 0; p < theta.size(); ++p) {
      std::vector<std::complex<double>> th(theta.begin(), theta.end());
      th[p] += std::complex<double>(0.0, kStep);
      linalg::Matrix g(x.rows(), x.rows());
      for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t j = 0; j < x.rows(); ++j) {
          g(i, j) = entry(th, x.row(i), x.row(j), i == j).imag() / kStep;
        }
      }
      out.push_back(std::move(g));
    }
    return out;
  }
};

}  // namespace alamr::test_reference
