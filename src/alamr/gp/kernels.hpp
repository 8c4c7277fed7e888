#pragma once

// The stationary covariance model of the paper (Eqs. 4-7) and its kernel
// ablation, in the hyperparameter convention of scikit-learn 0.18 (which
// the paper uses):
//
//   k(x, x') = c * f(|x - x'|^2 / l^2) + s * [x == x']
//
// i.e. sklearn's ConstantKernel(c) * Profile(l) + WhiteKernel(s). The paper's
// model (Eq. 7) is the RBF profile; the kernel ablation swaps in RBF with
// one length scale per input dimension (ARD) and the Matérn nu = 3/2 and
// nu = 5/2 profiles (future-work section). Hyperparameters are exposed as
// natural logs in sklearn's order [log c, log l..., log s], together with
// analytic gram-matrix gradients for LML maximization.

#include <span>
#include <string>
#include <vector>

#include "alamr/gp/distances.hpp"
#include "alamr/linalg/matrix.hpp"
#include "alamr/opt/objective.hpp"

namespace alamr::gp {

using linalg::Matrix;

/// One concrete, copyable covariance function. Every GPR owns its kernel by
/// value; its state evolves across AL iterations via warm-started refits.
///
/// Gradients are with respect to the log-hyperparameters (the chain-rule
/// factor is applied internally), the convention the LML optimizer expects.
///
/// Matrices are built from a PairwiseDistances cache (gram and training
/// cross-covariances) or from feature rows (cross()). Both sources carry
/// bit-identical squared distances, and the per-entry arithmetic after the
/// distance lookup is shared, so cross_cached() and cross() agree bit for
/// bit and the off-diagonal of gram_cached() equals cross() of its rows.
class Kernel {
 public:
  /// The unit correlation f. Values are stable (they mirror
  /// core::KernelChoice).
  enum class Profile { kRbf = 0, kRbfArd = 1, kMatern32 = 2, kMatern52 = 3 };

  /// `length_scales` holds one entry, or one per input dimension for
  /// kRbfArd. Bounds are fixed: c in [1e-5, 1e5], l in [1e-3, 1e3],
  /// s in [1e-10, 1e2].
  Kernel(Profile profile, double amplitude, std::vector<double> length_scales,
         double noise);

  Profile profile() const noexcept { return profile_; }
  double amplitude() const noexcept { return amplitude_; }
  std::span<const double> length_scales() const noexcept { return lengths_; }
  double noise() const noexcept { return noise_; }

  /// Number of log-hyperparameters: amplitude, length scales, noise.
  std::size_t num_params() const noexcept { return lengths_.size() + 2; }

  /// Current log-hyperparameters [log c, log l..., log s].
  std::vector<double> log_params() const;

  /// Sets log-hyperparameters. Size must equal num_params().
  void set_log_params(std::span<const double> theta);

  /// Box bounds on the log-hyperparameters.
  opt::Bounds log_bounds() const;

  /// Requests whatever derived data this kernel needs from the cache (ARD
  /// needs per-dimension components). Called eagerly before optimization
  /// so the cache is read-only while multistart workers share it.
  void prepare_distances(PairwiseDistances& dist) const;

  /// K(X, X) from a symmetric cache built over X (noise on the diagonal).
  Matrix gram_cached(const PairwiseDistances& dist) const;

  /// K(X, X) and dK/dtheta_j for every log-hyperparameter j, in one pass.
  Matrix gram_with_gradients_cached(const PairwiseDistances& dist,
                                    std::vector<Matrix>& gradients) const;

  /// K(X, Y) from a rectangular cache built over (X, Y). Noise never
  /// enters a cross-covariance.
  Matrix cross_cached(const PairwiseDistances& dist) const;

  /// K(X, Y) from feature rows; bit-identical to cross_cached().
  Matrix cross(const Matrix& x, const Matrix& y) const;

  /// diag(K(X, X)) = c + s without forming the gram matrix.
  std::vector<double> diagonal(const Matrix& x) const;

  /// Human-readable representation with current hyperparameter values, in
  /// the sklearn composite notation.
  std::string describe() const;

 private:
  template <class Source>
  Matrix cross_from(const Source& src) const;

  Profile profile_;
  double amplitude_;
  std::vector<double> lengths_;
  double noise_;
};

/// The paper's model: sigma_f^2 * RBF(l) + White(sigma_n^2), with broad
/// bounds suitable for unit-cube features and log10 responses.
Kernel make_paper_kernel(double amplitude = 1.0, double length_scale = 1.0,
                         double noise = 1e-2);

/// Any profile at the default starting point; kRbfArd gets `dim` copies of
/// `length_scale` (the other profiles ignore `dim`).
Kernel make_kernel(Kernel::Profile profile, std::size_t dim,
                   double amplitude = 1.0, double length_scale = 1.0,
                   double noise = 1e-2);

}  // namespace alamr::gp
