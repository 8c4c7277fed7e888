#pragma once

// Local Gaussian-process ensembles (paper Sec. VI future work: "train
// multiple local performance models simultaneously ... in the context of
// Adaptive Mesh Refinement simulations", citing locally-weighted
// approaches [22]).
//
// The input space is split by a user-provided labeling function — for AMR
// performance data a natural choice is the maxlevel feature, since each
// level multiplies the work by a near-constant factor — and an
// independent GPR is fitted per region with at least min_region_size
// samples. Predictions dispatch to the region's model; queries whose
// region has no model fall back either to a global model fitted on
// everything (the historical default) or to the global PRIOR (running
// target mean + prior stddev) when the ensemble is asked to stay strictly
// sub-cubic (Fallback::kPrior — the kLocalExperts PosteriorBackend's
// mode, where an O(n^3) global fit would defeat the point). Region fits
// are smaller (O(n_k^3) each), so the ensemble is also cheaper than one
// big GPR.
//
// The ensemble also supports the AL acquisition loop directly:
// add_point() routes one observation to its region, warm-refits that
// region's model incrementally (fitting it fresh the first time the
// region reaches min_region_size), and keeps the fallback state in sync.

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "alamr/gp/gpr.hpp"

namespace alamr::gp {

/// Maps a feature row to a region label. Any int is a valid label —
/// including INT_MIN, which historically collided with an internal
/// fallback sentinel and mis-routed to the global model (fixed; see the
/// regression tests in test_gp_local.cpp).
using RegionLabeler = std::function<int(std::span<const double>)>;

class LocalGprEnsemble {
 public:
  /// How queries whose region has no model of its own are answered.
  enum class Fallback {
    /// One GPR fitted on ALL data (the historical default). O(n^3).
    kGlobalModel,
    /// The global prior: running training-target mean and the prototype
    /// kernel's prior stddev sqrt(k(x, x)). No global fit, so the
    /// ensemble's total cost stays sum of region costs.
    kPrior,
  };

  struct FitSpec {
    std::size_t min_region_size = 5;
    /// Distance-base gathers for the region fits: `rows` lists, for each
    /// x row, its index in base->x(). nullptr recomputes from features
    /// (bitwise-identical results either way).
    const DistanceBase* base = nullptr;
    std::span<const std::size_t> rows = {};
    Fallback fallback = Fallback::kGlobalModel;
  };

  /// `prototype` supplies the kernel for every region model (each region
  /// copies it and evolves its own hyperparameters).
  ///
  /// Copies are deep. The labeler is copied as-is; callers whose labeler
  /// captures `this` of an enclosing object must rebind it via
  /// set_labeler() after copying.
  LocalGprEnsemble(Kernel prototype, RegionLabeler labeler,
                   GprOptions options = {});

  /// Replaces the region labeler (used after copying an ensemble whose
  /// labeler captured state of the copied-from owner). The new labeler
  /// must induce the same partition as the old one for already-routed
  /// points to stay consistent.
  void set_labeler(RegionLabeler labeler);

  /// Historical entry point: FitSpec{min_region_size} with the global-
  /// model fallback.
  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           std::size_t min_region_size = 5);

  /// Fits one GPR per region with at least spec.min_region_size samples;
  /// smaller regions answer through the fallback. The spec's base/rows/
  /// fallback/min_region_size stick for subsequent add_point calls.
  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const FitSpec& spec);

  /// Appends one observation to its region: warm-refits the region's
  /// model incrementally when it exists, fits it fresh when the region
  /// just reached min_region_size, and otherwise only accumulates. The
  /// global model (kGlobalModel) and the running prior mean stay in sync.
  /// `row` is the point's DistanceBase row (ignored without a base).
  /// Returns the region label. Requires fit().
  int add_point(std::span<const double> x, double y, stats::Rng& rng,
                std::size_t row = 0);

  /// Posterior mean/stddev; each query row dispatches to its region's
  /// model, falling back per the fit's Fallback for regions without one.
  Prediction predict(const Matrix& x) const;

  /// Posterior mean only (cheaper: regions skip the variance solves).
  std::vector<double> predict_mean(const Matrix& x) const;

  /// Sum of the fitted region models' log marginal likelihoods (plus the
  /// global model's under kGlobalModel) — the independent-experts
  /// composite likelihood.
  double lml() const;

  /// Kernel log-hyperparameters, concatenated: fitted regions in
  /// ascending label order, then the global model (when present).
  std::vector<double> log_params() const;

  /// Stages per-model log-params for the NEXT fit(): consumed in the same
  /// order log_params() reports, before each model's fit. The staged
  /// count must match that fit's model count (throws std::runtime_error
  /// otherwise). Used by checkpoint resume, which rebuilds the ensemble
  /// at saved hyperparameters with optimization disabled.
  void set_pending_log_params(std::span<const double> theta);

  /// Fitting-effort knobs for subsequent fits, propagated to every live
  /// model (regions and global).
  void set_options(const GprOptions& options);

  bool fitted() const noexcept { return fitted_; }
  /// Number of regions WITH their own model.
  std::size_t region_count() const noexcept;
  std::size_t training_size() const noexcept { return n_train_; }
  /// Running mean of every target seen (fit + add_point), the kPrior
  /// fallback mean.
  double prior_mean() const noexcept;

  /// Labels that received their own model (sorted).
  std::vector<int> region_labels() const;

  /// The region model for a label; throws std::out_of_range if absent.
  const GaussianProcessRegressor& region_model(int label) const;

 private:
  struct Region {
    Matrix x;                        // member features, arrival order
    std::vector<double> y;
    std::vector<std::size_t> rows;   // DistanceBase rows (when bound)
    std::optional<GaussianProcessRegressor> model;
  };

  /// Fits `region`'s model fresh, consuming one staged theta slice if
  /// pending.
  void fit_region_model(Region& region, stats::Rng& rng);

  /// Prior-fallback posterior at the rows of x.
  Prediction prior_prediction(const Matrix& x) const;

  Kernel prototype_;
  RegionLabeler labeler_;
  GprOptions options_;

  // Sticky fit-spec state.
  std::size_t min_region_size_ = 5;
  const DistanceBase* base_ = nullptr;
  Fallback fallback_ = Fallback::kGlobalModel;

  bool fitted_ = false;
  std::optional<GaussianProcessRegressor> global_;
  std::map<int, Region> regions_;
  double y_sum_ = 0.0;
  std::size_t n_train_ = 0;

  // Staged by set_pending_log_params, consumed (and cleared) by fit().
  std::vector<double> pending_theta_;
  std::size_t pending_theta_used_ = 0;
};

}  // namespace alamr::gp
