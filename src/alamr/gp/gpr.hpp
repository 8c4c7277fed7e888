#pragma once

// Gaussian Process Regression (paper Sec. III, Eqs. 1-9).
//
// Mirrors the scikit-learn 0.18 GaussianProcessRegressor the paper uses:
//  - fit() maximizes the log marginal likelihood over the kernel's
//    log-hyperparameters with L-BFGS, optionally with random restarts;
//  - refitting reuses the current hyperparameters as the starting point
//    (Algorithm 1: "use old model's parameters as a starting point");
//  - predict() returns the posterior mean and standard deviation (Eq. 3).

#include <optional>
#include <span>
#include <vector>

#include "alamr/gp/kernels.hpp"
#include "alamr/linalg/cholesky.hpp"
#include "alamr/stats/rng.hpp"

namespace alamr::gp {

struct GprOptions {
  /// Random restarts for hyperparameter optimization on top of the
  /// warm/default start (sklearn: n_restarts_optimizer).
  std::size_t restarts = 1;
  /// Subtract the training-target mean before fitting, add back on predict.
  bool normalize_y = true;
  /// Skip hyperparameter optimization entirely (use kernel as configured).
  bool optimize = true;
  /// L-BFGS iteration budget per start. AL refits run warm-started, so a
  /// modest budget converges in practice; the first fit may use more.
  std::size_t max_opt_iterations = 50;
  /// Numerical jitter floor added to K_y when Cholesky requires it.
  double initial_jitter = 1e-12;
  double max_jitter = 1e-4;
};

/// Posterior mean and standard deviation at query points.
struct Prediction {
  std::vector<double> mean;
  std::vector<double> stddev;
};

class GaussianProcessRegressor {
 public:
  /// Holds its own copy of the kernel; its hyperparameters evolve with
  /// fits.
  explicit GaussianProcessRegressor(Kernel kernel, GprOptions options = {});

  /// Fits the model on (x, y): optimizes hyperparameters (unless disabled)
  /// starting from the kernel's current values, then precomputes the
  /// Cholesky factor and alpha = K_y^{-1} y used by predict().
  /// `rng` drives the optional random restarts.
  ///
  /// fit() always builds the pairwise squared-distance cache over x
  /// (DESIGN.md §8); every optimizer probe is an elementwise transform of
  /// it. When `base` is non-null, the cache is GATHERED from the shared dataset-wide base
  /// instead of recomputed: `rows` must list, for each row of x, its index
  /// in base.x() (so x == base.x()[rows] bit for bit). The gathered cache
  /// is bitwise identical to the recomputed one, so results do not depend
  /// on which path was taken.
  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const DistanceBase* base = nullptr,
           std::span<const std::size_t> rows = {});

  /// Appends one training point WITHOUT re-optimizing hyperparameters:
  /// extends the cached gram by one row/column (n kernel evaluations
  /// instead of n^2), extends the Cholesky factor in O(n^2) instead of
  /// O(n^3), and recomputes alpha with two triangular solves. Bit-identical
  /// to fit() on the concatenated data at the same hyperparameters.
  /// Requires fit().
  void add_point(std::span<const double> x, double y);

  /// AL refit step (Algorithm 1): appends one training point and runs the
  /// warm-started hyperparameter optimization exactly as fit() on the
  /// concatenated data would. When the optimizer leaves the kernel
  /// parameters unchanged — the common case for converged warm restarts,
  /// and always when optimization is disabled — the posterior is updated
  /// through the incremental O(n^2) path; otherwise it falls back to the
  /// full rebuild. Either way the result is bit-identical to full fit().
  /// Returns true when the incremental path was taken. Requires fit().
  bool fit_add_point(std::span<const double> x, double y, stats::Rng& rng);

  /// Posterior mean and stddev at the rows of `x` (Eq. 3). Requires fit().
  Prediction predict(const Matrix& x) const;

  /// Posterior mean only (cheaper: skips the variance solves).
  std::vector<double> predict_mean(const Matrix& x) const;

  /// predict_mean() with a caller-supplied cross-covariance K(X_train, x)
  /// (n_train x n_query): the AL simulator gathers the test-set distances
  /// from a shared DistanceBase instead of recomputing them from features
  /// each evaluation. Bit-identical to predict_mean() when k_star holds
  /// the same bits. Requires fit().
  std::vector<double> predict_mean_from_cross(const Matrix& k_star) const;

  /// Fused posterior sweep over a caller-maintained cross-covariance k_star
  /// = K(X_train, X_q) through the cross-iteration candidate panel
  /// (DESIGN.md §10, §13). `prior_diag` is kernel().diagonal() of the
  /// query rows; alpha = K_y^{-1}(y - mean) is the cached one, recomputed
  /// only on (re)fit. The solved panel Z = L^{-1} K* and its running
  /// squared-column accumulators persist inside the model between calls.
  /// When the posterior only grew by a one-row Cholesky extension since
  /// the previous sweep (unchanged hyperparameters), rows 0..n-1 of Z are
  /// bitwise unchanged and only the appended rows are computed — O(M n)
  /// per sweep instead of O(M n^2) — with variance finalized from the
  /// accumulators as diag - acc. Any full posterior rebuild (theta move,
  /// jittered refactor, fault recovery, checkpoint resume) invalidates
  /// the panel and the next call rebuilds it from scratch. Both paths
  /// perform, per scalar, exactly predict()'s operations in the same
  /// order, so the outputs are bit-identical to predict() at every thread
  /// count. The caller must
  /// keep the panel aligned with k_star: panel_remove_column() mirrors
  /// every k_star column removal. Requires fit().
  /// `with_mean = false` skips the O(n m) posterior-mean pass (mean_out
  /// may then be empty); individual means are recoverable afterwards via
  /// mean_from_cross_column(), bit-identical to the skipped pass.
  void predict_batch_panel(const Matrix& k_star,
                           std::span<const double> prior_diag,
                           std::span<double> mean_out,
                           std::span<double> stddev_out, bool with_mean = true);

  /// Posterior mean of one column of a caller-maintained cross matrix:
  /// the exact entry a full predict_batch_panel() mean pass over k_star would
  /// write at `col`, reproduced bit-for-bit (same ascending-row fused
  /// multiply-add chain through the dispatched axpy kernel, same final
  /// mean shift). O(n). Requires fit().
  double mean_from_cross_column(const Matrix& k_star, std::size_t col) const;

  /// Drops column `local` from the candidate panel (the candidate was
  /// acquired or censored out of the pool). Pure data movement — the
  /// surviving columns keep their bits. No-op when no panel is live.
  void panel_remove_column(std::size_t local);

  /// Discards the candidate panel; the next predict_batch_panel() call
  /// rebuilds it from scratch (counted as panel.rebuilds). Called
  /// internally on every full posterior rebuild; exposed so callers can
  /// force a rebuild when their cross matrix was rebuilt wholesale.
  void panel_invalidate() noexcept { panel_valid_ = false; }

  /// Pre-sizes the panel storage so steady-state row appends and column
  /// drops stay allocation-free (DESIGN.md §10 discipline).
  void panel_reserve(std::size_t rows, std::size_t cols) {
    panel_z_.reserve(rows, cols);
    panel_acc_.reserve(cols);
  }

  /// Rows of Z currently cached (0 when invalid). Test/diagnostic hook.
  std::size_t panel_rows() const noexcept {
    return panel_valid_ ? panel_z_.rows() : 0;
  }

  /// Pre-sizes every posterior container (training matrix, targets,
  /// gram, factor, alpha, distance cache) for `extra` future add_point /
  /// fit_add_point appends, so incremental updates stay allocation-free
  /// until the reserve is exceeded. Requires fit().
  void reserve_additional(std::size_t extra);

  /// Log marginal likelihood at the current hyperparameters (Eq. 8, with
  /// the -n/2 log(2 pi) constant included). Requires fit().
  double log_marginal_likelihood() const;

  /// LML (and gradient if `grad` non-empty) at arbitrary log-params,
  /// evaluated against the stored training data. Exposed for testing the
  /// analytic gradient against finite differences. With a gradient it is
  /// the value phase plus the gradient phase of negative_lml_objective()
  /// (negated); without one it factors the value-path gram_cached(), as
  /// the posterior does.
  double log_marginal_likelihood(std::span<const double> log_params,
                                 std::span<double> grad) const;

  /// The negative LML over the stored training data as the two-phase
  /// objective L-BFGS minimizes (the one fit() optimizes). The value
  /// phase builds the gradient-path K with its dK matrices, factors K and
  /// computes alpha and the LML; the gradient phase adds K^{-1} from that
  /// factor and the dK trace. The phases count gpr.lml_value and
  /// gpr.lml_gradient. The model must outlive the objective and keep its
  /// training data while it is used.
  opt::PhasedObjective negative_lml_objective() const;

  bool fitted() const noexcept { return factor_.has_value(); }
  const Kernel& kernel() const noexcept { return kernel_; }
  std::size_t training_size() const noexcept { return x_train_.rows(); }
  const GprOptions& options() const noexcept { return options_; }

  /// Adjusts fitting options between fits (e.g. thorough initial fit,
  /// cheap warm-started refits during AL). Does not invalidate the model.
  void set_options(const GprOptions& options) noexcept { options_ = options; }

  /// Places the kernel at explicit log-hyperparameters. Used by checkpoint
  /// resume to rebuild a model at its saved theta (followed by a fit with
  /// optimization disabled); does not touch the cached posterior by
  /// itself.
  void set_kernel_log_params(std::span<const double> theta) {
    kernel_.set_log_params(theta);
  }

 private:
  /// Builds K_y, factors it, computes alpha; stores everything needed by
  /// predict(). Returns the LML value. On factorization failure (the
  /// jitter ladder exhausted), reverts to the last hyperparameters that
  /// produced a valid posterior and retries once (recovery ladder rung 3,
  /// DESIGN.md §9) before letting the exception escape.
  double compute_posterior();

  /// The raw posterior build with no recovery — throws on failure.
  double compute_posterior_unchecked();

  /// Recomputes y_mean_ from y_raw_ (in-order sum, as fit() does) and
  /// refreshes the centered targets.
  void recenter_targets();

  /// One LML evaluation point: the kernel at its theta, and the factor,
  /// alpha and dK matrices that the value phase leaves for the gradient
  /// phase.
  struct LmlPoint {
    Kernel probe;
    std::optional<linalg::CholeskyFactor> factor;
    std::vector<double> alpha;
    std::vector<Matrix> gradients;  // dK/dtheta_j
  };

  /// A fresh point holding a copy of the kernel. Throws without training
  /// data.
  LmlPoint lml_point() const;

  /// The value phase at `log_params`: the gradient-path K and its dK
  /// matrices, K's jittered Cholesky factor, alpha and the LML, keeping
  /// factor, alpha and dK.
  double lml_value_phase(std::span<const double> log_params,
                         LmlPoint& point) const;

  /// The value phase on a given K (the factorization onward).
  double lml_value_phase(const Matrix& k, LmlPoint& point) const;

  /// The gradient phase: dLML/dtheta at the point's latest value phase,
  /// from its factor's inverse and the trace against its dK.
  void lml_gradient_phase(const LmlPoint& point,
                          std::span<double> grad) const;

  /// Warm-started multistart L-BFGS over the LML; shared by fit() and
  /// fit_add_point() so both consume the rng stream identically.
  void optimize_hyperparameters(stats::Rng& rng);

  /// Grows x_train_ / y_raw_ by one point and re-centers the targets.
  void append_training_point(std::span<const double> x, double y);

  /// Incremental counterpart of compute_posterior() for the last appended
  /// point: extends gram_ with n new kernel evaluations and the factor in
  /// O(n^2), falling back to a full (possibly jittered) refactor when the
  /// stored factor carries jitter or the extension is not positive.
  void update_posterior_incremental();

  /// Shared chunked variance kernel behind predict() and
  /// predict_batch_panel(): resumes the forward
  /// substitution of Z = L^{-1} K* at `row_begin` into `z` (row i at
  /// z + i*m, m = k_star.cols()), folds the new rows' squares into `acc`
  /// (caller-initialized: zeros for a fresh sweep, the running panel sums
  /// for a resumed one), and finalizes stddev = sqrt(max(diag - acc, 0)).
  /// Columns are processed in parallel_for_chunks stripes; every kernel it
  /// touches is elementwise (chunk-splittable), so the bits are identical
  /// at every thread count. acc may alias stddev_out.data(): each slot's
  /// accumulation completes before its finalizing overwrite.
  void variance_sweep(const Matrix& k_star, std::span<const double> prior_diag,
                      double* z, std::size_t row_begin, double* acc,
                      std::span<double> stddev_out) const;

  Kernel kernel_;
  GprOptions options_;

  Matrix x_train_;
  // Hyperparameter-independent squared-distance cache over x_train_. Built
  // by fit() (and prepared for the kernel, e.g. ARD components) BEFORE
  // optimization starts, extended in O(n d) on append_training_point, so
  // every LML objective evaluation reads it instead of re-walking
  // features. Invalidated only by new training data, never by
  // hyperparameter moves.
  std::optional<PairwiseDistances> train_dist_;
  std::vector<double> y_raw_;         // targets as given (for re-centering)
  std::vector<double> y_train_;       // centered targets when normalize_y
  double y_mean_ = 0.0;
  Matrix gram_;                       // K_y at the current hyperparameters
  double jitter_ = 0.0;               // diagonal jitter baked into factor_
  std::optional<linalg::CholeskyFactor> factor_;
  std::vector<double> alpha_;         // K_y^{-1} (y - mean)
  double lml_ = 0.0;
  // Last log-hyperparameters that produced a valid posterior — the final
  // rung of the recovery ladder when a fresh theta breaks factorization.
  std::vector<double> last_good_params_;
  // Cross-iteration candidate panel (DESIGN.md §13): Z = L^{-1} K* from
  // the last predict_batch_panel() sweep plus the running squared-column
  // sums, valid only while the posterior has grown purely by one-row
  // factor extensions since that sweep. Derived state: never serialized,
  // never fingerprinted — a rebuild reproduces it bit-for-bit.
  Matrix panel_z_;
  std::vector<double> panel_acc_;
  bool panel_valid_ = false;
};

}  // namespace alamr::gp
