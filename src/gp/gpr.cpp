#include "alamr/gp/gpr.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "alamr/core/faults.hpp"
#include "alamr/core/parallel.hpp"
#include "alamr/core/resilience.hpp"
#include "alamr/core/trace.hpp"
#include "alamr/opt/multistart.hpp"
#include "alamr/opt/nelder_mead.hpp"

namespace alamr::gp {

namespace {

constexpr double kLogTwoPi = 1.8378770664093453;  // log(2*pi)

}  // namespace

GaussianProcessRegressor::GaussianProcessRegressor(Kernel kernel,
                                                   GprOptions options)
    : kernel_(std::move(kernel)), options_(options) {}

double GaussianProcessRegressor::log_marginal_likelihood(
    std::span<const double> log_params, std::span<double> grad) const {
  LmlPoint point = lml_point();
  if (!grad.empty() && grad.size() != kernel_.num_params()) {
    throw std::invalid_argument("GPR: gradient span size mismatch");
  }
  if (grad.empty()) {
    // The plain value objective (Nelder-Mead, finite differences) factors
    // the value-path gram, as the posterior does.
    point.probe.set_log_params(log_params);
    return lml_value_phase(point.probe.gram_cached(*train_dist_), point);
  }
  const double lml = lml_value_phase(log_params, point);
  lml_gradient_phase(point, grad);
  return lml;
}

opt::PhasedObjective GaussianProcessRegressor::negative_lml_objective() const {
  (void)lml_point();  // fail now, not on a pool lane, when nothing is stored
  return [this] {
    // One point per L-BFGS run: the gradient phase reads the factor of
    // that run's latest value phase, so concurrent multistart runs never
    // see each other's factors and no trial is factored twice.
    const auto point = std::make_shared<LmlPoint>(lml_point());
    return opt::ObjectivePhases{
        [this, point](std::span<const double> theta) {
          return -lml_value_phase(theta, *point);
        },
        [this, point](std::span<double> grad) {
          lml_gradient_phase(*point, grad);
          for (double& g : grad) g = -g;
        }};
  };
}

GaussianProcessRegressor::LmlPoint GaussianProcessRegressor::lml_point() const {
  if (x_train_.empty()) {
    throw std::logic_error("GPR: no training data stored");
  }
  // A scratch kernel, so the caller-visible kernel state is untouched
  // (the optimizer probes many parameter vectors).
  return LmlPoint{kernel_, std::nullopt, {}, {}};
}

double GaussianProcessRegressor::lml_value_phase(
    std::span<const double> log_params, LmlPoint& point) const {
  point.probe.set_log_params(log_params);
  // The gradient-path K, whose dK matrices the gradient phase traces, so
  // the factor it reuses is of the matrix the gradient differentiates.
  // The dK matrices come out of the same pair loop as K at little extra
  // cost; building them later would redo its exp() for every trial that
  // gets a gradient.
  return lml_value_phase(
      point.probe.gram_with_gradients_cached(*train_dist_, point.gradients),
      point);
}

double GaussianProcessRegressor::lml_value_phase(const Matrix& k,
                                                 LmlPoint& point) const {
  // Every optimizer probe is an elementwise transform of the cached squared
  // distances; no feature passes. Thread-safe: the cache is read-only here
  // (fit() prepared it before optimization), so concurrent multistart
  // workers share it freely.
  core::trace::count("gpr.dist_cache_hit");
  core::trace::count("gpr.lml_value");
  point.factor.reset();  // at most one n x n factor alive per point
  auto [factor, jitter] = linalg::cholesky_with_jitter(
      k, options_.initial_jitter, options_.max_jitter);
  (void)jitter;
  point.factor = std::move(factor);

  point.alpha.assign(y_train_.begin(), y_train_.end());
  point.factor->solve_in_place(point.alpha);
  const std::size_t n = x_train_.rows();
  double lml = -0.5 * linalg::dot(y_train_, point.alpha);
  lml -= 0.5 * point.factor->log_det();
  lml -= 0.5 * static_cast<double>(n) * kLogTwoPi;
  return lml;
}

void GaussianProcessRegressor::lml_gradient_phase(
    const LmlPoint& point, std::span<double> grad) const {
  core::trace::count("gpr.lml_gradient");
  const std::size_t n = x_train_.rows();
  const std::vector<Matrix>& gradients = point.gradients;
  const std::vector<double>& alpha = point.alpha;

  // dLML/dtheta_j = 1/2 tr((alpha alpha^T - K^{-1}) dK/dtheta_j).
  // Both alpha alpha^T - K^{-1} and dK are symmetric, so the trace needs
  // only the upper triangle: diagonal terms once, off-diagonal doubled.
  // All parameters share one pass: the alpha alpha^T - K^{-1} entry is
  // computed once per (r, c) and fed to every gradient's accumulator,
  // each of which sums the same terms in the same ascending-c order a
  // per-parameter pass would.
  const Matrix k_inv = point.factor->inverse();
  const std::size_t np = gradients.size();
  std::vector<double> traces(np, 0.0);
  std::vector<double> off(np);
  std::vector<const double*> dk_rows(np);
  for (std::size_t r = 0; r < n; ++r) {
    const auto kinv_row = k_inv.row(r);
    const double ar = alpha[r];
    for (std::size_t j = 0; j < np; ++j) {
      dk_rows[j] = gradients[j].row(r).data();
      off[j] = 0.0;
    }
    for (std::size_t c = r + 1; c < n; ++c) {
      const double s = ar * alpha[c] - kinv_row[c];
      for (std::size_t j = 0; j < np; ++j) off[j] += s * dk_rows[j][c];
    }
    const double sd = ar * ar - kinv_row[r];
    for (std::size_t j = 0; j < np; ++j) {
      traces[j] += sd * dk_rows[j][r] + 2.0 * off[j];
    }
  }
  for (std::size_t j = 0; j < np; ++j) grad[j] = 0.5 * traces[j];
}

double GaussianProcessRegressor::compute_posterior_unchecked() {
  // Full O(n^2) gram rebuild + O(n^3) refactor — the slow path that
  // fit_add_point's incremental update exists to avoid.
  core::trace::count("gpr.fit_full");
  // A rebuilt factor shares no rows with the old one, so any cached
  // candidate panel is stale (DESIGN.md §13 invalidation rule 1).
  panel_valid_ = false;
  gram_ = kernel_.gram_cached(*train_dist_);
  auto [factor, jitter] = linalg::cholesky_with_jitter(
      gram_, options_.initial_jitter, options_.max_jitter);
  factor_ = std::move(factor);
  jitter_ = jitter;
  // alpha refresh in place (no solve-result temporaries); assign() reuses
  // alpha_'s capacity. This is the ONLY place besides the incremental
  // update that recomputes alpha — predict/predict_batch_panel always read
  // the cache, which the gpr.alpha_solve counter lets tests pin down.
  core::trace::count("gpr.alpha_solve");
  alpha_.assign(y_train_.begin(), y_train_.end());
  factor_->solve_in_place(alpha_);
  const std::size_t n = x_train_.rows();
  lml_ = -0.5 * linalg::dot(y_train_, alpha_) - 0.5 * factor_->log_det() -
         0.5 * static_cast<double>(n) * kLogTwoPi;
  last_good_params_ = kernel_.log_params();
  return lml_;
}

double GaussianProcessRegressor::compute_posterior() {
  try {
    return compute_posterior_unchecked();
  } catch (const std::exception&) {
    // Recovery ladder rung 3 (DESIGN.md §9): the optimizer accepted a
    // theta whose gram cannot be factored even at max jitter. Rather than
    // killing the trajectory, revert to the last theta known to produce a
    // valid posterior and rebuild there. Rethrow when there is no previous
    // theta (first fit) or it IS the failing theta.
    if (last_good_params_.empty() ||
        last_good_params_ == kernel_.log_params()) {
      throw;
    }
    core::trace::count("gpr.posterior_recover");
    kernel_.set_log_params(last_good_params_);
    return compute_posterior_unchecked();
  }
}

void GaussianProcessRegressor::recenter_targets() {
  y_mean_ = 0.0;
  if (options_.normalize_y) {
    for (const double v : y_raw_) y_mean_ += v;
    y_mean_ /= static_cast<double>(y_raw_.size());
  }
  y_train_.resize(y_raw_.size());
  for (std::size_t i = 0; i < y_raw_.size(); ++i) {
    y_train_[i] = y_raw_[i] - y_mean_;
  }
}

void GaussianProcessRegressor::optimize_hyperparameters(stats::Rng& rng) {
  const opt::PhasedObjective negative_lml = negative_lml_objective();

  opt::MultistartOptions ms;
  ms.restarts = options_.restarts;
  ms.lbfgs.max_iterations = options_.max_opt_iterations;

  const std::vector<double> start = kernel_.log_params();
  opt::Bounds bounds = kernel_.log_bounds();
  // Keep the warm start feasible even if an earlier fit pushed a
  // parameter onto (or numerically past) its bound.
  std::vector<double> feasible_start = start;
  bounds.project(feasible_start);

  // A zero-budget call (no restarts, no L-BFGS iterations) cannot move
  // the hyperparameters: the only candidate the optimizer can return is
  // the warm start itself. Skip the probe entirely — it costs a full
  // O(n^3) gradient LML evaluation per kernel per refit just to
  // rediscover the start point, which dominated zero-refit AL passes
  // (BM_ArenaPass). Guarded so the skip is unobservable: restarts == 0
  // consumes no rng draws, an out-of-bounds warm start still goes
  // through the optimizer (the projection clamp is the old behavior),
  // and an armed fault injector keeps the historical path so the
  // opt.diverge hit schedule is unchanged.
  if (options_.restarts == 0 && options_.max_opt_iterations == 0 &&
      feasible_start == start && !core::faults::armed()) {
    return;
  }

  // Recovery ladder (DESIGN.md §9). Rung 1: multistart L-BFGS — the only
  // path ever taken when nothing fails, so healthy runs are bit-identical
  // to the pre-ladder code. A non-finite best value (diverged line search,
  // injected opt.diverge) or a thrown factorization during probing falls
  // through to rung 2: derivative-free Nelder-Mead on a guarded objective
  // that maps non-finite/throwing evaluations to +inf. If that also fails,
  // rung 3: keep the previous hyperparameters (the kernel is untouched).
  std::optional<std::vector<double>> winner;
  try {
    const opt::OptimizeResult best =
        opt::multistart_minimize(negative_lml, feasible_start, bounds, ms, rng);
    if (std::isfinite(best.value)) winner = best.x;
  } catch (const std::exception&) {
  }

  if (!winner) {
    core::trace::count("gpr.opt_degrade_nm");
    // The same fault site that poisoned the L-BFGS starts can veto the
    // Nelder-Mead rung, so tests can drive the ladder to the bottom.
    const bool nm_vetoed = core::faults::fire(core::faults::Site::kOptDiverge);
    if (nm_vetoed) {
      core::resilience::note(core::resilience::Event::kOptDiverge);
    }
    if (!nm_vetoed) {
      const opt::Objective guarded = [this](std::span<const double> theta,
                                            std::span<double> grad) -> double {
        for (double& g : grad) g = 0.0;  // NM never uses the gradient
        try {
          const double value =
              log_marginal_likelihood(theta, std::span<double>{});
          return std::isfinite(value)
                     ? -value
                     : std::numeric_limits<double>::infinity();
        } catch (const std::exception&) {
          return std::numeric_limits<double>::infinity();
        }
      };
      opt::NelderMeadOptions nm;
      nm.max_iterations =
          std::max<std::size_t>(100, options_.max_opt_iterations * 10);
      try {
        const opt::NelderMeadResult fallback =
            opt::nelder_mead_minimize(guarded, feasible_start, nm, bounds);
        if (std::isfinite(fallback.value)) winner = fallback.x;
      } catch (const std::exception&) {
      }
    }
  }

  if (!winner) {
    core::trace::count("gpr.opt_keep_previous");
    return;  // kernel_ still holds the pre-optimization hyperparameters
  }
  kernel_.set_log_params(*winner);
}

void GaussianProcessRegressor::fit(const Matrix& x, std::span<const double> y,
                                   stats::Rng& rng, const DistanceBase* base,
                                   std::span<const std::size_t> rows) {
  if (x.rows() == 0) throw std::invalid_argument("GPR::fit: empty design matrix");
  if (x.rows() != y.size()) {
    throw std::invalid_argument("GPR::fit: X/y size mismatch");
  }
  if (base != nullptr && rows.size() != x.rows()) {
    throw std::invalid_argument("GPR::fit: base rows/X size mismatch");
  }

  x_train_ = x;
  // Build the distance cache (and whatever the kernel derives from it,
  // e.g. ARD components) up front: optimization below shares it across
  // multistart workers, so it must be complete and read-only by then.
  // With a shared base the cache is gathered (O(n^2) copies) rather than
  // recomputed (O(n^2 d) FLOPs); the bits are identical either way.
  train_dist_ = base != nullptr ? PairwiseDistances::train_from_base(*base, rows)
                                : PairwiseDistances::train(x_train_);
  kernel_.prepare_distances(*train_dist_);
  y_raw_.assign(y.begin(), y.end());
  recenter_targets();

  if (options_.optimize && kernel_.num_params() > 0 && x.rows() >= 2) {
    optimize_hyperparameters(rng);
  }

  compute_posterior();
}

void GaussianProcessRegressor::append_training_point(std::span<const double> x,
                                                     double y) {
  if (x.size() != x_train_.cols()) {
    throw std::invalid_argument("GPR::add_point: dimension mismatch");
  }
  x_train_.push_row(x);  // in place; allocation-free within reserve
  train_dist_->append_x_row(x);

  y_raw_.push_back(y);
  // fit() centers by summing all targets in order; repeat that exactly so
  // the incremental path stays bit-identical to a full refit.
  recenter_targets();
}

void GaussianProcessRegressor::update_posterior_incremental() {
  core::trace::count("gpr.fit_incremental");
  const std::size_t n = x_train_.rows() - 1;  // training size before append
  Matrix x_new(1, x_train_.cols());
  {
    const auto last = x_train_.row(n);
    std::copy(last.begin(), last.end(), x_new.row(0).begin());
  }

  // n new kernel evaluations instead of the full n^2 gram rebuild. cross()
  // produces the same bits gram() would for these entries; the diagonal
  // entry comes from diagonal() so the noise term is included.
  const Matrix k_new = kernel_.cross(x_train_, x_new);  // (n+1) x 1
  const double k_diag = kernel_.diagonal(x_new)[0];

  gram_.grow(n + 1, n + 1);  // in place; allocation-free within reserve
  for (std::size_t i = 0; i < n; ++i) gram_(i, n) = k_new(i, 0);
  {
    const auto bottom = gram_.row(n);
    for (std::size_t j = 0; j < n; ++j) bottom[j] = k_new(j, 0);
    bottom[n] = k_diag;
  }

  // O(n^2) factor extension. Only valid when the stored factor is of the
  // clean gram: with jitter baked in, or when the extension is not
  // positive, fall back to the full jittered refactor — exactly the path
  // a from-scratch fit() would take on this gram.
  bool extended = false;
  if (jitter_ == 0.0) {
    extended = factor_->extend(gram_.row(n).first(n), k_diag);
  }
  if (!extended) {
    // The jittered refactor can change every entry of L, not just the new
    // row — the candidate panel no longer matches (a successful extend()
    // leaves rows 0..n-1 of L untouched, so the panel stays live there).
    panel_valid_ = false;
    auto [factor, jitter] = linalg::cholesky_with_jitter(
        gram_, options_.initial_jitter, options_.max_jitter);
    factor_ = std::move(factor);
    jitter_ = jitter;
  }

  core::trace::count("gpr.alpha_solve");
  alpha_.assign(y_train_.begin(), y_train_.end());
  factor_->solve_in_place(alpha_);
  const std::size_t m = x_train_.rows();
  lml_ = -0.5 * linalg::dot(y_train_, alpha_) - 0.5 * factor_->log_det() -
         0.5 * static_cast<double>(m) * kLogTwoPi;
  last_good_params_ = kernel_.log_params();
}

void GaussianProcessRegressor::add_point(std::span<const double> x, double y) {
  if (!fitted()) throw std::logic_error("GPR::add_point before fit");
  append_training_point(x, y);
  update_posterior_incremental();
}

bool GaussianProcessRegressor::fit_add_point(std::span<const double> x, double y,
                                             stats::Rng& rng) {
  if (!fitted()) throw std::logic_error("GPR::fit_add_point before fit");

  const std::vector<double> params_before = kernel_.log_params();
  append_training_point(x, y);

  bool params_changed = false;
  if (options_.optimize && kernel_.num_params() > 0 && x_train_.rows() >= 2) {
    // Run the warm-started optimization exactly as fit() on the
    // concatenated data would (same rng stream, same starts). Converged
    // warm restarts return the start point bit-for-bit, so an exact
    // comparison detects "parameters unchanged".
    optimize_hyperparameters(rng);
    params_changed = kernel_.log_params() != params_before;
  }

  if (params_changed) {
    // New hyperparameters invalidate the cached gram: full rebuild.
    compute_posterior();
    return false;
  }
  update_posterior_incremental();
  return true;
}

Prediction GaussianProcessRegressor::predict(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("GPR::predict before fit");
  if (x.cols() != x_train_.cols()) {
    throw std::invalid_argument("GPR::predict: dimension mismatch");
  }
  const Matrix k_star = kernel_.cross(x_train_, x);
  const std::size_t n = x_train_.rows();
  Prediction out;
  out.mean = linalg::matvec_transposed(k_star, alpha_);
  for (double& m : out.mean) m += y_mean_;

  out.stddev.resize(x.rows());
  const std::vector<double> prior_diag = kernel_.diagonal(x);
  // sigma^2 = k** - k*^T K_y^{-1} k* via Z = L^{-1} K*; sigma^2_q = k** -
  // |z_q|^2. One heap scratch for Z; the shared sweep zero-inits the
  // accumulators in the stddev slots, so per scalar this performs exactly
  // the per-chunk solve + square + finalize chain the panel sweep runs.
  std::vector<double> z(n * x.rows());
  variance_sweep(k_star, prior_diag, z.data(), 0, out.stddev.data(),
                 out.stddev);
  return out;
}

void GaussianProcessRegressor::variance_sweep(
    const Matrix& k_star, std::span<const double> prior_diag, double* z,
    std::size_t row_begin, double* acc, std::span<double> stddev_out) const {
  const std::size_t n = x_train_.rows();
  const std::size_t m = k_star.cols();
  const double* diag = prior_diag.data();
  double* sd = stddev_out.data();
  // Each query's variance solve is independent; chunks write disjoint
  // z / acc / stddev stripes, so the result is identical for any thread
  // count. Within a chunk the forward substitution runs over all columns
  // at once (contiguous inner loops) — per scalar it performs exactly the
  // operations a per-column solve_lower + dot(v, v) would, and resuming
  // at row_begin > 0 replays exactly the operations rows >= row_begin of
  // a from-scratch solve would see (solve_lower_block_resume contract).
  core::parallel_for_chunks(m, [&](std::size_t begin, std::size_t end) {
    factor_->solve_lower_block_resume(k_star, begin, end, z + begin, m,
                                      row_begin);
    const std::size_t nc = end - begin;
    double* a = acc + begin;
    if (row_begin == 0) std::fill(a, a + nc, 0.0);
    for (std::size_t i = row_begin; i < n; ++i) {
      const double* zi = z + i * m + begin;
      for (std::size_t q = 0; q < nc; ++q) a[q] += zi[q] * zi[q];
    }
    for (std::size_t q = 0; q < nc; ++q) {
      const double var = diag[begin + q] - a[q];
      sd[begin + q] = var > 0.0 ? std::sqrt(var) : 0.0;
    }
  });
}

void GaussianProcessRegressor::predict_batch_panel(
    const Matrix& k_star, std::span<const double> prior_diag,
    std::span<double> mean_out, std::span<double> stddev_out,
    bool with_mean) {
  if (!fitted()) throw std::logic_error("GPR::predict_batch_panel before fit");
  const std::size_t n = x_train_.rows();
  const std::size_t m = k_star.cols();
  if (k_star.rows() != n || prior_diag.size() != m || stddev_out.size() != m ||
      (with_mean && mean_out.size() != m)) {
    throw std::invalid_argument("GPR::predict_batch_panel: shape mismatch");
  }
  if (m == 0) return;
  core::trace::count("predict.batch_calls");
  core::trace::count("predict.batch_queries", m);

  // Mean: zero-init + ascending-row axpy of the cached alpha — exactly
  // matvec_transposed(k_star, alpha_), written into the caller's span.
  // alpha changes on every posterior update, so this stays a full O(n m)
  // pass. Skipped entirely for uncertainty-only acquisition
  // (mean_from_cross_column() recovers any single entry bit-identically).
  if (with_mean) {
    std::fill(mean_out.begin(), mean_out.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(alpha_[i], k_star.row(i), mean_out);
    }
    for (double& v : mean_out) v += y_mean_;
  }

  // Variance through the panel. Reusable only when the posterior grew
  // purely by factor extensions since the cached sweep (panel_valid_) and
  // the caller kept the cross matrix aligned column-for-column.
  const std::size_t r0 = panel_z_.rows();
  const bool reusable = panel_valid_ && panel_z_.cols() == m && r0 <= n;
  if (!reusable) {
    core::trace::count("panel.rebuilds");
    panel_acc_.resize(m);
    panel_z_.resize_discard(n, m);
    variance_sweep(k_star, prior_diag, panel_z_.data().data(), 0,
                   panel_acc_.data(), stddev_out);
  } else {
    // Rows 0..r0-1 of Z and the running sums are bitwise those of a fresh
    // sweep; only the appended factor rows are solved and folded in.
    // r0 == n (no growth since last sweep) finalizes from the sums alone.
    if (r0 < n) {
      core::trace::count("panel.rows_appended", n - r0);
      panel_z_.grow(n, m);
    }
    variance_sweep(k_star, prior_diag, panel_z_.data().data(), r0,
                   panel_acc_.data(), stddev_out);
  }
  panel_valid_ = true;
}

double GaussianProcessRegressor::mean_from_cross_column(const Matrix& k_star,
                                                        std::size_t col) const {
  if (!fitted()) throw std::logic_error("GPR::mean_from_cross_column before fit");
  const std::size_t n = x_train_.rows();
  if (k_star.rows() != n || col >= k_star.cols()) {
    throw std::invalid_argument("GPR::mean_from_cross_column: shape mismatch");
  }
  // Entry `col` of the full mean pass: zero-init, ascending-row axpy,
  // mean shift. Routed through the dispatched axpy kernel one element at
  // a time so the fused-multiply-add chain is the one the full pass runs
  // on this entry — bit-identical by construction.
  double acc = 0.0;
  const std::span<double> out(&acc, 1);
  for (std::size_t i = 0; i < n; ++i) {
    linalg::axpy(alpha_[i], k_star.row(i).subspan(col, 1), out);
  }
  return acc + y_mean_;
}

void GaussianProcessRegressor::panel_remove_column(std::size_t local) {
  if (!panel_valid_ || local >= panel_z_.cols()) return;
  core::trace::count("panel.cols_dropped");
  panel_z_.remove_column(local);
  panel_acc_.erase(panel_acc_.begin() +
                   static_cast<std::ptrdiff_t>(local));
}

void GaussianProcessRegressor::reserve_additional(std::size_t extra) {
  if (!fitted()) throw std::logic_error("GPR::reserve_additional before fit");
  const std::size_t n_max = x_train_.rows() + extra;
  x_train_.reserve(n_max, x_train_.cols());
  y_raw_.reserve(n_max);
  y_train_.reserve(n_max);
  alpha_.reserve(n_max);
  gram_.reserve(n_max, n_max);
  factor_->reserve(n_max);
  train_dist_->reserve(n_max);
}

std::vector<double> GaussianProcessRegressor::predict_mean(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("GPR::predict_mean before fit");
  if (x.cols() != x_train_.cols()) {
    throw std::invalid_argument("GPR::predict_mean: dimension mismatch");
  }
  const Matrix k_star = kernel_.cross(x_train_, x);
  std::vector<double> mean = linalg::matvec_transposed(k_star, alpha_);
  for (double& m : mean) m += y_mean_;
  return mean;
}

std::vector<double> GaussianProcessRegressor::predict_mean_from_cross(
    const Matrix& k_star) const {
  if (!fitted()) throw std::logic_error("GPR::predict_mean before fit");
  if (k_star.rows() != x_train_.rows()) {
    throw std::invalid_argument("GPR::predict_mean_from_cross: shape mismatch");
  }
  std::vector<double> mean = linalg::matvec_transposed(k_star, alpha_);
  for (double& m : mean) m += y_mean_;
  return mean;
}

double GaussianProcessRegressor::log_marginal_likelihood() const {
  if (!fitted()) throw std::logic_error("GPR::lml before fit");
  return lml_;
}

}  // namespace alamr::gp
