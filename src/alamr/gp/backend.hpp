#pragma once

// Posterior backends for the AL inner loop (DESIGN.md §12).
//
// The simulator's Algorithm-1 loop needs exactly four things from its
// per-response surrogate: fit on the learned set, append one acquired
// point with a warm refit, a posterior sweep over the candidate pool, and
// a posterior-mean sweep over the test set. `PosteriorBackend` names that
// contract so the exact-Cholesky `GaussianProcessRegressor` (backend
// zero — byte-for-byte the seed recipe, including its incremental
// K(X_train, X_active) bookkeeping and trace counters) is swappable for
// approximate posteriors that break the O(n^3) wall:
//
//   - kSubsetOfData: an inducing-point (Nyström-style subset-of-data)
//     backend that trains the exact GPR on a bounded, deterministically
//     chosen subset of the learned sequence. With capacity >= n it IS the
//     exact backend bit for bit; over capacity, fits are O(m^3) and
//     candidate sweeps O(m^2 M) for fixed m, so 10^5-candidate pools are
//     in reach.
//   - kLocalExperts: a partitioned local-experts backend built on
//     gp/local.hpp's LocalGprEnsemble with nearest-centroid routing and a
//     global-prior fallback — k experts of ~n/k points each, fitted and
//     queried independently.
//
// Approximate backends are pinned by tolerance goldens and RMSE-parity
// gates (tests/backend_parity.hpp); the exact backend stays pinned by the
// byte-for-byte golden trajectory.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "alamr/core/resilience.hpp"
#include "alamr/gp/gpr.hpp"
#include "alamr/gp/local.hpp"
#include "alamr/linalg/workspace.hpp"
#include "alamr/stats/rng.hpp"

namespace alamr::gp {

enum class BackendKind {
  kExact,         // GaussianProcessRegressor, the byte-pinned seed recipe
  kSubsetOfData,  // bounded inducing subset of the learned sequence
  kLocalExperts,  // LocalGprEnsemble, nearest-centroid routing
  kPriorMean,     // constant training-mean posterior: cannot fail
};

std::string to_string(BackendKind kind);

/// Backend selection and sizing.
struct BackendOptions {
  BackendKind kind = BackendKind::kExact;

  /// kSubsetOfData: training-set capacity m. The subset is a pure
  /// function of the learned sequence — the first `anchors` points plus
  /// the most recent m - anchors — so a resumed trajectory reconstructs
  /// it from the learned rows alone.
  std::size_t inducing_points = 256;
  /// 0 = inducing_points / 2.
  std::size_t sod_anchors = 0;

  /// kLocalExperts: number of centroids (fixed at the initial fit), the
  /// size at which a region first gets its own model (smaller regions
  /// answer with the global prior), and the Lloyd-iteration count of the
  /// deterministic k-means seeding.
  std::size_t experts = 8;
  std::size_t min_expert_size = 8;
  std::size_t kmeans_iterations = 4;
};

/// One model's view of the candidate pool. `rows` lists each candidate's
/// row in the bound DistanceBase (empty when no base is in play). During
/// `add_point` the simulator may pass a ref whose `x` is stale while
/// `rows` is current — a backend bound to a base must gather features or
/// distances through `rows`.
struct CandidateRef {
  const Matrix& x;
  std::span<const std::size_t> rows;
};

/// Posterior over the last candidate pool. Spans stay valid until the
/// next predict_candidates / add_point / fit call on the backend, or the
/// enclosing workspace scope rewinds — whichever comes first.
struct PosteriorSpans {
  std::span<const double> mean;
  std::span<const double> stddev;
};

/// Arena sizing hook: `outputs` doubles coexist for the whole pass (the
/// mean/stddev spans handed back), `scratch` is the backend's transient
/// peak while predicting. The simulator pre-sizes the pass arena at
/// max(out_1 + scratch_1, out_1 + out_2 + scratch_2) — for two exact
/// backends exactly the historical 4*m0 + z_peak bound.
struct WorkspaceBound {
  std::size_t outputs = 0;
  std::size_t scratch = 0;
};

/// The surrogate-model contract of the AL inner loop. One instance serves
/// one response (cost or memory) of one trajectory; instances are not
/// thread-safe and not shared across trajectories.
class PosteriorBackend {
 public:
  virtual ~PosteriorBackend() = default;

  virtual std::string_view name() const noexcept = 0;
  virtual BackendKind kind() const noexcept = 0;
  virtual bool fitted() const noexcept = 0;
  virtual std::size_t training_size() const noexcept = 0;

  /// Fitting-effort knobs for subsequent fits (thorough initial fit,
  /// cheap warm refits — AlOptions::initial_fit / refit).
  virtual void set_fit_options(const GprOptions& options) = 0;

  /// Fits on the learned set. When `base` is non-null, `rows` lists each
  /// x row's index in base.x() and distance caches are gathered instead
  /// of recomputed. The backend keeps its own copy of the training data;
  /// callers may mutate x/y afterwards.
  virtual void fit(const Matrix& x, std::span<const double> y,
                   stats::Rng& rng, const DistanceBase* base = nullptr,
                   std::span<const std::size_t> rows = {}) = 0;

  /// Acquisition step: appends (x, y) — dataset row `row` when a base is
  /// bound — and warm-refits. `after` describes the candidate pool AFTER
  /// the acquired candidate was removed (for cross-cache row appends);
  /// pass nullptr when the pool is empty or unknown.
  virtual void add_point(std::span<const double> x, double y,
                         std::size_t row, stats::Rng& rng,
                         const CandidateRef* after) = 0;

  /// Posterior mean/stddev over the candidate pool. Cheap storage may be
  /// carved from `ws` (freed when the caller's pass scope rewinds).
  /// `with_mean = false` is a hint that the caller only needs the stddev
  /// sweep (uncertainty-only acquisition): a backend MAY then return an
  /// empty mean span and the caller recovers individual means through
  /// candidate_mean(). Backends that ignore the hint still fill both.
  virtual PosteriorSpans predict_candidates(const CandidateRef& pool,
                                            linalg::Workspace& ws,
                                            bool with_mean = true) = 0;

  /// Posterior mean of candidate `local` of the last predict_candidates
  /// pool, bit-identical to the entry a full mean sweep would have
  /// produced. Only required of backends that honor `with_mean = false`;
  /// the default signals the caller misread the contract.
  virtual double candidate_mean(std::size_t local) const {
    (void)local;
    throw std::logic_error(
        "PosteriorBackend::candidate_mean: backend returned a full mean "
        "sweep; read PosteriorSpans::mean instead");
  }

  /// Candidate `local` of the last predict_candidates pool was removed
  /// (acquired or censored); drops any cached per-candidate state.
  virtual void remove_candidate(std::size_t local) = 0;

  /// Posterior mean at arbitrary query points (test-set RMSE). `rows`
  /// lists the queries' DistanceBase rows when a base is bound.
  virtual std::vector<double> predict_mean(
      const Matrix& x, std::span<const std::size_t> rows = {}) = 0;

  /// Full posterior at arbitrary query points, no candidate-pool caching
  /// (session posterior queries and direct library use; every AL loop
  /// sweeps its candidates through predict_candidates).
  virtual Prediction predict(const Matrix& x) const = 0;

  /// Log marginal likelihood of the backend's training data at its
  /// current hyperparameters; ensemble backends report the sum of their
  /// experts' (independent-likelihood) terms.
  virtual double lml() const = 0;

  /// Hyperparameter state, concatenated in a backend-defined but stable
  /// order. set_log_params places them before a resume fit.
  virtual std::vector<double> log_params() const = 0;
  virtual void set_log_params(std::span<const double> theta) = 0;

  /// Opaque auxiliary state for checkpoint round-trips: anything NOT
  /// derivable from (learned rows, labels, theta) — e.g. kLocalExperts'
  /// centroids, frozen at the initial fit. Backends without such state
  /// return "".
  virtual std::string save_state() const { return {}; }
  /// Installs state captured by save_state() before a resume fit. Throws
  /// std::runtime_error on malformed input.
  virtual void restore_state(const std::string& state) { (void)state; }

  /// Pre-sizes internal containers for `extra` future add_point calls.
  virtual void reserve_additional(std::size_t extra) = 0;

  /// Pass-arena bound for a trajectory starting at n0 training points and
  /// m0 candidates with `budget` acquisitions ahead. {0, 0} = the backend
  /// does not use the arena.
  virtual WorkspaceBound workspace_bound(std::size_t n0, std::size_t m0,
                                         std::size_t budget) const = 0;

  /// Snapshot hook for off-path retraining (DESIGN.md §15): a deep,
  /// independent copy of the full backend state — training data, factor
  /// caches, candidate-panel carry-over, and (for ResilientBackend) the
  /// rung/breaker/health resilience state. Background retrain workers fit
  /// the clone against a frozen view of the session and atomically swap it
  /// in; the original keeps serving reads meanwhile. Any bound
  /// DistanceBase is shared (it is immutable), not copied.
  virtual std::unique_ptr<PosteriorBackend> clone() const = 0;
};

/// Builds a backend: the backend holds its own copy of the kernel (expert
/// backends copy it per region; the prior-mean backend ignores it),
/// `fit_options` seeds the first fit's effort (adjust later fits via
/// set_fit_options).
std::unique_ptr<PosteriorBackend> make_backend(const BackendOptions& options,
                                               Kernel kernel,
                                               const GprOptions& fit_options);

/// Graceful-degradation decorator over a PosteriorBackend (DESIGN.md §14).
///
/// Wraps the configured backend and guards every model operation with a
/// per-model circuit breaker fed by two channels: resilience events noted
/// by lower layers while the operation runs (injected cholesky.non_psd /
/// opt.diverge fires), and recoverable exceptions escaping the operation
/// itself. Repeated failures trip the breaker and step a degradation
/// ladder derived from the configured kind:
///
///   kExact        -> kSubsetOfData -> kPriorMean
///   kSubsetOfData -> kPriorMean
///   kLocalExperts -> kSubsetOfData -> kPriorMean
///
/// Each step rebuilds the next rung from the decorator's retained copy of
/// the learned set with an rng-free, optimization-free fit (deterministic:
/// no stream draws, so fault schedules and resumed runs stay aligned).
/// While degraded, a streak of successful operations triggers a half-open
/// probe of the rung above (restored at its last known hyperparameters);
/// success recovers, failure stays put. Health is kHealthy on rung 0,
/// kDegraded below, kHalted when the bottom rung itself failed. Everything
/// is surfaced through resilience.* trace counters.
///
/// Happy path: with resilience disabled or nothing failing, every call is
/// a plain virtual forward plus integer bookkeeping — no rng draws, no FP
/// work — so disarmed trajectories are byte-identical to the undecorated
/// backend (golden-pinned).
class ResilientBackend final : public PosteriorBackend {
 public:
  using KernelFactory = std::function<Kernel()>;

  ResilientBackend(const BackendOptions& options,
                   const core::resilience::Options& resilience,
                   KernelFactory kernel_factory,
                   const GprOptions& fit_options);
  ~ResilientBackend() override;

  // -- PosteriorBackend -----------------------------------------------------
  std::string_view name() const noexcept override;
  /// The CONFIGURED kind, not the active rung's: fingerprints and resume
  /// compatibility key on configuration, which degradation does not change.
  BackendKind kind() const noexcept override;
  bool fitted() const noexcept override;
  std::size_t training_size() const noexcept override;
  void set_fit_options(const GprOptions& options) override;
  void fit(const Matrix& x, std::span<const double> y, stats::Rng& rng,
           const DistanceBase* base = nullptr,
           std::span<const std::size_t> rows = {}) override;
  void add_point(std::span<const double> x, double y, std::size_t row,
                 stats::Rng& rng, const CandidateRef* after) override;
  PosteriorSpans predict_candidates(const CandidateRef& pool,
                                    linalg::Workspace& ws,
                                    bool with_mean = true) override;
  double candidate_mean(std::size_t local) const override;
  void remove_candidate(std::size_t local) override;
  std::vector<double> predict_mean(
      const Matrix& x, std::span<const std::size_t> rows = {}) override;
  Prediction predict(const Matrix& x) const override;
  double lml() const override;
  std::vector<double> log_params() const override;
  void set_log_params(std::span<const double> theta) override;
  std::string save_state() const override;
  void restore_state(const std::string& state) override;
  void reserve_additional(std::size_t extra) override;
  WorkspaceBound workspace_bound(std::size_t n0, std::size_t m0,
                                 std::size_t budget) const override;
  /// Deep copy: the inner backend is cloned and the breaker / ladder /
  /// retained-learned-set state is copied, so a snapshot degrades (or
  /// recovers) independently of the original.
  std::unique_ptr<PosteriorBackend> clone() const override;

  // -- Resilience surface ---------------------------------------------------
  core::resilience::Health health() const noexcept;
  /// Current ladder rung (0 = the configured backend).
  std::size_t rung() const noexcept { return rung_; }
  /// The kind actually serving predictions right now.
  BackendKind active_kind() const noexcept { return ladder_[rung_]; }
  const core::resilience::CircuitBreaker& breaker() const noexcept {
    return breaker_;
  }
  /// Feeds an event observed OUTSIDE a guarded operation into this
  /// model's breaker (the simulator attributes injected acquire.timeout
  /// censors here). A resulting trip degrades at the next operation.
  void record_external_event(core::resilience::Event event);

 private:
  struct BreakerListener;
  enum class RetryAfterDegrade { kYes, kNo };

  ResilientBackend(const ResilientBackend& other);

  std::unique_ptr<PosteriorBackend> make_inner(BackendKind kind) const;
  void pre_op();
  void degrade(const char* why);
  void rebuild_at_rung(std::span<const double> theta);
  void maybe_probe_recovery();
  template <typename Fn>
  std::invoke_result_t<Fn&> guarded(const char* op, RetryAfterDegrade retry,
                                    Fn&& fn);

  BackendOptions base_options_;
  core::resilience::Options res_;
  KernelFactory kernel_factory_;
  GprOptions fit_options_;
  std::vector<BackendKind> ladder_;

  // predict() is const in the interface but degradation mutates the
  // decorator; the resilient state is mutable so the const forward can
  // still heal itself.
  mutable std::unique_ptr<PosteriorBackend> inner_;
  mutable std::size_t rung_ = 0;
  mutable core::resilience::CircuitBreaker breaker_;
  mutable core::resilience::Health health_ = core::resilience::Health::kHealthy;
  /// Hyperparameters each abandoned rung held when it was degraded away
  /// (ladder-indexed) — restored by half-open probes.
  mutable std::vector<std::vector<double>> rung_theta_;
  /// Deterministic scratch rng for degrade/probe refits. Those fits run
  /// with optimize=false and restarts=0, which draw nothing — the stream
  /// exists only to satisfy the fit signature.
  mutable stats::Rng repair_rng_;
  /// Per-model retry pacing for guarded operations: seeded backoff over a
  /// virtual clock, so the schedule never reads wall time.
  mutable core::resilience::DeadlineExecutor exec_;

  // Retained copy of the learned set, the raw material for rebuilds.
  Matrix x_store_{0, 0};
  std::vector<double> y_store_;
  std::vector<std::size_t> rows_store_;
  const DistanceBase* base_ = nullptr;
};

/// Wraps the configured backend in a ResilientBackend when
/// `resilience.enabled`, otherwise builds the plain backend. The factory
/// returns the starting kernel of every rung the ladder builds.
std::unique_ptr<PosteriorBackend> make_resilient_backend(
    const BackendOptions& options, const core::resilience::Options& resilience,
    ResilientBackend::KernelFactory kernel_factory,
    const GprOptions& fit_options);

}  // namespace alamr::gp
